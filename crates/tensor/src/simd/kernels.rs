//! ISA-generic inner kernels over the [`F32x8`]/[`I32x8`] traits.
//!
//! Each kernel is `#[inline(always)]` and written against the trait surface
//! only, so the per-ISA entry points (`x86.rs`/`neon.rs`) monomorphize it
//! into straight-line vector code while [`ScalarF32x8`] instantiations stay
//! the bit-exact reference. Remainder elements (`len % 8`) run through the
//! scalar register type with the *same* lane math, which keeps tails
//! bit-identical to the vector body at every ISA.
//!
//! Accumulation-order contract: every kernel folds its k/element dimension
//! in the same order at every ISA and uses only single-rounding lane ops
//! (no FMA), so the f32 linear kernels (microkernel, axpy family, adam) and
//! the exact-integer int8 dot are bit-identical across Scalar/AVX2/NEON.
//! The polynomial transcendentals ([`exp_inplace`]/[`tanh_inplace`]/
//! [`softmax_row`]) share lane math across ISAs too, but their horizontal
//! reductions (softmax max/sum) have ISA-specific association — those are
//! the documented toleranced paths (DESIGN §5g).

use super::vec::{F32x8, I32x8, ScalarF32x8, LANES};

/// Microkernel tile rows (matches the packed-A strip interleave).
pub const MR: usize = 4;
/// Microkernel tile columns (two vector registers wide).
pub const NR: usize = 16;

/// Register-tiled GEMM inner kernel: `acc += a_strip · b_panel` over `kc`
/// rank-1 updates. `a_strip` is `kc × MR` interleaved, `b_panel` is
/// `kc × NR` interleaved; both are at least that long (packed by
/// `gemm::pack_a`/`pack_b`).
#[inline(always)]
pub fn microkernel<V: F32x8>(
    kc: usize,
    a_strip: &[f32],
    b_panel: &[f32],
    acc: &mut [f32; MR * NR],
) {
    let (a4, _) = a_strip.as_chunks::<MR>();
    let (b8, _) = b_panel.as_chunks::<LANES>();
    let (acc8, _) = acc.as_chunks_mut::<LANES>();
    let mut t = [[V::splat(0.0); 2]; MR];
    for (r, pair) in t.iter_mut().enumerate() {
        pair[0] = V::load(&acc8[2 * r]);
        pair[1] = V::load(&acc8[2 * r + 1]);
    }
    for (av, bp) in a4.iter().zip(b8.chunks_exact(2)).take(kc) {
        let b0 = V::load(&bp[0]);
        let b1 = V::load(&bp[1]);
        for (r, pair) in t.iter_mut().enumerate() {
            let ar = V::splat(av[r]);
            pair[0] = pair[0].add(ar.mul(b0));
            pair[1] = pair[1].add(ar.mul(b1));
        }
    }
    for (r, pair) in t.iter().enumerate() {
        pair[0].store(&mut acc8[2 * r]);
        pair[1].store(&mut acc8[2 * r + 1]);
    }
}

/// One output row of the int8 GEMM: `out[j] = Σ_p arow[p] · b[p·n + j]`
/// with exact (wrapping) i32 accumulation. `b` is `k × n` row-major with
/// `k = arow.len()`; `out.len() == n`. Integer adds are associative, so the
/// column-tiled vector order and the scalar remainder agree bit-for-bit.
#[inline(always)]
pub fn qmatmul_row<V: F32x8>(arow: &[i8], b: &[i8], n: usize, out: &mut [i32]) {
    // Four accumulator registers per column tile stay resident across the
    // whole k loop; B is streamed with sign-extending 8-lane loads.
    const TILE_VECS: usize = 4;
    const TILE: usize = TILE_VECS * LANES;
    let k = arow.len();
    let mut j = 0;
    while j + TILE <= n {
        let mut acc = [V::Int::splat(0); TILE_VECS];
        for (p, &a) in arow.iter().enumerate() {
            let av = V::Int::splat(a as i32);
            let (b8, _) = b[p * n + j..p * n + j + TILE].as_chunks::<LANES>();
            for (t, src) in acc.iter_mut().zip(b8) {
                *t = t.add(av.mul(V::Int::widen_i8(src)));
            }
        }
        let (o8, _) = out[j..j + TILE].as_chunks_mut::<LANES>();
        for (t, dst) in acc.iter().zip(o8) {
            t.store(dst);
        }
        j += TILE;
    }
    for (jj, o) in out.iter_mut().enumerate().skip(j).take(n - j) {
        let mut s = 0i32;
        for (p, &a) in arow.iter().enumerate().take(k) {
            s = s.wrapping_add((a as i32).wrapping_mul(b[p * n + jj] as i32));
        }
        *o = s;
    }
}

/// `dst += alpha * src` (SGD step).
#[inline(always)]
pub fn axpy<V: F32x8>(dst: &mut [f32], src: &[f32], alpha: f32) {
    let av = V::splat(alpha);
    let (d8, dt) = dst.as_chunks_mut::<LANES>();
    let (s8, st) = src.as_chunks::<LANES>();
    for (d, s) in d8.iter_mut().zip(s8) {
        V::load(d).add(av.mul(V::load(s))).store(d);
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d += alpha * s;
    }
}

/// `dst = decay * dst + alpha * src` (fused momentum update).
#[inline(always)]
pub fn decay_axpy<V: F32x8>(dst: &mut [f32], src: &[f32], decay: f32, alpha: f32) {
    let dv = V::splat(decay);
    let av = V::splat(alpha);
    let (d8, dt) = dst.as_chunks_mut::<LANES>();
    let (s8, st) = src.as_chunks::<LANES>();
    for (d, s) in d8.iter_mut().zip(s8) {
        dv.mul(V::load(d)).add(av.mul(V::load(s))).store(d);
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d = decay * *d + alpha * s;
    }
}

/// `dst = decay * dst + w * src²` (fused Adam second moment; `w` is the
/// caller's precomputed `1 - decay`).
#[inline(always)]
pub fn ema_sq<V: F32x8>(dst: &mut [f32], src: &[f32], decay: f32, w: f32) {
    let dv = V::splat(decay);
    let wv = V::splat(w);
    let (d8, dt) = dst.as_chunks_mut::<LANES>();
    let (s8, st) = src.as_chunks::<LANES>();
    for (d, s) in d8.iter_mut().zip(s8) {
        let g = V::load(s);
        dv.mul(V::load(d)).add(wv.mul(g).mul(g)).store(d);
    }
    for (d, &g) in dt.iter_mut().zip(st) {
        *d = decay * *d + w * g * g;
    }
}

/// Adam parameter update: `p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)`.
/// Division and square root are correctly rounded at every ISA, so this is
/// bit-identical to the scalar expression.
#[inline(always)]
pub fn adam_update<V: F32x8>(
    p: &mut [f32],
    m: &[f32],
    v: &[f32],
    lr: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    let lrv = V::splat(lr);
    let epsv = V::splat(eps);
    let bc1v = V::splat(bc1);
    let bc2v = V::splat(bc2);
    let (p8, pt) = p.as_chunks_mut::<LANES>();
    let (m8, mt) = m.as_chunks::<LANES>();
    let (v8, vt) = v.as_chunks::<LANES>();
    for ((pp, mm), vv) in p8.iter_mut().zip(m8).zip(v8) {
        let m_hat = V::load(mm).div(bc1v);
        let v_hat = V::load(vv).div(bc2v);
        let upd = lrv.mul(m_hat).div(v_hat.sqrt().add(epsv));
        V::load(pp).sub(upd).store(pp);
    }
    for ((pp, &mm), &vv) in pt.iter_mut().zip(mt).zip(vt) {
        let m_hat = mm / bc1;
        let v_hat = vv / bc2;
        *pp -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

// Cephes-style single-precision exp reduction constants: ln2 split so the
// high part has zero low-order mantissa bits (exact n·C1 product for the
// clamped n range), plus a degree-5 minimax polynomial on the reduced
// argument. ~2 ulp over the clamped domain.
const EXP_HI: f32 = 87.336_55;
const EXP_LO: f32 = -87.336_55;
const LOG2E: f32 = std::f32::consts::LOG2_E;
// Full digits kept: 0.693359375 is exactly representable and the trailing
// zeros of its mantissa are the point of the hi/lo split.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    0.5,
];

/// One register of the polynomial `exp`. Inputs are clamped to
/// `[EXP_LO, EXP_HI]` (beyond which the result saturates to the boundary
/// value); NaN lanes propagate. Identical lane math at every ISA.
#[inline(always)]
pub fn exp_v<V: F32x8>(x: V) -> V {
    let xc = x.max(V::splat(EXP_LO)).min(V::splat(EXP_HI));
    let n = xc.mul(V::splat(LOG2E)).to_i32_nearest();
    let nf = n.to_f32();
    let r = xc
        .sub(nf.mul(V::splat(LN2_HI)))
        .sub(nf.mul(V::splat(LN2_LO)));
    let mut p = V::splat(EXP_P[0]);
    for &c in &EXP_P[1..] {
        p = p.mul(r).add(V::splat(c));
    }
    let y = p.mul(r.mul(r)).add(r).add(V::splat(1.0));
    y.mul(n.exp2_bits()).with_nan_from(x)
}

// tanh saturates (in f32) beyond |x| = 9: tanh(9) = 1 − 4.5e-9 rounds to
// 1.0, and clamping keeps exp(2x) finite.
const TANH_SAT: f32 = 9.0;

/// One register of `tanh` via `(e^{2x} − 1) / (e^{2x} + 1)` on the clamped
/// argument; NaN lanes propagate, ±∞ saturate to ±1 like libm.
#[inline(always)]
pub fn tanh_v<V: F32x8>(x: V) -> V {
    let xc = x.max(V::splat(-TANH_SAT)).min(V::splat(TANH_SAT));
    let q = exp_v(xc.add(xc));
    let one = V::splat(1.0);
    q.sub(one).div(q.add(one)).with_nan_from(x)
}

/// Polynomial `exp` over a slice; the remainder runs the same lane math
/// through [`ScalarF32x8`], so results are bit-identical to the vector body.
#[inline(always)]
pub fn exp_inplace<V: F32x8>(xs: &mut [f32]) {
    let (x8, tail) = xs.as_chunks_mut::<LANES>();
    for c in x8.iter_mut() {
        exp_v(V::load(c)).store(c);
    }
    apply_tail(tail, exp_v::<ScalarF32x8>);
}

/// Polynomial `tanh` over a slice (remainder as in [`exp_inplace`]).
#[inline(always)]
pub fn tanh_inplace<V: F32x8>(xs: &mut [f32]) {
    let (x8, tail) = xs.as_chunks_mut::<LANES>();
    for c in x8.iter_mut() {
        tanh_v(V::load(c)).store(c);
    }
    apply_tail(tail, tanh_v::<ScalarF32x8>);
}

/// Runs a register-level function over a `< LANES` remainder by padding
/// into one scalar register. Lane math matches the vector body exactly.
#[inline(always)]
fn apply_tail(tail: &mut [f32], f: impl Fn(ScalarF32x8) -> ScalarF32x8) {
    if tail.is_empty() {
        return;
    }
    let mut pad = [0.0f32; LANES];
    pad[..tail.len()].copy_from_slice(tail);
    let mut out = [0.0f32; LANES];
    f(ScalarF32x8::load(&pad)).store(&mut out);
    tail.copy_from_slice(&out[..tail.len()]);
}

/// Numerically stable in-place softmax of one row: shift by the row max,
/// polynomial exp, normalize. The max/sum reductions use the ISA's
/// horizontal association, so this path is toleranced (not bit-pinned)
/// against the scalar reference.
#[inline(always)]
pub fn softmax_row<V: F32x8>(row: &mut [f32]) {
    let mut mv = V::splat(f32::NEG_INFINITY);
    {
        let (r8, tail) = row.as_chunks::<LANES>();
        for c in r8 {
            mv = mv.max(V::load(c));
        }
        let mut max = mv.hmax();
        for &x in tail {
            max = if max > x { max } else { x };
        }
        let maxv = V::splat(max);
        let (r8, tail) = row.as_chunks_mut::<LANES>();
        let mut sv = V::splat(0.0);
        for c in r8.iter_mut() {
            let y = exp_v(V::load(c).sub(maxv));
            sv = sv.add(y);
            y.store(c);
        }
        let mut sum = sv.hsum();
        if !tail.is_empty() {
            let mut pad = [0.0f32; LANES];
            pad[..tail.len()].copy_from_slice(tail);
            let mut out = [0.0f32; LANES];
            exp_v(ScalarF32x8::load(&pad).sub(ScalarF32x8::splat(max))).store(&mut out);
            for (dst, &y) in tail.iter_mut().zip(&out) {
                *dst = y;
                sum += y;
            }
        }
        let sumv = V::splat(sum);
        let (r8, tail) = row.as_chunks_mut::<LANES>();
        for c in r8.iter_mut() {
            V::load(c).div(sumv).store(c);
        }
        for x in tail {
            *x /= sum;
        }
    }
}
