//! Runtime-dispatched SIMD microkernel layer (DESIGN §5g).
//!
//! One ISA is selected per process — auto-detected at first use, or forced
//! with `EGERIA_SIMD=avx2|neon|scalar` — and every hot inner loop (GEMM
//! microkernel, int8 dot product, fused optimizer kernels, transcendental
//! sweeps) routes through it. The kernels are written once, generically,
//! over the [`F32x8`]/[`I32x8`] traits in [`vec`](mod@vec); `x86.rs`/`neon.rs`
//! monomorphize them into `#[target_feature]` entry points.
//!
//! Determinism contract:
//! - **Per ISA**: results are bit-identical across thread counts (the
//!   kernels keep the fixed-geometry partitioning and in-order folds of the
//!   blocked backend).
//! - **Across ISAs**: the f32 linear kernels and the exact-integer int8 dot
//!   are bit-identical to [`Isa::Scalar`] because every lane op rounds once
//!   (no FMA) in the same per-element order. The transcendentals are *not*:
//!   the vector ISAs use polynomial exp/tanh while `Isa::Scalar` keeps the
//!   seed's libm calls, so `EGERIA_SIMD=scalar` reproduces the pre-SIMD
//!   numerics (and the golden-run fingerprint) exactly.

pub mod kernels;
pub mod vec;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use kernels::{MR, NR};
pub use vec::{F32x8, I32x8, ScalarF32x8, ScalarI32x8, LANES};

use std::sync::atomic::{AtomicU8, Ordering};

/// Which instruction set the SIMD kernels execute with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Scalar fallback: the seed kernels' exact numerics (libm
    /// transcendentals, plain loops). The cross-ISA reference.
    Scalar,
    /// 256-bit AVX2 on x86-64 (requires runtime CPU support).
    Avx2,
    /// 128-bit NEON pairs on aarch64 (baseline there).
    Neon,
}

impl Isa {
    /// Stable lower-case name (the `EGERIA_SIMD` value that selects it).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }
}

const UNSET: u8 = u8::MAX;
static ISA: AtomicU8 = AtomicU8::new(UNSET);

fn supported(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx2 => false,
        Isa::Neon => cfg!(target_arch = "aarch64"),
    }
}

/// The best ISA this CPU supports (ignoring `EGERIA_SIMD`). Benches and
/// differential tests use this to pit the vector unit against
/// [`Isa::Scalar`] explicitly.
pub fn detect() -> Isa {
    if supported(Isa::Avx2) {
        Isa::Avx2
    } else if supported(Isa::Neon) {
        Isa::Neon
    } else {
        Isa::Scalar
    }
}

/// The active ISA. The first call reads `EGERIA_SIMD`
/// (`avx2`/`neon`/`scalar`); an unset, unknown, or unsupported-on-this-CPU
/// value falls back to auto-detection (then scalar).
pub fn isa() -> Isa {
    match ISA.load(Ordering::Relaxed) {
        0 => Isa::Scalar,
        1 => Isa::Avx2,
        2 => Isa::Neon,
        _ => {
            let requested = match std::env::var("EGERIA_SIMD").as_deref() {
                Ok("scalar") => Some(Isa::Scalar),
                Ok("avx2") => Some(Isa::Avx2),
                Ok("neon") => Some(Isa::Neon),
                _ => None,
            };
            let isa = match requested {
                Some(r) if supported(r) => r,
                _ => detect(),
            };
            set_isa(isa)
        }
    }
}

/// Overrides the active ISA (benches and differential tests switch
/// in-process). Unsupported requests clamp to [`Isa::Scalar`]; returns the
/// ISA actually installed.
pub fn set_isa(isa: Isa) -> Isa {
    let effective = if supported(isa) { isa } else { Isa::Scalar };
    let v = match effective {
        Isa::Scalar => 0,
        Isa::Avx2 => 1,
        Isa::Neon => 2,
    };
    ISA.store(v, Ordering::Relaxed);
    effective
}

/// The register-tiled GEMM inner kernel: `acc += a_strip · b_panel` over
/// `kc` rank-1 updates (`a_strip` is `kc × MR` interleaved, `b_panel` is
/// `kc × NR` interleaved). Bit-identical at every ISA.
#[inline]
pub fn microkernel(kc: usize, a_strip: &[f32], b_panel: &[f32], acc: &mut [f32; MR * NR]) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::microkernel(kc, a_strip, b_panel, acc) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::microkernel(kc, a_strip, b_panel, acc),
        _ => kernels::microkernel::<ScalarF32x8>(kc, a_strip, b_panel, acc),
    }
}

/// One output row of the int8 GEMM with exact i32 accumulation:
/// `out[j] = Σ_p arow[p] · b[p·n + j]`. Bit-identical at every ISA
/// (integer adds associate exactly).
#[inline]
pub fn qmatmul_row(arow: &[i8], b: &[i8], n: usize, out: &mut [i32]) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::qmatmul_row(arow, b, n, out) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::qmatmul_row(arow, b, n, out),
        _ => kernels::qmatmul_row::<ScalarF32x8>(arow, b, n, out),
    }
}

/// `dst += alpha * src` over equal-length slices. Bit-identical at every
/// ISA. Callers guarantee `dst.len() == src.len()`.
#[inline]
pub fn axpy(dst: &mut [f32], src: &[f32], alpha: f32) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::axpy(dst, src, alpha) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::axpy(dst, src, alpha),
        _ => {
            for (a, &b) in dst.iter_mut().zip(src.iter()) {
                *a += alpha * b;
            }
        }
    }
}

/// `dst = decay * dst + alpha * src` (fused momentum / first-moment
/// update). Bit-identical at every ISA.
#[inline]
pub fn decay_axpy(dst: &mut [f32], src: &[f32], decay: f32, alpha: f32) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::decay_axpy(dst, src, decay, alpha) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::decay_axpy(dst, src, decay, alpha),
        _ => {
            for (a, &b) in dst.iter_mut().zip(src.iter()) {
                *a = decay * *a + alpha * b;
            }
        }
    }
}

/// `dst = decay * dst + w * src²` (fused Adam second moment; `w` is the
/// caller's `1 - decay`). Bit-identical at every ISA.
#[inline]
pub fn ema_sq(dst: &mut [f32], src: &[f32], decay: f32, w: f32) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::ema_sq(dst, src, decay, w) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::ema_sq(dst, src, decay, w),
        _ => {
            for (a, &g) in dst.iter_mut().zip(src.iter()) {
                *a = decay * *a + w * g * g;
            }
        }
    }
}

/// Adam parameter update `p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)` over
/// equal-length slices. Division and square root are correctly rounded, so
/// this is bit-identical at every ISA.
#[inline]
pub fn adam_update(p: &mut [f32], m: &[f32], v: &[f32], lr: f32, eps: f32, bc1: f32, bc2: f32) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::adam_update(p, m, v, lr, eps, bc1, bc2) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::adam_update(p, m, v, lr, eps, bc1, bc2),
        _ => {
            for ((pp, &mm), &vv) in p.iter_mut().zip(m.iter()).zip(v.iter()) {
                let m_hat = mm / bc1;
                let v_hat = vv / bc2;
                *pp -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

/// Elementwise `exp`. [`Isa::Scalar`] calls libm `f32::exp` (the seed
/// numerics); the vector ISAs use the shared polynomial (toleranced, ~2 ulp
/// over the clamped domain — see `kernels::exp_v`).
#[inline]
pub fn exp_inplace(xs: &mut [f32]) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::exp_inplace(xs) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::exp_inplace(xs),
        _ => {
            for x in xs {
                *x = x.exp();
            }
        }
    }
}

/// Elementwise `tanh` (scalar = libm, vector = polynomial; as
/// [`exp_inplace`]).
#[inline]
pub fn tanh_inplace(xs: &mut [f32]) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::tanh_inplace(xs) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::tanh_inplace(xs),
        _ => {
            for x in xs {
                *x = x.tanh();
            }
        }
    }
}

/// Numerically stable in-place softmax of one row. [`Isa::Scalar`] runs
/// the seed's exact loop (libm exp, serial left-to-right sum); the vector
/// ISAs vectorize max/exp/sum with ISA-specific reduction association
/// (toleranced path).
#[inline]
pub fn softmax_row(row: &mut [f32]) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Isa::Avx2 is installed only after runtime avx2 detection.
        Isa::Avx2 => unsafe { x86::softmax_row(row) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::softmax_row(row),
        _ => {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global ISA state: tests that flip it take this lock so
    // concurrent test threads never observe a mid-test switch.
    static ISA_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
        let _guard = ISA_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prev = super::isa();
        let eff = set_isa(isa);
        assert_eq!(eff, isa, "requested ISA unsupported on this host");
        let r = f();
        set_isa(prev);
        r
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn set_isa_clamps_unsupported_to_scalar() {
        let _guard = ISA_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prev = super::isa();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(set_isa(Isa::Neon), Isa::Scalar);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(set_isa(Isa::Avx2), Isa::Scalar);
        set_isa(prev);
    }

    #[test]
    fn scalar_poly_exp_is_close_to_libm() {
        let xs: Vec<f32> = (-600..600).map(|i| i as f32 * 0.05).collect();
        let mut ys = xs.clone();
        kernels::exp_inplace::<ScalarF32x8>(&mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            let want = x.exp();
            let rel = (y - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 4e-7, "exp({x}) = {y}, libm {want}, rel {rel}");
        }
    }

    #[test]
    fn scalar_poly_tanh_is_close_to_libm() {
        let xs: Vec<f32> = (-400..400).map(|i| i as f32 * 0.05).collect();
        let mut ys = xs.clone();
        kernels::tanh_inplace::<ScalarF32x8>(&mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!(
                (y - x.tanh()).abs() < 1e-6,
                "tanh({x}) = {y} vs {}",
                x.tanh()
            );
        }
    }

    #[test]
    fn poly_transcendentals_propagate_nan_and_saturate_inf() {
        let mut xs = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0];
        kernels::tanh_inplace::<ScalarF32x8>(&mut xs);
        assert!(xs[0].is_nan());
        assert_eq!(xs[1], 1.0);
        assert_eq!(xs[2], -1.0);
        assert_eq!(xs[3], 0.0);
        let mut es = [f32::NAN, 0.0];
        kernels::exp_inplace::<ScalarF32x8>(&mut es);
        assert!(es[0].is_nan());
        assert_eq!(es[1], 1.0);
    }

    #[test]
    fn vector_isa_matches_scalar_register_bits() {
        // The detected vector ISA (if any) must agree bit-for-bit with the
        // ScalarF32x8 instantiation of every generic kernel — linear ops
        // because each lane op rounds once, transcendentals because the
        // lane math is identical (only horizontal reductions may differ,
        // checked separately with tolerance in backend_differential).
        let vector = super::detect();
        if vector == Isa::Scalar {
            return; // nothing to compare on this host
        }
        let mut a: Vec<f32> = (0..67).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let src: Vec<f32> = (0..67).map(|i| (i as f32 * 0.11).cos() * 2.0).collect();
        let mut expect = a.clone();
        kernels::exp_inplace::<ScalarF32x8>(&mut expect);
        with_isa(vector, || exp_inplace(&mut a));
        assert_eq!(bits(&a), bits(&expect), "poly exp lane math diverged");

        let mut d1: Vec<f32> = src.iter().map(|x| x * 1.5).collect();
        let mut d2 = d1.clone();
        kernels::adam_update::<ScalarF32x8>(
            &mut d1,
            &src,
            &src.iter().map(|x| x * x).collect::<Vec<_>>(),
            0.1,
            1e-8,
            0.9,
            0.99,
        );
        with_isa(vector, || {
            adam_update(
                &mut d2,
                &src,
                &src.iter().map(|x| x * x).collect::<Vec<_>>(),
                0.1,
                1e-8,
                0.9,
                0.99,
            )
        });
        assert_eq!(bits(&d1), bits(&d2), "adam kernel diverged across ISAs");
    }
}
