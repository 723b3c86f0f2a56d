//! Cache-blocked, register-tiled f32 GEMM with operand packing.
//!
//! This is the single compute primitive under `matmul`, `bmm`, the linear
//! and attention layers, and (via im2col) all convolution kernels. The
//! layering follows the classic Goto/BLIS scheme:
//!
//! - **B packing**: the right-hand matrix is repacked once per call into
//!   column panels of [`NR`] interleaved columns so the microkernel streams
//!   it contiguously.
//! - **Cache blocking**: the k dimension is processed in `KC`-sized blocks
//!   and the rows of A in [`MC`]-sized blocks, keeping the packed A block
//!   and the active B panel resident in cache.
//! - **Register tiling**: the [`MR`]`×`[`NR`] microkernel in
//!   [`crate::simd`] accumulates into a tile of 8-lane vector registers,
//!   dispatched once per process to the detected ISA (bit-identical across
//!   ISAs — DESIGN §5g).
//!
//! Parallelism: row blocks of A are pool tasks, each owning a disjoint
//! stripe of C; one `run` per call, which the pool keeps on the caller when
//! `2·m·n·k` is under its dispatch grain. Determinism: every C element accumulates its k
//! products in the same order (k blocks ascending, then k ascending within
//! the microkernel) regardless of thread count or stripe assignment, so the
//! output is bit-identical for any pool size.

use crate::pool::ThreadPool;
use crate::simd;

// Microkernel tile geometry is owned by the SIMD layer (the tile is two
// 8-lane registers wide per row); re-exported here for the packing code and
// the shape-aware callers/tests.
pub use crate::simd::{MR, NR};
/// Rows of A per cache block (multiple of [`MR`]): the height of one
/// row-stripe task, so a product dispatches only when `m > MC`.
pub const MC: usize = 64;
/// Depth of one k block: `KC × NR` floats of packed B plus `MC × KC` of
/// packed A stay well inside L2.
const KC: usize = 256;

/// How one operand matrix is laid out relative to the logical GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The slice stores the logical operand row-major.
    RowMajor,
    /// The slice stores the *transpose* of the logical operand row-major
    /// (i.e. the logical operand column-major).
    Transposed,
}

#[inline(always)]
fn read(m: &[f32], layout: Layout, rows_ld: usize, cols_ld: usize, r: usize, c: usize) -> f32 {
    match layout {
        Layout::RowMajor => m[r * cols_ld + c],
        Layout::Transposed => {
            let _ = rows_ld;
            m[c * rows_ld + r]
        }
    }
}

/// Packs columns `[0, n)` of logical B (`k × n`) into NR-wide panels for the
/// k range `[kb, kb+kc)`. Output layout: panel-major, then k-major, then the
/// NR interleaved columns; short trailing panels are zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_b_block(
    packed: &mut [f32],
    b: &[f32],
    layout: Layout,
    k_total: usize,
    n: usize,
    kb: usize,
    kc: usize,
    panel: usize,
) {
    let j0 = panel * NR;
    let width = NR.min(n - j0);
    let dst = &mut packed[..kc * NR];
    match layout {
        Layout::RowMajor if width == NR => {
            // Hot case: copy NR contiguous values per k row.
            for p in 0..kc {
                let src = &b[(kb + p) * n + j0..(kb + p) * n + j0 + NR];
                dst[p * NR..(p + 1) * NR].copy_from_slice(src);
            }
        }
        _ => {
            for p in 0..kc {
                for c in 0..NR {
                    dst[p * NR + c] = if c < width {
                        read(b, layout, k_total, n, kb + p, j0 + c)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Packs rows `[i0, i0+rows)` of logical A (`m × k`) for the k range
/// `[kb, kb+kc)` into MR-row strips; short trailing strips are zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    packed: &mut [f32],
    a: &[f32],
    layout: Layout,
    m: usize,
    k_total: usize,
    i0: usize,
    rows: usize,
    kb: usize,
    kc: usize,
) {
    let strips = rows.div_ceil(MR);
    for s in 0..strips {
        let r0 = i0 + s * MR;
        let live = MR.min(i0 + rows - r0);
        let dst = &mut packed[s * MR * kc..(s + 1) * MR * kc];
        for p in 0..kc {
            for r in 0..MR {
                dst[p * MR + r] = if r < live {
                    read(a, layout, m, k_total, r0 + r, kb + p)
                } else {
                    0.0
                };
            }
        }
    }
}

/// `c += a · b` where logical A is `m × k`, logical B is `k × n` and `c` is
/// `m × n` row-major. `Layout::Transposed` operands are read through their
/// transpose without materializing it.
///
/// `c` is accumulated into (callers start from a zeroed buffer); element
/// accumulation order is fixed, so results are bit-identical for every pool
/// size.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    pool: &ThreadPool,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    c: &mut [f32],
) {
    // egeria-lint: allow(panic-reachable-from-kernel): documented shape
    // preconditions at the public kernel boundary — a mismatched buffer is
    // a caller bug that must fail loudly before any partial accumulation.
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length"); // egeria-lint: allow(panic-reachable-from-kernel): shape precondition, as above
    assert_eq!(c.len(), m * n, "gemm: C length"); // egeria-lint: allow(panic-reachable-from-kernel): shape precondition, as above
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return;
    }

    // Pack all of B once, on the caller: a panel is a `k × NR` copy, far
    // below what a wake-up costs, and packing here leaves the row stripes
    // as the call's single dispatch decision.
    let panels = n.div_ceil(NR);
    let mut packed_b = vec![0.0f32; panels * k * NR];
    for (j, dst) in packed_b.chunks_exact_mut(k * NR).enumerate() {
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            pack_b_block(
                &mut dst[kb * NR..(kb + kc) * NR],
                b,
                b_layout,
                k,
                n,
                kb,
                kc,
                j,
            );
            kb += kc;
        }
    }

    // Row stripes of C in parallel; each task packs its own A block per
    // k-block and runs the microkernel grid.
    let row_blocks = m.div_ceil(MC);
    // The call's real work spread over its stripes: a ragged last stripe
    // is not costed as a full one.
    let stripe_flops = 2 * (m as u64) * (n as u64) * (k as u64) / row_blocks as u64;
    let cp = SendSlice(c.as_mut_ptr());
    pool.run(row_blocks, stripe_flops, &|blk| {
        let i0 = blk * MC;
        let rows = MC.min(m - i0);
        let strips = rows.div_ceil(MR);
        let mut packed_a = vec![0.0f32; strips * MR * KC.min(k)];
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            pack_a_block(&mut packed_a, a, a_layout, m, k, i0, rows, kb, kc);
            for j in 0..panels {
                let b_panel = &packed_b[j * k * NR + kb * NR..j * k * NR + (kb + kc) * NR];
                let j0 = j * NR;
                let width = NR.min(n - j0);
                for s in 0..strips {
                    let a_strip = &packed_a[s * MR * kc..(s + 1) * MR * kc];
                    let mut acc = [0.0f32; MR * NR];
                    simd::microkernel(kc, a_strip, b_panel, &mut acc);
                    let r0 = i0 + s * MR;
                    let live = MR.min(i0 + rows - r0);
                    for r in 0..live {
                        // SAFETY: row stripes of C are disjoint per task and
                        // the width-bounded segment is in-bounds; C outlives
                        // the blocking run.
                        let row = unsafe {
                            std::slice::from_raw_parts_mut(cp.get().add((r0 + r) * n + j0), width)
                        };
                        for (dst, &v) in row.iter_mut().zip(acc[r * NR..r * NR + width].iter()) {
                            *dst += v;
                        }
                    }
                }
            }
            kb += kc;
        }
    });
}

/// Reference GEMM: the seed repo's serial i-k-j triple loop (minus its
/// `0.0`-skip, which broke `0 · NaN` propagation). Kept as the numerical
/// baseline for property tests and as the "seed serial kernel" timed by the
/// perf benches.
#[allow(clippy::too_many_arguments)]
pub fn gemm_reference(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    c: &mut [f32],
) {
    // egeria-lint: allow(panic-reachable-from-kernel): shape precondition
    // at the public kernel boundary, same contract as `gemm` above.
    assert_eq!(c.len(), m * n, "gemm_reference: C length");
    for i in 0..m {
        for p in 0..k {
            let av = read(a, a_layout, m, k, i, p);
            for j in 0..n {
                c[i * n + j] += av * read(b, b_layout, k, n, p, j);
            }
        }
    }
}

#[derive(Clone, Copy)]
struct SendSlice(*mut f32);
// SAFETY: a SendSlice is only handed to pool tasks that write disjoint,
// in-bounds regions of the buffer it points into, and the dispatching call
// blocks until every task finishes — no aliasing or dangling access.
unsafe impl Send for SendSlice {}
// SAFETY: as for Send — concurrent tasks touch disjoint regions only.
unsafe impl Sync for SendSlice {}
impl SendSlice {
    /// Method (not field) access so closures capture the whole wrapper,
    /// keeping it `Sync` under edition-2021 disjoint capture.
    fn get(self) -> *mut f32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    /// Blocked result on `pool` and the reference result. Test shapes are
    /// far under the dispatch grain, so multi-thread pools passed here are
    /// zero-grain unless a test is pinning the inline side of the rule.
    fn run_both(
        m: usize,
        n: usize,
        k: usize,
        a_layout: Layout,
        b_layout: Layout,
        pool: &ThreadPool,
        seed: u64,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Rng::new(seed);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let mut c = vec![0.0f32; m * n];
        gemm(pool, &a, a_layout, &b, b_layout, m, n, k, &mut c);
        let mut c_ref = vec![0.0f32; m * n];
        gemm_reference(&a, a_layout, &b, b_layout, m, n, k, &mut c_ref);
        (c, c_ref)
    }

    #[test]
    fn matches_reference_on_odd_shapes() {
        let pool = ThreadPool::with_zero_grain(3);
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (MR, NR, KC),
            (MC + 3, NR * 2 + 5, KC + 9),
            (130, 70, 33),
        ] {
            for &(la, lb) in &[
                (Layout::RowMajor, Layout::RowMajor),
                (Layout::Transposed, Layout::RowMajor),
                (Layout::RowMajor, Layout::Transposed),
                (Layout::Transposed, Layout::Transposed),
            ] {
                let (c, c_ref) = run_both(m, n, k, la, lb, &pool, 42);
                for (i, (&x, &y)) in c.iter().zip(c_ref.iter()).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                        "({m},{n},{k}) {la:?}/{lb:?} elem {i}: {x} vs {y}"
                    );
                }
            }
        }
        // The two shapes taller than one MC stripe, in all four layouts.
        assert_eq!(pool.stats().jobs, 8);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let (m, n, k) = (MC + 13, 53, 129);
        let rm = Layout::RowMajor;
        let base = run_both(m, n, k, rm, rm, &ThreadPool::new(1), 7).0;
        for threads in [2usize, 7, 8] {
            // Across threads (grain 0), and kept on the caller by the grain
            // rule (production pool): same stripes, same bits.
            let crossing = ThreadPool::with_zero_grain(threads);
            let inline = ThreadPool::new(threads);
            for pool in [&crossing, &inline] {
                let c = run_both(m, n, k, rm, rm, pool, 7).0;
                for (a, b) in base.iter().zip(c.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
                }
            }
            assert_eq!(crossing.stats().jobs, 1, "one dispatch per gemm call");
            assert_eq!(inline.stats().jobs, 0);
        }
    }

    #[test]
    fn ragged_height_is_costed_by_real_work() {
        use crate::pool::GRAIN;
        // One row over a stripe: two tasks, but 65 rows of flops, not 128.
        let m = MC + 1;
        let rm = Layout::RowMajor;
        let pool = ThreadPool::new(2);
        let flops = |n: usize, k: usize| 2 * (m * n * k) as u64;
        // Under the grain as it is, over it if both stripes counted as full.
        assert!(flops(200, 200) < GRAIN && 2 * (2 * MC * 200 * 200) as u64 >= GRAIN);
        run_both(m, 200, 200, rm, rm, &pool, 3);
        let s = pool.stats();
        assert_eq!((s.jobs, s.small_jobs), (0, 1));
        assert!(flops(256, 256) >= GRAIN);
        run_both(m, 256, 256, rm, rm, &pool, 3);
        let s = pool.stats();
        assert_eq!((s.jobs, s.small_jobs), (1, 1));
    }

    #[test]
    fn accumulates_into_existing_c() {
        let pool = ThreadPool::new(1);
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let mut c = vec![10.0f32];
        gemm(
            &pool,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            1,
            1,
            2,
            &mut c,
        );
        assert_eq!(c[0], 10.0 + 3.0 + 8.0);
    }

    #[test]
    fn nan_propagates_through_gemm() {
        let pool = ThreadPool::new(2);
        let mut a = vec![0.0f32; 4];
        a[0] = f32::NAN;
        let b = vec![0.0f32; 4];
        let mut c = vec![0.0f32; 4];
        gemm(
            &pool,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            2,
            2,
            2,
            &mut c,
        );
        assert!(c[0].is_nan(), "0 · NaN must stay NaN");
        assert!(c[1].is_nan());
        assert!(!c[2].is_nan());
    }
}
