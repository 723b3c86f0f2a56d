//! A convolution call allocates the same number of times at any batch
//! size: the patch matrices and packed operands come from per-thread
//! scratch that is reused from image to image, and the weight is packed
//! once per call (DESIGN §5b "Blocking scheme").
//!
//! One test in its own binary, so the process-wide counting allocator sees
//! only this test's thread (the kernels run inline: every call here is
//! under the pool's dispatch grain) and libtest's main thread parked on the
//! result channel.

use egeria_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, Conv2dSpec};
use egeria_tensor::{Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers every call unchanged to the system allocator; the counter
// touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's ResNet-56 convolutions at width 4 on 10×10 inputs:
/// `(c_in, c_out, extent, kernel, stride, padding)` for the three stages
/// and the two stride-2 transitions with their 1×1 projections.
const LAYERS: [(usize, usize, usize, usize, usize, usize); 7] = [
    (4, 4, 10, 3, 1, 1),
    (4, 8, 10, 3, 2, 1),
    (4, 8, 10, 1, 2, 0),
    (8, 8, 5, 3, 1, 1),
    (8, 16, 5, 3, 2, 1),
    (8, 16, 5, 1, 2, 0),
    (16, 16, 3, 3, 1, 1),
];

/// Inputs of one batch: `(input, weight, grad_out, spec)` per layer.
fn batch(n: usize, rng: &mut Rng) -> Vec<(Tensor, Tensor, Tensor, Conv2dSpec)> {
    LAYERS
        .iter()
        .map(|&(c_in, c_out, hw, k, stride, pad)| {
            let spec = Conv2dSpec::new(stride, pad).unwrap();
            let out = spec.out_extent(hw, k).unwrap();
            (
                Tensor::randn(&[n, c_in, hw, hw], rng),
                Tensor::randn(&[c_out, c_in, k, k], rng),
                Tensor::randn(&[n, c_out, out, out], rng),
                spec,
            )
        })
        .collect()
}

/// Allocations of one forward plus both gradients over every layer.
fn count(layers: &[(Tensor, Tensor, Tensor, Conv2dSpec)]) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for (x, w, g, spec) in layers {
        let y = conv2d(x, w, None, *spec).unwrap();
        let gx = conv2d_grad_input(g, w, x.dims(), *spec).unwrap();
        let gw = conv2d_grad_weight(g, x, w.dims(), *spec).unwrap();
        std::hint::black_box((y, gx, gw));
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn conv_allocations_do_not_grow_with_the_batch() {
    let mut rng = Rng::new(5);
    let one = batch(1, &mut rng);
    let sixteen = batch(16, &mut rng);
    // Warm-up: the global pool, the ISA probe and the scratch buffers.
    count(&sixteen);
    let (at_1, at_16) = (count(&one), count(&sixteen));
    assert_eq!(at_1, at_16, "allocations at n = 1 vs n = 16");
    // A second pass allocates exactly as the first did.
    assert_eq!(count(&sixteen), at_16);
}
