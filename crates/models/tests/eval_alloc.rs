//! An inference walk holds nothing once it returns: `eval_batch`,
//! `eval_batch_from` and `capture_activation` run every layer in
//! `Mode::Eval`, which keeps no backward context (the `Layer` contract), so
//! the live heap after any of them is what it was before plus the returned
//! tensor. A reference copy that only ever runs these walks therefore stays
//! parameter-sized between probes, and a trained model's validation pass
//! releases the activations its last training step left behind.
//!
//! Measured on the three families the end-to-end benchmark trains, at its
//! shapes (batch 16; ResNet-56 at width 4 on 10×10 images, Transformer-Base
//! over 16 tokens of length 8, the 12-block BERT over 24 tokens of length
//! 16).
//!
//! One test in its own binary, so the process-wide live-bytes counter sees
//! only this test's thread (every kernel here is under the pool's dispatch
//! grain and runs inline) and libtest's main thread parked on the result
//! channel.

use egeria_models::bert::{BertConfig, BertQa};
use egeria_models::input::{Batch, Input, Targets};
use egeria_models::model::Model;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::transformer::{Seq2SeqTransformer, TransformerConfig};
use egeria_tensor::{Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// `realloc` keeps its default, which goes through `alloc` and `dealloc`
// and so is counted too.
// SAFETY: defers every call unchanged to the system allocator; the counter
// touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap growth a walk may leave behind besides what it returns. A single
/// kept activation of the smallest model is larger than this (BERT's
/// `16 × 16 × 24` floats are 24 KiB); a full set is megabytes.
const SLACK: isize = 4 << 10;

const BATCH: usize = 16;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// Live bytes `f` leaves allocated beyond the tensor it returns.
fn retained(f: impl FnOnce() -> Option<Tensor>) -> isize {
    let before = live();
    let out = f();
    let returned = out.as_ref().map_or(0, |t| {
        (std::mem::size_of_val(t.data()) + std::mem::size_of_val(t.dims())) as isize
    });
    let grown = live() - before;
    drop(out);
    grown - returned
}

fn resnet() -> (Box<dyn Model>, Batch) {
    let cfg = ResNetCifarConfig {
        n: 9,
        width: 4,
        classes: 8,
        ..Default::default()
    };
    let mut rng = Rng::new(1);
    let batch = Batch {
        input: Input::Image(Tensor::randn(&[BATCH, 3, 10, 10], &mut rng)),
        targets: Targets::Classes((0..BATCH).map(|i| i % 8).collect()),
        sample_ids: (0..BATCH as u64).collect(),
    };
    (Box::new(resnet_cifar(cfg, 1)), batch)
}

fn transformer() -> (Box<dyn Model>, Batch) {
    let model = Seq2SeqTransformer::new("t", TransformerConfig::base(16), 1).unwrap();
    let src: Vec<Vec<usize>> =
        (0..BATCH).map(|i| (0..8).map(|j| (i + 3 * j) % 16).collect()).collect();
    let targets = src.iter().map(|s| s.iter().map(|&x| (x + 1) % 16).collect()).collect();
    let batch = Batch {
        input: Input::Seq2Seq {
            tgt: src.clone(),
            src,
        },
        targets: Targets::TokenTargets(targets),
        sample_ids: (0..BATCH as u64).collect(),
    };
    (Box::new(model), batch)
}

fn bert() -> (Box<dyn Model>, Batch) {
    let cfg = BertConfig {
        vocab: 24,
        d_model: 24,
        heads: 4,
        d_ff: 48,
        layers: 12,
    };
    let model = BertQa::new("b", cfg, 1).unwrap();
    let tokens = (0..BATCH).map(|i| (0..16).map(|j| (i + 5 * j) % 24).collect()).collect();
    let batch = Batch {
        input: Input::Tokens(tokens),
        targets: Targets::Spans((0..BATCH).map(|i| (i % 12, i % 12 + 3)).collect()),
        sample_ids: (0..BATCH as u64).collect(),
    };
    (Box::new(model), batch)
}

#[test]
fn inference_walks_retain_no_activations() {
    for build in [resnet, transformer, bert] {
        let (mut model, batch) = build();
        let name = model.name().to_string();
        let modules = model.modules().len();
        model.train_step(&batch, None).unwrap();
        model.zero_grad();
        // Warm-up on a throwaway copy: per-thread kernel scratch and the
        // global pool reach their size at these shapes here, not below.
        let mut warm = model.clone_boxed();
        warm.eval_batch(&batch).unwrap();
        for m in 0..modules {
            warm.capture_activation(&batch, m).unwrap();
        }
        drop(warm);

        // Fresh copies, as the reference model is: one validated, one
        // probed at every module.
        let mut copy = model.clone_boxed();
        let kept = retained(|| {
            copy.eval_batch(&batch).unwrap();
            None
        });
        assert!(kept <= SLACK, "{name}: eval_batch on a copy kept {kept} bytes");
        let mut copy = model.clone_boxed();
        for m in 0..modules {
            let kept = retained(|| Some(copy.capture_activation(&batch, m).unwrap()));
            assert!(kept <= SLACK, "{name}: capture at module {m} kept {kept} bytes");
        }
        // Validation resumed from a stored boundary keeps nothing either.
        let boundary = copy.capture_activation(&batch, 0).unwrap();
        let kept = retained(|| {
            copy.eval_batch_from(&batch, 1, &boundary).unwrap();
            None
        });
        assert!(kept <= SLACK, "{name}: eval_batch_from on a copy kept {kept} bytes");

        // The trained model: validation drops what the training step kept.
        let kept = retained(|| {
            model.eval_batch(&batch).unwrap();
            None
        });
        assert!(kept < -SLACK, "{name}: eval_batch after a train step kept {kept} bytes");
    }
}
