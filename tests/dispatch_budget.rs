//! Dispatch budget of the benchmark's workloads, as a count that repeats
//! exactly: at the shapes `benchmark/` trains, no kernel call is worth a
//! worker wake-up, so a train step and an eval batch of every workload
//! family must leave the global pool's `jobs` counter at zero — and a
//! 512³ matmul, which is worth it, must be exactly one dispatch.
//!
//! One test, its own binary: the global pool's counters belong to this
//! process alone, and `EGERIA_THREADS` can be set before the pool's first
//! use without racing another test.

use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::qa::{QaDataConfig, SyntheticQa};
use egeria_data::translation::{SyntheticTranslation, TranslationConfig};
use egeria_data::Dataset;
use egeria_models::bert::{BertConfig, BertQa};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::transformer::{Seq2SeqTransformer, TransformerConfig};
use egeria_models::Model;
use egeria_tensor::{Rng, Tensor, ThreadPool};

const BATCH: usize = 16;

fn step_and_eval(model: &mut dyn Model, data: &dyn Dataset) {
    let indices: Vec<usize> = (0..BATCH).collect();
    let batch = data.materialize(&indices).unwrap();
    model.train_step(&batch, None).unwrap();
    model.eval_batch(&batch).unwrap();
}

#[test]
fn benchmark_shapes_dispatch_nothing_and_a_large_matmul_dispatches_once() {
    // A multi-thread pool whatever the host has, so "zero jobs" is the
    // grain rule's doing and not a 1-thread pool's.
    std::env::set_var("EGERIA_THREADS", "2");
    let pool = ThreadPool::global();
    assert_eq!(pool.threads(), 2);

    // resnet56_nofreeze / resnet56_egeria.
    let mut resnet = resnet_cifar(
        ResNetCifarConfig {
            n: 9,
            width: 4,
            classes: 8,
            ..Default::default()
        },
        1,
    );
    let images = SyntheticImages::new(
        ImageDataConfig {
            samples: BATCH,
            classes: 8,
            size: 10,
            noise: 0.5,
            augment: false,
        },
        2,
    );
    step_and_eval(&mut resnet, &images);

    // transformer_egeria.
    let mut transformer =
        Seq2SeqTransformer::new("transformer_base", TransformerConfig::base(16), 1).unwrap();
    let pairs = SyntheticTranslation::new(
        TranslationConfig {
            samples: BATCH,
            vocab: 16,
            len: 8,
        },
        6,
    );
    step_and_eval(&mut transformer, &pairs);

    // bert_probe.
    let mut bert = BertQa::new(
        "bert_base",
        BertConfig {
            vocab: 24,
            d_model: 24,
            heads: 4,
            d_ff: 48,
            layers: 12,
        },
        1,
    )
    .unwrap();
    let qa = SyntheticQa::new(
        QaDataConfig {
            samples: BATCH,
            vocab: 24,
            len: 16,
            answer_len: 3,
        },
        8,
    );
    step_and_eval(&mut bert, &qa);

    let s = pool.stats();
    assert_eq!(s.jobs, 0, "a benchmark-shaped step woke the workers: {s:?}");
    assert!(s.small_jobs > 0, "no multi-task job reached the grain rule: {s:?}");

    let mut rng = Rng::new(3);
    let a = Tensor::randn(&[512, 512], &mut rng);
    let b = Tensor::randn(&[512, 512], &mut rng);
    a.matmul(&b).unwrap();
    assert_eq!(pool.stats().jobs, 1, "a 512³ matmul is one dispatch");
}
