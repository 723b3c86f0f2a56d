//! Cached-FP correctness: serving the frozen prefix from the activation
//! cache must not change training at all.
//!
//! This is the load-bearing §4.3 invariant — a frozen module in eval mode
//! is a pure function of its input, stateless augmentation pins the input
//! per sample id, so the cached boundary activation must reproduce the full
//! forward bit-for-bit, making gradients (and thus the whole training
//! trajectory) identical. Every model family reaches its modules through
//! the one block walk (`nn::Network::forward_range`), so the invariant is
//! checked as one table over all five. The walk runs every frozen block in
//! `Mode::Eval`, which is what keeps a frozen BatchNorm's running statistics
//! still; the families that have BatchNorm pin that too. The same walk
//! carries a stored boundary forward when the prefix advances
//! (`Model::forward_from`), and that promotion is pinned against a fresh
//! capture.

use egeria_models::bert::{BertConfig, BertQa};
use egeria_models::deeplab::{deeplab_v3, DeepLabConfig};
use egeria_models::mobilenet::{mobilenet_v2, MobileNetConfig};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::transformer::{Seq2SeqTransformer, TransformerConfig};
use egeria_models::{Batch, Input, Model, Targets};
use egeria_nn::optim::Sgd;
use egeria_tensor::{Rng, Tensor, TensorError};

fn model() -> impl Model {
    resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        99,
    )
}

fn batch(seed: u64) -> Batch {
    image_batch(seed, 8, 8, 4)
}

fn image_batch(seed: u64, n: usize, side: usize, classes: usize) -> Batch {
    let mut rng = Rng::new(seed);
    Batch {
        input: Input::Image(Tensor::randn(&[n, 3, side, side], &mut rng)),
        targets: Targets::Classes((0..n).map(|i| i % classes).collect()),
        sample_ids: (0..n as u64).collect(),
    }
}

fn token_rows(seed: u64, n: usize, t: usize, vocab: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| (0..t).map(|_| rng.below(vocab)).collect()).collect()
}

/// One family of the table: a fresh-model factory and a per-step batch.
struct Family {
    name: &'static str,
    model: Box<dyn Fn() -> Box<dyn Model>>,
    batch: Box<dyn Fn(u64) -> Batch>,
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "resnet_cifar",
            model: Box::new(|| Box::new(model())),
            batch: Box::new(batch),
        },
        Family {
            name: "mobilenet_v2",
            model: Box::new(|| {
                let cfg = MobileNetConfig {
                    width_div: 8,
                    ..Default::default()
                };
                Box::new(mobilenet_v2(cfg, 3))
            }),
            batch: Box::new(|seed| image_batch(seed, 2, 16, 10)),
        },
        Family {
            name: "deeplab_v3",
            model: Box::new(|| {
                let cfg = DeepLabConfig {
                    stages: vec![1, 1, 1, 1],
                    width: 2,
                    classes: 4,
                    ..Default::default()
                };
                Box::new(deeplab_v3(cfg, 5))
            }),
            batch: Box::new(|seed| {
                let mut b = image_batch(seed, 2, 8, 4);
                b.targets = Targets::Pixels((0..2 * 8 * 8).map(|i| i % 4).collect());
                b
            }),
        },
        Family {
            name: "Seq2SeqTransformer",
            model: Box::new(|| {
                Box::new(Seq2SeqTransformer::new("t", TransformerConfig::tiny(8), 2).unwrap())
            }),
            batch: Box::new(|seed| Batch {
                input: Input::Seq2Seq {
                    src: token_rows(seed, 3, 5, 8),
                    tgt: token_rows(seed + 100, 3, 5, 8),
                },
                targets: Targets::TokenTargets(token_rows(seed + 200, 3, 5, 8)),
                sample_ids: (0..3).collect(),
            }),
        },
        Family {
            name: "BertQa",
            model: Box::new(|| {
                let cfg = BertConfig {
                    vocab: 12,
                    d_model: 8,
                    heads: 2,
                    d_ff: 16,
                    layers: 3,
                };
                Box::new(BertQa::new("bert", cfg, 1).unwrap())
            }),
            batch: Box::new(|seed| Batch {
                input: Input::Tokens(token_rows(seed, 3, 6, 12)),
                targets: Targets::Spans((0..3).map(|i| (i, i + 2)).collect()),
                sample_ids: (0..3).collect(),
            }),
        },
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Asserts two models hold bit-identical parameter values and gradients.
fn assert_same_params(a: &dyn Model, b: &dyn Model, at: &str) {
    for (pa, pb) in a.params().iter().zip(b.params().iter()) {
        assert_eq!(pa.name, pb.name);
        assert_eq!(bits(&pa.value), bits(&pb.value), "{at}: value of {}", pa.name);
        assert_eq!(
            pa.grad.as_ref().map(bits),
            pb.grad.as_ref().map(bits),
            "{at}: gradient of {}",
            pa.name
        );
    }
}

#[test]
fn cached_forward_matches_full_forward_exactly() {
    for family in families() {
        let n = (family.model)().modules().len();
        let mut supported = 0;
        for prefix in 0..=n + 1 {
            let at = format!("{} prefix {prefix}", family.name);
            let mut full = (family.model)();
            let mut cached = (family.model)();
            if !full.supports_cached_fp(prefix) {
                // No single boundary tensor here: a typed error, no panic.
                let b = (family.batch)(0);
                let err = cached.train_step_from(&b, prefix, &Tensor::zeros(&[1]), None);
                assert!(matches!(err, Err(TensorError::AxisOutOfRange { .. })), "{at}");
                continue;
            }
            supported += 1;
            full.freeze_prefix(prefix).unwrap();
            cached.freeze_prefix(prefix).unwrap();
            // The reference path (forward-only, stops at `m`) sees what the
            // training walk captures, for every frozen module.
            let mut probe = (family.model)();
            probe.freeze_prefix(prefix).unwrap();
            let b = (family.batch)(0);
            for m in 0..prefix {
                let hooked = probe.train_step(&b, Some(m)).unwrap().captured.unwrap();
                let reference = probe.capture_activation(&b, m).unwrap();
                assert_eq!(bits(&hooked), bits(&reference), "{at} module {m}");
            }
            let mut opt_a = Sgd::new(0.05, 0.9, 0.0);
            let mut opt_b = Sgd::new(0.05, 0.9, 0.0);
            for step in 0..2 {
                let b = (family.batch)(step);
                // Path A: full forward, capturing the boundary activation.
                let ra = full.train_step(&b, Some(prefix - 1)).unwrap();
                let boundary = ra.captured.clone().unwrap();
                // Path B: resume from the captured activation (the cache path).
                let rb = cached.train_step_from(&b, prefix, &boundary, None).unwrap();
                assert_eq!(ra.loss.to_bits(), rb.loss.to_bits(), "{at} step {step}");
                assert_eq!(ra.modules_backpropped, rb.modules_backpropped, "{at}");
                assert_same_params(full.as_ref(), cached.as_ref(), &at);
                // Weights stay in lockstep.
                opt_a.step(&mut full.params_mut()).unwrap();
                opt_b.step(&mut cached.params_mut()).unwrap();
                full.zero_grad();
                cached.zero_grad();
                assert_same_params(full.as_ref(), cached.as_ref(), &at);
            }
        }
        assert!(supported > 0, "{}: no cacheable prefix was exercised", family.name);
    }
}

#[test]
fn frozen_batchnorm_statistics_hold_through_full_and_cached_steps() {
    // A frozen block runs in `Mode::Eval` inside every training walk, so its
    // BatchNorm normalizes with running statistics and never updates them.
    // That is what keeps a cached activation valid: if a full step moved a
    // frozen module's statistics, the stored output would go stale. A cached
    // step never runs the frozen blocks at all, so it is the oracle.
    let mut checked = Vec::new();
    for family in families() {
        if (family.model)().state_buffers().is_empty() {
            continue; // no BatchNorm in this family
        }
        let n = (family.model)().modules().len();
        for prefix in 1..n {
            let at = format!("{} prefix {prefix}", family.name);
            let mut full = (family.model)();
            let mut cached = (family.model)();
            if !full.supports_cached_fp(prefix) {
                continue;
            }
            full.freeze_prefix(prefix).unwrap();
            cached.freeze_prefix(prefix).unwrap();
            let stats = |m: &dyn Model| -> Vec<Vec<u32>> {
                m.state_buffers().into_iter().map(bits).collect()
            };
            let before = stats(full.as_ref());
            let b = (family.batch)(0);
            full.train_step(&b, None).unwrap();
            let boundary = cached.capture_activation(&b, prefix - 1).unwrap();
            cached.train_step_from(&b, prefix, &boundary, None).unwrap();
            let (after_full, after_cached) = (stats(full.as_ref()), stats(cached.as_ref()));
            // Buffers come in block order: the leading ones the cached step
            // left alone belong to the frozen prefix.
            let frozen = before.iter().zip(&after_cached).take_while(|(a, b)| a == b).count();
            assert!(frozen > 0, "{at}: the frozen prefix holds no BatchNorm");
            assert!(frozen < before.len(), "{at}: no active BatchNorm updated");
            assert_eq!(
                after_full[..frozen],
                before[..frozen],
                "{at}: a full step moved a frozen module's running statistics"
            );
            assert_eq!(after_full, after_cached, "{at}: full and cached steps disagree");
            checked.push(family.name);
        }
    }
    checked.dedup();
    assert_eq!(checked, ["resnet_cifar", "mobilenet_v2", "deeplab_v3"]);
}

#[test]
fn frozen_prefix_output_is_deterministic_across_calls() {
    let mut m = model();
    m.freeze_prefix(1).unwrap();
    let b = batch(7);
    let a1 = m.capture_activation(&b, 0).unwrap();
    // Interleave a training step on the *active* suffix; the frozen
    // prefix's output for the same input must not move.
    let _ = m.train_step(&b, None).unwrap();
    let mut opt = Sgd::new(0.1, 0.0, 0.0);
    opt.step(&mut m.params_mut()).unwrap();
    m.zero_grad();
    let a2 = m.capture_activation(&b, 0).unwrap();
    assert_eq!(a1, a2, "frozen module output drifted after active-layer updates");
}

#[test]
fn unfrozen_module_output_does_move() {
    // Control for the test above: without freezing, the same module's
    // output must change after an update.
    let mut m = model();
    let b = batch(7);
    let a1 = m.capture_activation(&b, 0).unwrap();
    let _ = m.train_step(&b, None).unwrap();
    let mut opt = Sgd::new(0.1, 0.0, 0.0);
    opt.step(&mut m.params_mut()).unwrap();
    m.zero_grad();
    let a2 = m.capture_activation(&b, 0).unwrap();
    assert_ne!(a1, a2);
}

#[test]
fn cache_round_trip_preserves_training_equivalence() {
    // Same as the exact-match test but routing the boundary activation
    // through the real disk cache (serialize → write → read → concat).
    use egeria_core::cache::ActivationCache;
    let dir = std::env::temp_dir().join(format!("egeria_it_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cache = ActivationCache::new(&dir, 4).unwrap();
    let mut m = model();
    let prefix = 1;
    m.freeze_prefix(prefix).unwrap();
    let b = batch(3);
    let r = m.train_step(&b, Some(prefix - 1)).unwrap();
    let boundary = r.captured.unwrap();
    m.zero_grad();
    cache.put_batch(&b.sample_ids, &boundary, prefix).unwrap();
    let loaded = cache.get_batch(&b.sample_ids, prefix).unwrap().unwrap();
    assert_eq!(bits(&loaded), bits(&boundary), "disk round trip altered the activation");
    let r2 = m.train_step_from(&b, prefix, &loaded, None).unwrap();
    assert_eq!(r.loss.to_bits(), r2.loss.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A model that keeps the trait's default `forward_from` (recompute from
/// the batch), to hold each family's override against it.
struct Recompute(Box<dyn Model>);

impl Model for Recompute {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn modules(&self) -> Vec<egeria_models::ModuleMeta> {
        self.0.modules()
    }
    fn frozen_prefix(&self) -> usize {
        self.0.frozen_prefix()
    }
    fn freeze_prefix(&mut self, k: usize) -> egeria_tensor::Result<()> {
        self.0.freeze_prefix(k)
    }
    fn unfreeze_all(&mut self) {
        self.0.unfreeze_all()
    }
    fn train_step(
        &mut self,
        batch: &Batch,
        capture: Option<usize>,
    ) -> egeria_tensor::Result<egeria_models::StepResult> {
        self.0.train_step(batch, capture)
    }
    fn eval_batch(&mut self, batch: &Batch) -> egeria_tensor::Result<egeria_models::EvalResult> {
        self.0.eval_batch(batch)
    }
    fn capture_activation(
        &mut self,
        batch: &Batch,
        module: usize,
    ) -> egeria_tensor::Result<Tensor> {
        self.0.capture_activation(batch, module)
    }
    fn params(&self) -> Vec<&egeria_nn::Parameter> {
        self.0.params()
    }
    fn params_mut(&mut self) -> Vec<&mut egeria_nn::Parameter> {
        self.0.params_mut()
    }
    fn zero_grad(&mut self) {
        self.0.zero_grad()
    }
    fn clone_boxed(&self) -> Box<dyn Model> {
        self.0.clone_boxed()
    }
}

#[test]
fn promotion_matches_a_fresh_boundary_exactly() {
    // The cache's promotion: an entry stored at boundary `k` is carried
    // over modules `k..k2` once the prefix has advanced to `k2`. The
    // modules under it stayed frozen while the ones above trained, so it
    // must equal a boundary captured fresh at `k2`, bit for bit — and the
    // trait default, which recomputes that capture, must agree.
    for family in families() {
        let n = (family.model)().modules().len();
        let b = (family.batch)(0);
        let mut promoted_any = false;
        for k in 0..=n + 1 {
            if !(family.model)().supports_cached_fp(k) {
                let err = (family.model)().forward_from(&b, k, &Tensor::zeros(&[1]), n);
                assert!(
                    matches!(err, Err(TensorError::AxisOutOfRange { .. })),
                    "{} start {k}",
                    family.name
                );
                continue;
            }
            for k2 in k + 1..=n {
                let at = format!("{} {k} -> {k2}", family.name);
                let mut m = (family.model)();
                m.freeze_prefix(k).unwrap();
                let stored = m.capture_activation(&b, k - 1).unwrap();
                // The active modules train on before the prefix advances.
                m.train_step(&(family.batch)(1), None).unwrap();
                Sgd::new(0.1, 0.0, 0.0).step(&mut m.params_mut()).unwrap();
                m.zero_grad();
                if k2 < n {
                    m.freeze_prefix(k2).unwrap();
                }
                let promoted = m.forward_from(&b, k, &stored, k2).unwrap();
                let fresh = m.capture_activation(&b, k2 - 1).unwrap();
                assert_eq!(bits(&promoted), bits(&fresh), "{at}");
                let default = Recompute(m.clone_boxed())
                    .forward_from(&b, k, &stored, k2)
                    .unwrap();
                assert_eq!(bits(&default), bits(&promoted), "{at}: trait default");
                promoted_any = true;
            }
        }
        assert!(promoted_any, "{}: no promotion was exercised", family.name);
    }
}
