//! Isolated layer probes: one layer's public functions called directly, on
//! shapes taken from the workloads. Each number is the median of at least
//! 30 timed calls after 3 warm-ups.

use crate::stats::{median, percentile};
use crate::workloads::{self, Built, BATCH_SIZE};
use egeria_core::cache::ActivationCache;
use egeria_core::checkpoint::CheckpointStore;
use egeria_core::freezer::FreezingEngine;
use egeria_core::reference::ReferenceManager;
use egeria_core::trainer::EgeriaTrainer;
use egeria_models::{Batch, Model};
use egeria_nn::optim::{Adam, Sgd};
use egeria_obs::Telemetry;
use egeria_quant::{quantize_reference, Precision};
use egeria_serve::{RealClock, ServeConfig, ServeEngine};
use egeria_store::StoreConfig;
use egeria_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, Conv2dSpec};
use egeria_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const WARMUPS: usize = 3;
const CALLS: usize = 30;
const SERVE_CALLS: usize = 200;

/// Seconds of each of `calls` calls of `f`, after the warm-ups.
fn timed<T>(calls: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    for _ in 0..WARMUPS {
        black_box(f());
    }
    (0..calls)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median seconds of a call too short to time alone: each timed sample
/// runs it `inner` times.
fn timed_inner<T>(inner: usize, mut f: impl FnMut() -> T) -> f64 {
    median(&timed(CALLS, || {
        for _ in 0..inner {
            black_box(f());
        }
    })) / inner as f64
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The first batch a workload's trainer would see.
fn first_batch(built: &Built) -> Result<Batch, String> {
    let plan = built.loader.epoch_plan(0);
    built.train.materialize(&plan[0].indices).map_err(err)
}

/// `train_step` at prefix 0 and with half the modules frozen, and
/// `train_step_from` at that prefix; returns the prefix.
fn model_steps(
    out: &mut Vec<(String, f64)>,
    tag: &str,
    model: &mut dyn Model,
    batch: &Batch,
) -> Result<usize, String> {
    let step = |model: &mut dyn Model, f: &mut dyn FnMut(&mut dyn Model) -> Result<(), String>| {
        let mut failed = None;
        let s = median(&timed(CALLS, || {
            if let Err(e) = f(model) {
                failed = Some(e);
            }
            model.zero_grad();
        }));
        failed.map_or(Ok(s * 1e3), Err)
    };
    let full = step(model, &mut |m| {
        m.train_step(batch, None).map(drop).map_err(err)
    })?;
    out.push((format!("models.{tag}_step_full_ms"), full));

    let modules = model.modules().len();
    // The largest prefix up to half the modules that cached FP can resume at.
    let prefix = (1..=modules / 2)
        .rev()
        .find(|&k| model.supports_cached_fp(k))
        .ok_or_else(|| format!("{tag}: no prefix up to {} supports cached FP", modules / 2))?;
    model.freeze_prefix(prefix).map_err(err)?;
    let frozen = step(model, &mut |m| {
        m.train_step(batch, None).map(drop).map_err(err)
    })?;
    out.push((format!("models.{tag}_step_frozen_half_ms"), frozen));

    let boundary = model
        .train_step(batch, Some(prefix - 1))
        .map_err(err)?
        .captured
        .ok_or("capture returned nothing")?;
    model.zero_grad();
    let cached = step(model, &mut |m| {
        m.train_step_from(batch, prefix, &boundary, None)
            .map(drop)
            .map_err(err)
    })?;
    out.push((format!("models.{tag}_step_cached_half_ms"), cached));
    model.unfreeze_all();
    Ok(prefix)
}

fn tensor_probes(out: &mut Vec<(String, f64)>) -> Result<(), String> {
    let mut rng = Rng::new(7);
    // The Transformer's feed-forward product: (batch x len, d_model) by
    // (d_model, d_ff).
    let a = Tensor::randn(&[BATCH_SIZE * 8, 32], &mut rng);
    let b = Tensor::randn(&[32, 64], &mut rng);
    out.push((
        "tensor.matmul_us".into(),
        timed_inner(50, || a.matmul(&b).expect("matmul shapes")) * 1e6,
    ));
    // A first-stage ResNet-56 convolution with its two gradients.
    let x = Tensor::randn(&[BATCH_SIZE, 4, 10, 10], &mut rng);
    let w = Tensor::randn(&[4, 4, 3, 3], &mut rng);
    let spec = Conv2dSpec::new(1, 1).map_err(err)?;
    let y = conv2d(&x, &w, None, spec).map_err(err)?;
    out.push((
        "tensor.conv2d_fwd_bwd_us".into(),
        timed_inner(10, || {
            let y = conv2d(&x, &w, None, spec).expect("conv shapes");
            let gx = conv2d_grad_input(&y, &w, x.dims(), spec).expect("conv shapes");
            let gw = conv2d_grad_weight(&y, &x, w.dims(), spec).expect("conv shapes");
            (gx, gw)
        }) * 1e6,
    ));
    black_box(y);
    Ok(())
}

/// The cache probes on one backend: `rounds` x 20 batches put (the 5-batch
/// memory window is exceeded), the 15 evicted ones read back from disk, the
/// newest read from memory. Returns the live disk bytes per sample.
fn cache_probes(
    out: &mut Vec<(String, f64)>,
    tag: &str,
    mut cache: ActivationCache,
    prefix: usize,
    activations: &[Tensor],
) -> Result<f64, String> {
    let ids = |b: usize| -> Vec<u64> {
        (0..BATCH_SIZE)
            .map(|r| (b * BATCH_SIZE + r) as u64)
            .collect()
    };
    let (mut put, mut get_disk) = (Vec::new(), Vec::new());
    let disk_batches = activations.len() - 5;
    for _ in 0..CALLS.div_ceil(disk_batches) {
        cache.invalidate();
        for (b, act) in activations.iter().enumerate() {
            let start = Instant::now();
            cache.put_batch(&ids(b), act, prefix).map_err(err)?;
            put.push(start.elapsed().as_secs_f64());
        }
        cache.persist().map_err(err)?;
        for (b, act) in activations.iter().enumerate().take(disk_batches) {
            let start = Instant::now();
            let got = cache.get_batch(&ids(b), prefix).map_err(err)?;
            get_disk.push(start.elapsed().as_secs_f64());
            if got.as_ref() != Some(act) {
                return Err(format!(
                    "cache.{tag}: batch {b} did not read back bit-exact"
                ));
            }
        }
    }
    out.push((format!("cache.{tag}_put_ms"), median(&put) * 1e3));
    out.push((format!("cache.{tag}_get_disk_ms"), median(&get_disk) * 1e3));
    let stats = cache.stats();
    if tag == "flat" {
        let newest = activations.len() - 1;
        let mem = timed(CALLS, || cache.get_batch(&ids(newest), prefix));
        out.push(("cache.flat_get_mem_ms".into(), median(&mem) * 1e3));
    }
    if stats.disk_reads == 0 || stats.write_errors != 0 || stats.corrupt_entries != 0 {
        return Err(format!("cache.{tag}: unexpected stats {stats:?}"));
    }
    Ok(stats.disk_bytes_live as f64 / (activations.len() * BATCH_SIZE) as f64)
}

/// Runs every probe; `scratch` is an empty directory of this call's own.
pub fn run(scratch: &Path) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    tensor_probes(&mut out)?;

    let resnet_spec = workloads::spec("resnet56_egeria").expect("known workload");
    let mut resnet = workloads::build(resnet_spec, 1, resnet_spec.epochs, &scratch.join("resnet"))
        .map_err(err)?;
    let resnet_batch = first_batch(&resnet)?;
    let resnet_prefix = model_steps(&mut out, "resnet56", resnet.model.as_mut(), &resnet_batch)?;

    let tf_spec = workloads::spec("transformer_egeria").expect("known workload");
    let mut tf =
        workloads::build(tf_spec, 1, tf_spec.epochs, &scratch.join("transformer")).map_err(err)?;
    let tf_batch = first_batch(&tf)?;
    model_steps(&mut out, "transformer", tf.model.as_mut(), &tf_batch)?;

    // Optimizer updates over the gradients of one step.
    resnet.model.train_step(&resnet_batch, None).map_err(err)?;
    let mut sgd = Sgd::new(0.1, 0.9, 1e-4);
    out.push((
        "nn.sgd_step_us".into(),
        median(&timed(CALLS, || sgd.step(&mut resnet.model.params_mut()))) * 1e6,
    ));
    tf.model.train_step(&tf_batch, None).map_err(err)?;
    let mut adam = Adam::new(4e-3, 0.0);
    out.push((
        "nn.adam_step_us".into(),
        median(&timed(CALLS, || adam.step(&mut tf.model.params_mut()))) * 1e6,
    ));

    // One training batch of each synthetic dataset.
    let image_plan = resnet.loader.epoch_plan(1);
    out.push((
        "data.images_batch_us".into(),
        timed_inner(5, || resnet.train.materialize(&image_plan[0].indices)) * 1e6,
    ));
    let text_plan = tf.loader.epoch_plan(1);
    out.push((
        "data.translation_batch_us".into(),
        timed_inner(5, || tf.train.materialize(&text_plan[0].indices)) * 1e6,
    ));

    // The reference path, on the model that probes every step.
    let bert_spec = workloads::spec("bert_probe").expect("known workload");
    let bert = workloads::build_untrained(bert_spec, bert_spec.epochs, &scratch.join("bert"))
        .map_err(err)?;
    let bert_batch = first_batch(&bert)?;
    let cfg = bert.options.egeria.expect("bert_probe runs Egeria");
    let module = bert.model.modules().len() / 2;
    let mut refmgr = ReferenceManager::new(&cfg);
    out.push((
        "reference.generate_ms".into(),
        median(&timed(CALLS, || refmgr.generate(bert.model.as_ref()))) * 1e3,
    ));
    drop(refmgr);
    let mut reference = quantize_reference(bert.model.as_ref(), Precision::Int8).map_err(err)?;
    let inline = timed(CALLS, || reference.capture_activation(&bert_batch, module));
    out.push(("reference.capture_inline_ms".into(), median(&inline) * 1e3));
    let engine = ServeEngine::new(
        ServeConfig::default(),
        RealClock::shared(),
        Telemetry::disabled(),
    );
    engine
        .publish(bert.model.as_ref(), Precision::Int8)
        .map_err(err)?;
    let mut serve_failed = false;
    let served = timed(SERVE_CALLS, || {
        serve_failed |= engine.probe_blocking(&bert_batch, module).is_err();
    });
    if serve_failed {
        return Err("serve.probe: a probe_blocking call failed".into());
    }
    out.push(("serve.probe_ms_p50".into(), median(&served) * 1e3));
    out.push(("serve.probe_ms_p95".into(), percentile(&served, 0.95) * 1e3));
    drop(engine);

    let a_ref = reference
        .capture_activation(&bert_batch, module)
        .map_err(err)?;
    let a_train = bert
        .model
        .clone_boxed()
        .capture_activation(&bert_batch, module)
        .map_err(err)?;
    out.push((
        "analysis.sp_loss_us".into(),
        timed_inner(5, || egeria_analysis::sp_loss(&a_train, &a_ref)) * 1e6,
    ));

    // A rising plasticity never looks stationary, so the front never moves
    // and every call takes the same path.
    let mut freezer = FreezingEngine::new(bert.model.modules().len(), &cfg);
    let mut p = 1.0f32;
    out.push((
        "freezer.observe_us".into(),
        timed_inner(20, || {
            p += 0.01;
            freezer.observe_value(p, 5e-4)
        }) * 1e6,
    ));

    // The activation cache, on the ResNet-56 half-prefix boundary
    // activation of all 20 training batches.
    let activations = image_plan
        .iter()
        .map(|plan| {
            let batch = resnet.train.materialize(&plan.indices).map_err(err)?;
            resnet
                .model
                .capture_activation(&batch, resnet_prefix - 1)
                .map_err(err)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mem_batches = cfg.cache_mem_batches;
    let flat = ActivationCache::new(scratch.join("flat"), mem_batches).map_err(err)?;
    let flat_bytes = cache_probes(&mut out, "flat", flat, resnet_prefix, &activations)?;
    let chunked =
        ActivationCache::with_store(scratch.join("chunked"), mem_batches, StoreConfig::default())
            .map_err(err)?;
    let chunked_bytes = cache_probes(&mut out, "chunked", chunked, resnet_prefix, &activations)?;
    out.push(("cache.flat_bytes_per_sample".into(), flat_bytes));
    out.push(("cache.chunked_bytes_per_sample".into(), chunked_bytes));

    // A real Transformer checkpoint: two epochs with a save after each.
    let ckpt_epochs = 2;
    let short =
        workloads::build(tf_spec, 1, ckpt_epochs, &scratch.join("ckpt-run")).map_err(err)?;
    let mut options = short.options;
    let dir = options.checkpoint.as_mut().map(|c| {
        c.every = 1;
        c.dir.clone()
    });
    let dir = dir.ok_or("transformer_egeria has no checkpoint options")?;
    let mut trainer = EgeriaTrainer::new(short.model, short.optimizer, short.schedule, options);
    trainer
        .train(
            short.train.as_ref(),
            &short.loader,
            Some((short.val.as_ref(), &short.val_loader)),
        )
        .map_err(err)?;
    let written = CheckpointStore::open(&dir, 2).map_err(err)?;
    let ckpt = written.load_latest().ok_or("no checkpoint to probe with")?;
    let mut store = CheckpointStore::open(scratch.join("ckpt-probe"), 2).map_err(err)?;
    let mut path = None;
    let saves = timed(CALLS, || path = store.save(&ckpt).ok());
    let path = path.ok_or("checkpoint.save failed")?;
    out.push(("checkpoint.save_ms".into(), median(&saves) * 1e3));
    let mut loaded = true;
    let loads = timed(CALLS, || loaded &= store.load_latest().is_some());
    if !loaded {
        return Err("checkpoint.load_latest found nothing".into());
    }
    out.push(("checkpoint.load_ms".into(), median(&loads) * 1e3));
    out.push((
        "checkpoint.bytes".into(),
        std::fs::metadata(&path).map_err(err)?.len() as f64,
    ));
    Ok(out)
}
