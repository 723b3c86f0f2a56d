//! Figure 7: a stale reference amplifies plasticity fluctuations; periodic
//! updates stabilize the trend.
//!
//! One training run, two plasticity traces of the frontmost module
//! measured per iteration batch: (a) against a reference generated once
//! after bootstrap and never updated, (b) against a reference regenerated
//! every few epochs. The stale trace must show larger high-frequency
//! variation relative to its mean in the later training phase.

use egeria_analysis::sp_loss;
use egeria_bench::experiments::train_epoch;
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_quant::{quantize_reference, Precision};
use egeria_scenarios::registry::{build, recipe, Recipe};

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let epochs = 28;
    let gen_epoch = 4;
    let update_every = 4;
    let mut w = build(&Recipe {
        loader_seed: 33,
        ..recipe("resnet56").expect("registry entry")
    })
    .expect("build");
    let probe = w
        .train
        .materialize(&(0..64.min(w.train.len())).collect::<Vec<_>>())
        .expect("probe");
    let mut stale_ref = None;
    let mut fresh_ref = None;
    let mut rows = Vec::new();
    let mut stale_series = Vec::new();
    let mut fresh_series = Vec::new();
    for epoch in 0..epochs {
        train_epoch(&mut w, epoch).expect("epoch");
        let model = &mut w.model;
        if epoch == gen_epoch {
            stale_ref = Some(quantize_reference(model.as_ref(), Precision::Int8).expect("q"));
            fresh_ref = Some(quantize_reference(model.as_ref(), Precision::Int8).expect("q"));
        } else if epoch > gen_epoch && (epoch - gen_epoch) % update_every == 0 {
            fresh_ref = Some(quantize_reference(model.as_ref(), Precision::Int8).expect("q"));
        }
        if let (Some(s), Some(f)) = (stale_ref.as_mut(), fresh_ref.as_mut()) {
            let act = model.capture_activation(&probe, 0).expect("capture");
            let ps = sp_loss(&act, &s.capture_activation(&probe, 0).expect("s")).expect("sp");
            let pf = sp_loss(&act, &f.capture_activation(&probe, 0).expect("f")).expect("sp");
            stale_series.push(ps);
            fresh_series.push(pf);
            rows.push(format!("{epoch},{ps:.6},{pf:.6}"));
        }
    }
    write_csv(
        &results.path("fig07_reference_update.csv"),
        "epoch,plasticity_stale_reference,plasticity_updated_reference",
        &rows,
    )
    .expect("write fig 7");
    // Report the tail-window fluctuation (mean absolute first difference)
    // for both traces. Absolute, not level-normalized: the updated
    // reference keeps the plasticity *level* near zero by construction, so
    // a relative measure would be meaningless; what Figure 7 shows is the
    // raw wobble a freezing decision has to see through.
    let fluct = |s: &[f32]| {
        let tail = &s[s.len() / 2..];
        let diffs: Vec<f32> = tail.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
        diffs.iter().sum::<f32>() / diffs.len().max(1) as f32
    };
    println!(
        "tail fluctuation (mean |Δ| per epoch): stale {:.6} vs updated {:.6}",
        fluct(&stale_series),
        fluct(&fresh_series)
    );
}
