//! Trainer-level cache oracle: serving the frozen prefix from the
//! activation cache must not change a run at all.
//!
//! Each of the five families trains twice from the same seeds, once with
//! `cache_fp` on and once with it off. The freeze/unfreeze events, every
//! plasticity value and the per-epoch train/validation loss and metric must
//! match bit for bit. `tests/cached_fp_equivalence.rs` pins the same
//! invariant one step at a time; this pins it through the trainer, where
//! hits, promotions across a prefix advance, probe steps that read the
//! cache and invalidations on unfreeze all interleave.
//!
//! The families are the policy matrix's registry entries with the
//! overrides [`families`] lists, chosen so the cache does real work: every
//! cached run must serve at least 30 % of its lookups and promote at least
//! one batch past a prefix advance, or the comparison would be vacuous.
//! ResNet's LR drop thaws a prefix that then refreezes at the same
//! boundary, so a missing invalidation on unfreeze would serve stale
//! entries and fail it.

use egeria_core::trainer::TrainReport;
use egeria_core::EgeriaConfig;
use egeria_scenarios::registry::{build, scenarios, Recipe, Sched, Val};
use std::fmt::Write as _;

/// Long enough past the last freeze for every family's hit ratio to clear
/// 0.3.
const EPOCHS: usize = 24;

/// The scenario entries, probed every other step (`n = 2`) for 24 epochs
/// on loader seed 3 and validated on their own training set, each with the
/// oracle's own `W`, `S`, `T` and, for the CNNs, a later LR milestone than
/// the matrix's.
fn families() -> Vec<Recipe> {
    scenarios()
        .into_iter()
        .map(|entry| {
            let (w, s, t, milestones): (_, _, _, &'static [usize]) = match entry.name {
                "resnet" => (4, 4, 5.0, &[6]),
                "mobilenet" | "deeplab" => (3, 2, 5.0, &[7]),
                "transformer" | "bert_tiny" => (4, 3, 2.5, &[]),
                other => panic!("no oracle config for {other}"),
            };
            let schedule = match entry.schedule {
                Sched::MultiStep { .. } => Sched::MultiStep { milestones },
                other => other,
            };
            Recipe {
                epochs: EPOCHS,
                loader_seed: 3,
                val: Val::Train,
                schedule,
                egeria: entry.egeria.map(|c| EgeriaConfig { n: 2, w, s, t, ..c }),
                ..entry
            }
        })
        .collect()
}

fn train(f: &Recipe, cache_fp: bool) -> TrainReport {
    // Bit-level comparison: pin the scalar ISA (DESIGN §5g).
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let run = Recipe {
        egeria: f.egeria.map(|c| EgeriaConfig { cache_fp, ..c }),
        ..f.clone()
    };
    build(&run).unwrap().train().unwrap()
}

/// Everything the cache must leave alone, as comparable text.
fn trajectory(r: &TrainReport) -> String {
    let bits = |v: Option<f32>| v.map(f32::to_bits);
    let mut out = String::new();
    for e in &r.epochs {
        let _ = writeln!(
            out,
            "epoch {} train {:08x} val {:08x?} metric {:08x?} frozen {}",
            e.epoch,
            e.train_loss.to_bits(),
            bits(e.val_loss),
            bits(e.val_metric),
            e.frozen_prefix
        );
    }
    for ev in &r.events {
        let _ = writeln!(
            out,
            "event iter {} {} prefix {}",
            ev.iteration, ev.kind, ev.prefix
        );
    }
    for p in &r.plasticity {
        let _ = writeln!(
            out,
            "plasticity iter {} module {} raw {:08x} smoothed {:08x}",
            p.iteration,
            p.module,
            p.raw.to_bits(),
            p.smoothed.to_bits()
        );
    }
    out
}

#[test]
fn cache_on_and_off_train_bit_identically_on_every_family() {
    for f in families() {
        let off = train(&f, false);
        let on = train(&f, true);
        assert!(
            on.events.iter().any(|e| e.kind == "freeze"),
            "{}: nothing froze; the oracle would compare nothing",
            f.name
        );
        let s = on.cache_stats;
        let ratio = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
        assert!(ratio >= 0.3, "{}: hit ratio {ratio:.2} ({s:?})", f.name);
        assert!(s.promotions >= 1, "{}: no promotion ({s:?})", f.name);
        assert_eq!(
            off.cache_stats.hits + off.cache_stats.misses,
            0,
            "{}",
            f.name
        );
        assert_eq!(
            trajectory(&off),
            trajectory(&on),
            "{}: cache on vs off",
            f.name
        );
    }
}
