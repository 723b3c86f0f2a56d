//! Golden-run fingerprint: a fixed-seed training run must reproduce a
//! pinned loss curve, freezing-decision timeline, and telemetry counter
//! snapshot bit-for-bit.
//!
//! The fingerprint is stored at `tests/golden/run_fingerprint.txt`.
//! Regenerate after an *intentional* numerical change with:
//!
//! ```text
//! EGERIA_BLESS=1 cargo test --test golden_run
//! ```
//!
//! The determinism contract (ROADMAP: bit-identical at any pool size)
//! means this file must validate unchanged under `EGERIA_THREADS=1` and
//! the machine default alike.
//!
//! The fingerprint pins the *scalar-ISA* numerics: vector ISAs use
//! polynomial exp/tanh that are toleranced, not bit-identical, to libm
//! (DESIGN §5g), so the test forces `Isa::Scalar` regardless of the
//! machine's SIMD support or `EGERIA_SIMD`.
//!
//! Both activation-cache backends must reproduce the same file: the
//! chunked store under its lossless codec is bit-exact with the flat one
//! (DESIGN §5j).

use egeria_core::config::CacheStoreKind;
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
use egeria_core::{EgeriaConfig, Telemetry};
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::DataLoader;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Counter prefixes the golden pins. Every probe runs inline on the
/// training thread, so these repeat exactly; pool statistics are
/// scheduling-dependent and deliberately excluded.
const PINNED_COUNTER_PREFIXES: &[&str] = &[
    "cache.hits",
    "cache.misses",
    "cache.promotions",
    "cache.corrupt",
    "cache.write",
    "freezer.",
    "reference.",
];

fn run_fingerprint(cache_store: CacheStoreKind) -> String {
    // Pin the legacy libm numerics: the golden file predates the SIMD layer
    // and must stay valid on any host (DESIGN §5g).
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        7,
    );
    let telemetry = Telemetry::enabled();
    let mut trainer = EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![5])),
        TrainerOptions {
            epochs: 8,
            egeria: Some(EgeriaConfig {
                n: 2,
                w: 3,
                s: 2,
                t: 5.0,
                bootstrap_rate: 0.9,
                reference_update_every: 4,
                cache_store,
                ..Default::default()
            }),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    let data = SyntheticImages::new(
        ImageDataConfig {
            samples: 64,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: true,
        },
        2,
    );
    let loader = DataLoader::new(64, 16, 3, true);
    let report = trainer
        .train(&data, &loader, None)
        .expect("golden run trains");

    let mut out = String::new();
    out.push_str("golden-run fingerprint v1\n");
    for e in &report.epochs {
        let _ = writeln!(
            out,
            "epoch {} loss 0x{:08x} ({:.6}) frozen {}",
            e.epoch,
            e.train_loss.to_bits(),
            e.train_loss,
            e.frozen_prefix
        );
    }
    for ev in &report.events {
        let _ = writeln!(
            out,
            "event iter {} {} prefix {}",
            ev.iteration, ev.kind, ev.prefix
        );
    }
    let snap = telemetry.metrics_snapshot();
    for (name, value) in &snap.counters {
        if PINNED_COUNTER_PREFIXES.iter().any(|p| name.starts_with(p)) {
            let _ = writeln!(out, "counter {name} {value}");
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("run_fingerprint.txt")
}

/// Line-by-line diff so a fingerprint drift is readable in test output.
fn diff_report(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "golden fingerprint mismatch ({} vs {} lines):",
        exp.len(),
        act.len()
    );
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied().unwrap_or("<missing>");
        let a = act.get(i).copied().unwrap_or("<missing>");
        if e != a {
            let _ = writeln!(out, "  line {:>3}: expected | {e}", i + 1);
            let _ = writeln!(out, "           actual   | {a}");
            shown += 1;
            if shown >= 10 {
                let _ = writeln!(out, "  ... further differences elided");
                break;
            }
        }
    }
    let _ = writeln!(
        out,
        "if this change is intentional, regenerate with: EGERIA_BLESS=1 cargo test --test golden_run"
    );
    out
}

fn read_golden(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nfirst run? generate it with: EGERIA_BLESS=1 cargo test --test golden_run",
            path.display()
        )
    })
}

#[test]
fn fixed_seed_run_matches_golden_fingerprint() {
    let actual = run_fingerprint(CacheStoreKind::Chunked);

    // The fingerprint must be reproducible within one process before it is
    // worth comparing across processes.
    let again = run_fingerprint(CacheStoreKind::Chunked);
    assert_eq!(
        actual, again,
        "fingerprint differs between two in-process runs"
    );

    // Sanity: the run must exercise the interesting machinery, or the
    // fingerprint pins nothing.
    assert!(
        actual.contains("event iter"),
        "no freeze events in golden run:\n{actual}"
    );
    assert!(
        actual.contains("counter freezer."),
        "no freezer counters in golden run"
    );
    assert!(
        actual.contains("counter cache."),
        "no cache counters in golden run"
    );

    let path = golden_path();
    if std::env::var("EGERIA_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            actual.lines().count()
        );
        return;
    }
    let expected = read_golden(&path);
    if expected != actual {
        panic!("{}", diff_report(&expected, &actual));
    }
}

/// The flat backend reproduces the chunked default's golden file. It
/// never blesses: the chunked run above owns the file.
#[test]
fn flat_store_run_matches_golden_fingerprint() {
    if std::env::var("EGERIA_BLESS").is_ok() {
        return;
    }
    let actual = run_fingerprint(CacheStoreKind::Flat);
    let expected = read_golden(&golden_path());
    if expected != actual {
        panic!("{}", diff_report(&expected, &actual));
    }
}
