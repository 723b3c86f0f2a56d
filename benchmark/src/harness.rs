//! The parent side: one fresh child process per training run, strictly
//! one after another, and the aggregation of what they report.

use crate::json::{self, Obj};
use crate::metrics::{self, END_TO_END};
use crate::stats::median;
use crate::workloads::Spec;
use egeria_obs::jsonl::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `benchmark/out`: scratch directories and the traced run's artefacts.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// How the untraced runs of one workload are counted.
#[derive(Debug, Clone, Copy)]
pub enum Runs {
    /// Exactly this many.
    Count(usize),
    /// Until the runs' `train_s` add up to this many seconds.
    Seconds(f64),
}

/// Runs of one workload are never more than this, whatever `Seconds` asks.
const MAX_RUNS: usize = 16;

pub struct Plan {
    pub seed: u64,
    pub smoke: bool,
    pub runs: Runs,
    /// Whether to add one traced run (for the per-layer metrics).
    pub traced: bool,
}

/// One end-to-end metric over the untraced runs of a workload.
pub struct Summary {
    pub values: Vec<f64>,
}

impl Summary {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Everything measured on one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    /// Training runs started, traced one included.
    pub attempted: usize,
    /// Runs that broke one of the correctness conditions.
    pub failed: usize,
    pub failures: Vec<String>,
    pub loss_fingerprint: String,
    /// By `END_TO_END` order; empty when no untraced run gave numbers.
    pub end_to_end: Vec<Summary>,
    /// In-situ per-layer metrics of the traced run.
    pub per_layer: Vec<(String, f64)>,
    /// Facts of the first run: thread count, sample counts, events.
    pub run_facts: Vec<(&'static str, String)>,
}

static CHILD_SERIAL: AtomicUsize = AtomicUsize::new(0);

/// Runs one child to completion and parses its JSON line.
fn spawn_child(spec: &Spec, plan: &Plan, traced: bool) -> Result<Value, String> {
    let scratch = out_dir().join("tmp").join(format!(
        "{}-{}",
        std::process::id(),
        CHILD_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", spec.name])
        .args(["--seed", &plan.seed.to_string()])
        .arg("--scratch")
        .arg(&scratch);
    if plan.smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--traced").arg("--artefacts").arg(out_dir());
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"));
    let _ = std::fs::remove_dir_all(&scratch);
    let output = output?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    parse(line).map_err(|e| format!("child output is not JSON ({e}): {line:?}"))
}

fn failures_of(run: &Value) -> Vec<String> {
    run.get("failures")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_else(|| vec!["child reported no failure list".into()])
}

fn num(run: &Value, key: &str) -> Option<f64> {
    run.get(key).and_then(Value::as_f64)
}

/// Measures one workload: the untraced runs, then the traced one.
pub fn measure(spec: &'static Spec, plan: &Plan) -> WorkloadResult {
    let mut result = WorkloadResult {
        name: spec.name,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        loss_fingerprint: String::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        run_facts: Vec::new(),
    };
    // Untraced runs that gave numbers, whether or not they passed the checks:
    // a failed run is counted in `failed`, and its numbers are still shown.
    let mut timed: Vec<Value> = Vec::new();
    let mut measured_s = 0.0;

    let record = |result: &mut WorkloadResult, traced: bool| -> Option<Value> {
        result.attempted += 1;
        let (run, mut failures) = match spawn_child(spec, plan, traced) {
            Ok(run) => {
                let failures = failures_of(&run);
                (Some(run), failures)
            }
            Err(e) => (None, vec![e]),
        };
        if let Some(run) = &run {
            let fp = run
                .get("loss_fingerprint")
                .and_then(Value::as_str)
                .unwrap_or("");
            if result.loss_fingerprint.is_empty() {
                result.loss_fingerprint = fp.to_string();
            } else if fp != result.loss_fingerprint {
                failures.push(format!(
                    "loss_fingerprint {fp} differs from {} of an earlier run",
                    result.loss_fingerprint
                ));
            }
        }
        let numbers = run.filter(|run| {
            END_TO_END
                .iter()
                .all(|m| num(run, m.name).is_some_and(|v| v > 0.0))
        });
        if numbers.is_none() {
            failures.push("an end-to-end metric is missing or not positive".into());
        }
        if !failures.is_empty() {
            result.failed += 1;
            let label = if traced { "traced run" } else { "run" };
            for f in failures {
                result
                    .failures
                    .push(format!("{} {label} {}: {f}", spec.name, result.attempted));
            }
        }
        numbers
    };

    loop {
        let enough = match plan.runs {
            Runs::Count(n) => result.attempted >= n,
            Runs::Seconds(s) => result.attempted >= 1 && measured_s >= s,
        };
        if enough || result.attempted >= MAX_RUNS {
            break;
        }
        match record(&mut result, false) {
            Some(run) => {
                measured_s += num(&run, "train_s").unwrap_or(0.0);
                timed.push(run);
            }
            // A run that dies is not repeated until the time is used up.
            None if matches!(plan.runs, Runs::Seconds(_)) => break,
            None => {}
        }
    }
    let traced_run = if plan.traced {
        record(&mut result, true)
    } else {
        None
    };

    if !timed.is_empty() {
        result.end_to_end = END_TO_END
            .iter()
            .map(|m| Summary {
                values: timed.iter().filter_map(|r| num(r, m.name)).collect(),
            })
            .collect();
    }
    if let Some(run) = timed.first().or(traced_run.as_ref()) {
        for key in [
            "pool_threads",
            "epochs",
            "setup_samples",
            "step_samples",
            "step_samples_beyond_p95",
            "tta_epoch",
            "freezes",
            "cache_hits",
        ] {
            if let Some(v) = run.get(key).and_then(Value::as_u64) {
                result.run_facts.push((key, v.to_string()));
            }
        }
        if let Some(s) = run.get("simd").and_then(Value::as_str) {
            result.run_facts.push(("simd", s.to_string()));
        }
    }
    if let Some(run) = &traced_run {
        if let Some(layers) = run.get("layers").and_then(Value::as_obj) {
            result.per_layer = layers
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect();
        }
        // Tracing overhead: the traced run against the untraced median.
        let train_idx = END_TO_END.iter().position(|m| m.name == "train_s");
        if let (Some(traced_s), Some(i), false) =
            (num(run, "train_s"), train_idx, result.end_to_end.is_empty())
        {
            let overhead = 100.0 * (traced_s / result.end_to_end[i].median() - 1.0);
            result
                .per_layer
                .push(("obs.trace_overhead_pct".into(), overhead));
        }
        if result.per_layer.len() != metrics::IN_SITU.len() {
            result.failed += 1;
            result.failures.push(format!(
                "{}: traced run gave {} of {} per-layer metrics",
                spec.name,
                result.per_layer.len(),
                metrics::IN_SITU.len()
            ));
        }
    }
    result
}

/// Facts about the host that a number depends on.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("simd", egeria_tensor::simd::detect().name().to_string()),
        ("rustc", rustc),
        ("os", std::env::consts::OS.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
    ]
}

/// Prints one workload's end-to-end table and, if traced, its layers.
pub fn print_workload(r: &WorkloadResult) {
    println!(
        "\n== {} ==  attempted {} failed {}  loss_fingerprint {}  {}",
        r.name,
        r.attempted,
        r.failed,
        r.loss_fingerprint,
        r.run_facts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    if !r.end_to_end.is_empty() {
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>3}  {:<10} {:>6}",
            "end-to-end", "median", "min", "max", "n", "unit", "bound"
        );
        for (m, s) in END_TO_END.iter().zip(&r.end_to_end) {
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>3}  {:<10} {:>5.0}%",
                m.name,
                s.median(),
                s.min(),
                s.max(),
                s.values.len(),
                m.unit,
                100.0 * m.bound
            );
        }
    }
    if !r.per_layer.is_empty() {
        println!("  per-layer (in situ, one traced run)");
        print_layers(&r.per_layer);
    }
}

pub fn print_layers(layers: &[(String, f64)]) {
    for (name, value) in layers {
        println!(
            "  {name:<40} {value:>16.4}  {}",
            metrics::unit_of(name).unwrap_or("")
        );
    }
}

fn pairs_json(pairs: &[(&'static str, String)]) -> String {
    pairs
        .iter()
        .fold(Obj::default(), |o, (k, v)| o.str(k, v))
        .finish()
}

fn layers_json(layers: &[(String, f64)]) -> String {
    layers
        .iter()
        .fold(Obj::default(), |o, (k, v)| o.num(k, *v))
        .finish()
}

/// The result file `compare` reads.
pub fn results_json(plan: &Plan, workloads: &[WorkloadResult], probes: &[(String, f64)]) -> String {
    let workloads = workloads.iter().map(|r| {
        let mut e2e = Obj::default();
        for (m, s) in END_TO_END.iter().zip(&r.end_to_end) {
            e2e = e2e.raw(
                m.name,
                &Obj::default()
                    .num("median", s.median())
                    .num("min", s.min())
                    .num("max", s.max())
                    .int("n", s.values.len() as u64)
                    .str("unit", m.unit)
                    .raw(
                        "values",
                        &json::array(s.values.iter().map(|v| v.to_string())),
                    )
                    .finish(),
            );
        }
        Obj::default()
            .str("name", r.name)
            .int("attempted", r.attempted as u64)
            .int("failed", r.failed as u64)
            .raw(
                "failures",
                &json::array(r.failures.iter().map(|f| json::string(f))),
            )
            .str("loss_fingerprint", &r.loss_fingerprint)
            .raw("run", &pairs_json(&r.run_facts))
            .raw("end_to_end", &e2e.finish())
            .raw("per_layer", &layers_json(&r.per_layer))
            .finish()
    });
    Obj::default()
        .int("schema", 1)
        .int("seed", plan.seed)
        .bool("smoke", plan.smoke)
        .raw("host", &pairs_json(&host_facts()))
        .raw("workloads", &json::array(workloads))
        .raw("probes", &layers_json(probes))
        .finish()
}
