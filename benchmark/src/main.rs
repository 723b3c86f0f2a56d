//! The Egeria trainer's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! egeria-benchmark run [--workload W]... [--runs N] [--seed N] [--out FILE] [--smoke]
//! egeria-benchmark probes
//! egeria-benchmark compare A.json B.json
//! egeria-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is the one `BENCHMARK.json` names: one workload, and one
//! JSON object as the last line of standard output.

use egeria_benchmark::child::{self, ChildArgs};
use egeria_benchmark::harness::{self, Plan, Runs, WorkloadResult};
use egeria_benchmark::json::Obj;
use egeria_benchmark::metrics::{self, END_TO_END};
use egeria_benchmark::workloads::{self, Spec, SPECS};
use egeria_benchmark::{compare, probes};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  egeria-benchmark run [--workload W]... [--runs N] [--seed N] [--out FILE] [--smoke]
  egeria-benchmark probes
  egeria-benchmark compare A.json B.json
  egeria-benchmark --workload W --seed N --seconds S --trace 0|1";

/// `--key value` pairs and bare `--flag`s, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if bare.contains(&key) {
                out.push((key.to_string(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.push((key.to_string(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn all(&self, key: &str) -> impl Iterator<Item = &str> + '_ {
        let key = key.to_string();
        self.0
            .iter()
            .filter(move |(k, _)| *k == key)
            .filter_map(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.all(key)
            .last()
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{key}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn spec_named(name: &str) -> Result<&'static Spec, String> {
    workloads::spec(name).ok_or_else(|| {
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })
}

fn run_probes() -> Result<Vec<(String, f64)>, String> {
    let scratch = harness::out_dir()
        .join("tmp")
        .join(format!("{}-probes", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let result = probes::run(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let found = result?;
    // In the order of the metric table, and nothing missing.
    metrics::PROBES
        .iter()
        .map(|(name, _, _)| {
            found
                .iter()
                .find(|(n, _)| n == name)
                .cloned()
                .ok_or_else(|| format!("probe {name} was not measured"))
        })
        .collect()
}

/// `run`: every workload (or the named ones), `--runs` untraced runs and
/// one traced run each, then the probes.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["workload", "runs", "seed", "out", "smoke"])?;
    let smoke = flags.has("smoke");
    let plan = Plan {
        seed: flags.number("seed")?.unwrap_or(1),
        smoke,
        runs: Runs::Count(if smoke {
            1
        } else {
            flags.number("runs")?.unwrap_or(3).max(1)
        }),
        traced: true,
    };
    let mut specs = flags
        .all("workload")
        .map(spec_named)
        .collect::<Result<Vec<_>, _>>()?;
    if specs.is_empty() {
        specs = SPECS.iter().collect();
    }
    let out = flags
        .all("out")
        .last()
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            harness::out_dir().join(if smoke { "smoke.json" } else { "results.json" })
        });

    println!(
        "egeria-benchmark: seed {}{}  {}",
        plan.seed,
        if smoke {
            " (smoke: a tenth of the epochs, outputs checked for errors only)"
        } else {
            ""
        },
        harness::host_facts()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut results: Vec<WorkloadResult> = Vec::new();
    for spec in specs {
        println!("\n{}: {}", spec.name, spec.why);
        let r = harness::measure(spec, &plan);
        harness::print_workload(&r);
        let attribution = harness::out_dir().join(format!("{}.attribution.txt", spec.name));
        if let Ok(table) = std::fs::read_to_string(attribution) {
            print!("{table}");
        }
        results.push(r);
    }
    println!("\n== isolated probes ==");
    let probes = match run_probes() {
        Ok(p) => {
            harness::print_layers(&p);
            Some(p)
        }
        Err(e) => {
            println!("  FAILED: {e}");
            None
        }
    };

    let (attempted, failed) = results
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    println!("\n{failed} failed of {attempted} training runs attempted");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let text = harness::results_json(&plan, &results, probes.as_deref().unwrap_or(&[]));
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("-> wrote {}", out.display());
    Ok(failed == 0 && probes.is_some())
}

/// The `BENCHMARK.json` form: one workload; the result is the last line.
fn cmd_drive(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    let name = flags
        .all("workload")
        .last()
        .ok_or("--workload is required")?;
    let spec = spec_named(name)?;
    let seconds: f64 = flags.number("seconds")?.ok_or("--seconds is required")?;
    let traced = match flags.all("trace").last() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: cannot read {other:?}")),
    };
    let plan = Plan {
        seed: flags.number("seed")?.ok_or("--seed is required")?,
        smoke: false,
        // The traced form needs the untraced time only for the overhead.
        runs: if traced {
            Runs::Count(1)
        } else {
            Runs::Seconds(seconds)
        },
        traced,
    };
    let r = harness::measure(spec, &plan);
    harness::print_workload(&r);
    let mut correct = r.failed == 0;

    let mut metrics = Obj::default();
    let metric = |value: f64, unit: &str| {
        Obj::default()
            .num("value", value)
            .str("unit", unit)
            .finish()
    };
    if traced {
        let probes = match run_probes() {
            Ok(p) => p,
            Err(e) => {
                println!("  FAILED: probes: {e}");
                return Ok(false);
            }
        };
        harness::print_layers(&probes);
        for (name, unit, _) in metrics::per_layer() {
            let value = r.per_layer.iter().chain(&probes).find(|(n, _)| n == name);
            let Some((_, value)) = value else {
                println!("  FAILED: per-layer metric {name} was not measured");
                return Ok(false);
            };
            correct &= value.is_finite();
            metrics = metrics.raw(name, &metric(*value, unit));
        }
    } else {
        if r.end_to_end.is_empty() {
            return Ok(false);
        }
        for (m, s) in END_TO_END.iter().zip(&r.end_to_end) {
            metrics = metrics.raw(m.name, &metric(s.median(), m.unit));
        }
    }
    println!(
        "{}",
        Obj::default()
            .bool("correct", correct)
            .int("attempted", r.attempted as u64)
            .int("failed", r.failed as u64)
            .raw("metrics", &metrics.finish())
            .finish()
    );
    Ok(true)
}

/// The internal form a parent starts: one training run.
fn cmd_child(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke", "traced"])?;
    flags.only(&[
        "workload",
        "seed",
        "scratch",
        "artefacts",
        "smoke",
        "traced",
    ])?;
    let args = ChildArgs {
        spec: spec_named(
            flags
                .all("workload")
                .last()
                .ok_or("--workload is required")?,
        )?,
        seed: flags.number("seed")?.ok_or("--seed is required")?,
        smoke: flags.has("smoke"),
        traced: flags.has("traced"),
        scratch: flags
            .all("scratch")
            .last()
            .map(PathBuf::from)
            .ok_or("--scratch is required")?,
        artefacts: flags.all("artefacts").last().map(PathBuf::from),
    };
    println!("{}", child::run(&args));
    Ok(true)
}

fn main() -> ExitCode {
    // Threads = nproc, ISA auto, default cache, serve and policy settings:
    // no knob of the caller's shell reaches a measured run. Nothing else
    // runs yet, so changing the environment is safe here.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EGERIA_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("probes") => run_probes().map(|p| {
            harness::print_layers(&p);
            true
        }),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("child") => cmd_child(&args[1..]),
        Some(first) if first.starts_with("--") => cmd_drive(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("egeria-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
