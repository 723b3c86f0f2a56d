//! Deterministic serialization of traces and metric snapshots.
//!
//! Two formats from the same data:
//!
//! - **JSONL** ([`export_jsonl`]): one JSON object per line — a `meta`
//!   header, one `span`/`instant` line per event, then one `metrics` line
//!   holding the final snapshot. This is what `trace_report` and the CI
//!   schema validator consume.
//! - **Chrome trace** ([`export_chrome_trace`]): a `trace_event` array
//!   loadable in `about://tracing` or Perfetto; spans become `"X"` events
//!   on a per-module track.
//!
//! Export must stay deterministic: no wall-clock reads, no hash-ordered
//! collections — metric maps are name-sorted vectors and float formatting
//! uses Rust's shortest-roundtrip `Display`.

use std::fmt::Write as _;

use crate::jsonl::write_string;
use crate::metrics::MetricsSnapshot;
use crate::telemetry::Telemetry;
use crate::trace::{ArgValue, TraceEvent};

/// Schema version stamped into the `meta` line; bump when the line shape
/// changes so `trace_report` can reject traces it does not understand.
pub const SCHEMA_VERSION: u64 = 1;

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let mut num = format!("{v}");
        // `Display` prints integral floats without a fractional part
        // ("2"); keep them float-typed in JSON for schema stability.
        if !num.contains(['.', 'e', 'E']) {
            num.push_str(".0");
        }
        out.push_str(&num);
    } else {
        // JSON has no NaN/Inf; encode as null so parsers stay strict.
        out.push_str("null");
    }
}

fn push_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        ArgValue::I64(i) => {
            let _ = write!(out, "{i}");
        }
        ArgValue::F64(f) => push_f64(out, *f),
        ArgValue::Str(s) => write_string(out, s),
        ArgValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn push_args_object(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, k);
        out.push(':');
        push_arg_value(out, v);
    }
    out.push('}');
}

fn push_event_line(out: &mut String, ev: &TraceEvent) {
    let ty = if ev.dur_us.is_some() { "span" } else { "instant" };
    let _ = write!(out, "{{\"type\":\"{ty}\",\"kind\":");
    write_string(out, ev.kind);
    let _ = write!(out, ",\"ts_us\":{}", ev.ts_us);
    if let Some(d) = ev.dur_us {
        let _ = write!(out, ",\"dur_us\":{d}");
    }
    if let Some(it) = ev.iteration {
        let _ = write!(out, ",\"iteration\":{it}");
    }
    if let Some(m) = ev.module {
        let _ = write!(out, ",\"module\":{m}");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":");
        push_args_object(out, &ev.args);
    }
    out.push('}');
}

fn push_metrics_line(out: &mut String, snap: &MetricsSnapshot) {
    out.push_str("{\"type\":\"metrics\",\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, name);
        out.push(':');
        push_f64(out, *v);
    }
    out.push_str("},\"histograms\":[");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_string(out, &h.name);
        let _ = write!(out, ",\"count\":{},\"sum\":{},\"buckets\":[", h.count, h.sum);
        for (j, (bucket, n)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bucket},{n}]");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Serializes a telemetry handle's trace and final metrics snapshot as
/// JSONL. Line 1 is a `meta` header; event lines follow in ring order;
/// the last line is the `metrics` snapshot. A disabled handle exports a
/// valid trace with zero events.
pub fn export_jsonl(telemetry: &Telemetry) -> String {
    let (events, dropped) = telemetry.trace_events();
    let snap = telemetry.metrics_snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"schema_version\":{SCHEMA_VERSION},\"events\":{},\"dropped\":{dropped}}}",
        events.len()
    );
    for ev in &events {
        push_event_line(&mut out, ev);
        out.push('\n');
    }
    push_metrics_line(&mut out, &snap);
    out.push('\n');
    out
}

/// Serializes the trace as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`). Spans map to `"X"` complete events and
/// instants to `"i"`; the module index becomes the thread track so a
/// per-layer timeline renders as stacked rows.
pub fn export_chrome_trace(telemetry: &Telemetry) -> String {
    let (events, _) = telemetry.trace_events();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_string(&mut out, ev.kind);
        let tid = ev.module.unwrap_or(0);
        match ev.dur_us {
            Some(d) => {
                let _ = write!(
                    out,
                    ",\"ph\":\"X\",\"ts\":{},\"dur\":{d},\"pid\":1,\"tid\":{tid}",
                    ev.ts_us
                );
            }
            None => {
                let _ = write!(
                    out,
                    ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid}",
                    ev.ts_us
                );
            }
        }
        out.push_str(",\"args\":");
        let mut args: Vec<(&'static str, ArgValue)> = ev.args.clone();
        if let Some(it) = ev.iteration {
            args.push(("iteration", ArgValue::U64(it)));
        }
        push_args_object(&mut out, &args);
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ArgValue;

    #[test]
    fn jsonl_has_meta_events_and_metrics_lines() {
        let t = Telemetry::enabled();
        t.counter("cache.hits").add(2);
        t.gauge("pool.occupancy").set(0.75);
        t.histogram("step_us").observe(100);
        {
            let _s = t.span("train_step").iteration(0).arg("frozen_prefix", 1u64);
        }
        t.instant("freeze_decision", Some(0), Some(2), vec![("sp", ArgValue::F64(0.25))]);
        let jsonl = export_jsonl(&t);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"kind\":\"train_step\""));
        assert!(lines[2].contains("\"type\":\"instant\""));
        assert!(lines[2].contains("\"sp\":0.25"));
        assert!(lines[3].contains("\"cache.hits\":2"));
        assert!(lines[3].contains("\"pool.occupancy\":0.75"));
        assert!(lines[3].contains("\"step_us\""));
    }

    #[test]
    fn integral_floats_stay_float_typed() {
        let t = Telemetry::enabled();
        t.gauge("g").set(2.0);
        let jsonl = export_jsonl(&t);
        assert!(jsonl.contains("\"g\":2.0"), "{jsonl}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let t = Telemetry::enabled();
        t.gauge("bad").set(f64::NAN);
        let jsonl = export_jsonl(&t);
        assert!(jsonl.contains("\"bad\":null"), "{jsonl}");
    }

    #[test]
    fn chrome_trace_uses_module_as_track() {
        let t = Telemetry::enabled();
        {
            let _s = t.span("fwd").module(3);
        }
        t.instant("mark", None, None, vec![]);
        let doc = export_chrome_trace(&t);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"tid\":3"));
        assert!(doc.contains("\"ph\":\"i\""));
    }
}
