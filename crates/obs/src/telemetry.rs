//! The [`Telemetry`] handle the workspace is wired through.
//!
//! `Telemetry::disabled()` is a `None` inside; every call on it reduces to
//! one branch and no allocation, which is what the bench guard in
//! `bench_ops` measures (< 2% disabled-path overhead on `train_step`).
//! Enabled handles share an `Arc`, so cloning into worker threads is cheap
//! and all clones feed one registry and ring.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::trace::{ArgValue, TraceEvent, TraceRecorder};

struct TelemetryInner {
    // Wall-clock epoch for span timestamps. Recording reads the clock;
    // export never does (events carry epoch-relative µs).
    epoch: Instant,
    registry: MetricsRegistry,
    trace: Mutex<TraceRecorder>,
}

/// Shared telemetry handle. Cheap to clone; disabled handles are inert.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// An inert handle — every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_ring_capacity(crate::trace::DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle with an explicit trace-ring capacity.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                epoch: Instant::now(),
                registry: MetricsRegistry::new(),
                trace: Mutex::new(TraceRecorder::with_capacity(capacity)),
            })),
        }
    }

    /// True when this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this handle's epoch (0 when disabled).
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// A counter handle (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// A gauge handle (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// A histogram handle (no-op when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(name),
            None => Histogram::noop(),
        }
    }

    /// Records an instant event (freeze decision, cache outcome…).
    pub fn instant(
        &self,
        kind: &'static str,
        iteration: Option<u64>,
        module: Option<u64>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(i) = &self.inner {
            let ev = TraceEvent {
                kind,
                ts_us: i.epoch.elapsed().as_micros() as u64,
                dur_us: None,
                iteration,
                module,
                args,
            };
            i.trace.lock().expect("trace ring poisoned").record(ev);
        }
    }

    /// Starts a span; recorded when the returned guard drops. For a
    /// disabled handle the guard is inert.
    pub fn span(&self, kind: &'static str) -> Span {
        Span {
            telemetry: self.clone(),
            kind,
            start_us: self.now_us(),
            iteration: None,
            module: None,
            args: Vec::new(),
            active: self.is_enabled(),
        }
    }

    /// Snapshot of all metrics, name-sorted (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Copies out the retained trace events, oldest first, plus the count
    /// of events the ring evicted. Empty/0 when disabled.
    pub fn trace_events(&self) -> (Vec<TraceEvent>, u64) {
        match &self.inner {
            Some(i) => {
                let ring = i.trace.lock().expect("trace ring poisoned");
                (ring.events().cloned().collect(), ring.dropped())
            }
            None => (Vec::new(), 0),
        }
    }
}

/// Drop-guard for an in-progress span. Builder methods attach context;
/// the span is recorded with its measured duration when the guard drops.
pub struct Span {
    telemetry: Telemetry,
    kind: &'static str,
    start_us: u64,
    iteration: Option<u64>,
    module: Option<u64>,
    args: Vec<(&'static str, ArgValue)>,
    active: bool,
}

impl Span {
    /// Tags the span with a training iteration.
    pub fn iteration(mut self, it: u64) -> Self {
        if self.active {
            self.iteration = Some(it);
        }
        self
    }

    /// Tags the span with a layer/module index.
    pub fn module(mut self, m: u64) -> Self {
        if self.active {
            self.module = Some(m);
        }
        self
    }

    /// Attaches an argument.
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        if self.active {
            self.args.push((key, value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        if let Some(i) = &self.telemetry.inner {
            let end_us = i.epoch.elapsed().as_micros() as u64;
            let ev = TraceEvent {
                kind: self.kind,
                ts_us: self.start_us,
                dur_us: Some(end_us.saturating_sub(self.start_us)),
                iteration: self.iteration,
                module: self.module,
                args: std::mem::take(&mut self.args),
            };
            i.trace.lock().expect("trace ring poisoned").record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.counter("c").inc();
        t.instant("x", Some(1), None, vec![]);
        {
            let _s = t.span("s").iteration(1).arg("k", 2u64);
        }
        assert!(!t.is_enabled());
        assert!(t.metrics_snapshot().counters.is_empty());
        assert_eq!(t.trace_events().0.len(), 0);
    }

    #[test]
    fn span_guard_records_on_drop_with_context() {
        let t = Telemetry::enabled();
        {
            let _s = t
                .span("train_step")
                .iteration(7)
                .module(3)
                .arg("frozen_prefix", 2u64)
                .arg("sp", 0.5f64)
                .arg("outcome", "hit");
        }
        t.instant("freeze_decision", Some(7), Some(2), vec![("sp", ArgValue::F64(0.1))]);
        let (events, dropped) = t.trace_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2);
        let span = &events[0];
        assert_eq!(span.kind, "train_step");
        assert!(span.dur_us.is_some());
        assert_eq!(span.iteration, Some(7));
        assert_eq!(span.module, Some(3));
        assert_eq!(span.args.len(), 3);
        let inst = &events[1];
        assert_eq!(inst.kind, "freeze_decision");
        assert_eq!(inst.dur_us, None);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t2.counter("shared").add(5);
        assert_eq!(t.metrics_snapshot().counter("shared"), Some(5));
    }
}
