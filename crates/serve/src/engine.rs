//! The [`ServeEngine`]: admission control, dispatch, and the
//! forward-execution worker pool.
//!
//! Topology (one engine):
//!
//! ```text
//!  submit() ──try_send──▶ bounded submission queue ──▶ dispatcher thread
//!      │ (Full ⇒ Overloaded shed)                        │ drives BatcherCore
//!      ▼                                                 ▼
//!  ProbeTicket ◀──reply channel── worker pool ◀── bounded work queue
//! ```
//!
//! - Admission is non-blocking: a full submission queue sheds the request
//!   with [`ServeError::Overloaded`] instead of stalling the trainer.
//! - The dispatcher owns the [`BatcherCore`] and turns its policy
//!   decisions (flush-on-full / flush-on-deadline / shed-on-overflow)
//!   into work items. All policy time comes from the engine's [`Clock`].
//! - Workers clone a private executor per snapshot version (models carry
//!   scratch state, so the published master is never mutated) and run
//!   each group through [`exec::execute_group`], which is bit-identical
//!   to singleton execution by construction.
//! - Expired deadlines are failed with [`ServeError::DeadlineExceeded`]
//!   *before* execution, so a late probe never burns a forward.
//! - Dropping the engine resolves every still-pending ticket with
//!   [`ServeError::Shutdown`] and joins its threads with a bounded wait.
//!
//! Every executed group emits one `serve_batch` span (module, snapshot
//! version, request count, coalesced rows, queue wait) plus `serve.*`
//! counters/histograms; `trace_report` renders these in its serving
//! section.

use crate::batcher::{BatcherCore, Push, ReadyBatch};
use crate::error::{ServeError, ServeResult};
use crate::exec;
use crate::snapshot::{ModelSnapshot, SnapshotRegistry};
use crate::ServeConfig;
use egeria_models::model::Model;
use egeria_models::{Batch, Input};
use egeria_obs::telemetry::Telemetry;
use egeria_quant::model::Precision;
use egeria_resil::clock::Clock;
use egeria_resil::fault::{FaultInjector, FaultSite};
use egeria_resil::health::HealthMonitor;
use egeria_resil::lock;
use egeria_resil::supervise::Watchdog;
use egeria_tensor::{Tensor, TensorError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One plasticity-probe inference request.
pub struct ProbeRequest {
    /// The input batch to run forward (eval mode).
    pub batch: Batch,
    /// Which module boundary's activation to capture.
    pub module: usize,
    /// Optional per-request deadline, measured from admission; expired
    /// requests fail with [`ServeError::DeadlineExceeded`] without
    /// executing. `None` falls back to the engine's default deadline.
    pub deadline: Option<Duration>,
}

/// A completed probe.
#[derive(Debug)]
pub struct ProbeResponse {
    /// The captured activation for this request's rows only.
    pub activation: Tensor,
    /// Snapshot version the probe executed against.
    pub snapshot_version: u64,
    /// Precision of that snapshot.
    pub precision: Precision,
    /// How many requests were coalesced into the executed batch.
    pub batch_size: usize,
    /// Time spent between admission and execution start (µs).
    pub queue_wait_us: u64,
    /// Execution time of the (possibly coalesced) forward (µs).
    pub exec_us: u64,
}

/// A handle to a submitted probe; resolves exactly once.
pub struct ProbeTicket {
    rx: Receiver<ServeResult<ProbeResponse>>,
}

impl ProbeTicket {
    /// Blocks until the probe resolves. A torn-down engine resolves as
    /// [`ServeError::Shutdown`].
    pub fn wait(self) -> ServeResult<ProbeResponse> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(ServeError::Shutdown),
        }
    }
}

/// Coalescing key: requests group only when batched execution is exactly
/// equivalent to singleton execution *and* mergeable (same snapshot
/// version, same module, same per-sample image geometry, same target
/// kind). Ragged inputs get a unique key so they never group.
#[derive(Clone, PartialEq)]
enum GroupKey {
    Image {
        version: u64,
        module: usize,
        sample_dims: Vec<usize>,
        target_kind: u8,
    },
    Singleton(u64),
}

struct PendingProbe {
    batch: Batch,
    module: usize,
    snapshot: Arc<ModelSnapshot>,
    submitted_us: u64,
    deadline_us: Option<u64>,
    reply: SyncSender<ServeResult<ProbeResponse>>,
}

enum Msg {
    // Boxed so the channel slots (and `Flush`) don't carry the full
    // probe payload inline.
    Probe(GroupKey, Box<PendingProbe>),
    Flush,
}

/// Shared state a worker needs to replace itself when it dies. Bundled
/// behind an `Arc` so the panic guard running on the dying thread can
/// respawn (or declare exhaustion) without a reference to the engine.
struct WorkerCtx {
    /// The work queue's one receiver, shared by every worker: an idle
    /// worker parks in `recv` holding the lock, and the rest queue on it.
    work_rx: Mutex<Receiver<ReadyBatch<GroupKey, PendingProbe>>>,
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
    faults: Option<Arc<FaultInjector>>,
    /// Respawn budget, shared by every worker death however detected.
    watchdog: Watchdog,
    /// Workers currently believed alive (spawned minus guard exits).
    live: AtomicUsize,
    /// Set once the last worker has died with the respawn budget spent.
    /// From then on nothing can ever drain the work queue, so the
    /// dispatcher fails groups instead of enqueueing them and `submit`
    /// sheds at admission.
    exhausted: AtomicBool,
    /// Serializes the dispatcher's queue pushes against the exhaustion
    /// drain: every enqueue happens gate-held after an `exhausted`
    /// check, and the drain sets the flag gate-held before draining, so
    /// no batch can slip into the queue behind the drain and strand its
    /// tickets.
    dispatch_gate: Mutex<()>,
    /// Join handles for every worker spawned so far (initial or
    /// respawned by a dying sibling). Finished entries are reaped by
    /// [`ServeEngine::supervise`].
    handles: Mutex<Vec<JoinHandle<()>>>,
    seq: AtomicUsize,
}

/// Spawns one worker thread wired to `ctx` and registers its handle.
/// Increments `live` up front; the worker's guard decrements it on exit.
fn spawn_worker(ctx: &Arc<WorkerCtx>) -> std::io::Result<()> {
    let i = ctx.seq.fetch_add(1, Ordering::Relaxed);
    ctx.live.fetch_add(1, Ordering::SeqCst);
    let c = Arc::clone(ctx);
    match std::thread::Builder::new()
        .name(format!("egeria-serve-worker-{i}"))
        .spawn(move || {
            let guard = WorkerGuard { ctx: c };
            worker_loop(&guard.ctx);
        }) {
        Ok(h) => {
            lock(&ctx.handles).push(h);
            Ok(())
        }
        Err(e) => {
            ctx.live.fetch_sub(1, Ordering::SeqCst);
            Err(e)
        }
    }
}

/// Runs on every worker exit. A normal exit (work queue disconnected at
/// shutdown) just drops the liveness count. A panic — an injected
/// [`FaultSite::PoolTaskPanic`] or a real defect outside the execution
/// catch region — self-heals from the dying thread itself: it respawns
/// a replacement under the watchdog budget, so batches already queued
/// behind the fatal one still execute. When the budget is spent and
/// this was the last worker, it instead fails every queued batch and
/// flags the engine exhausted. Tickets must always resolve: the
/// reference manager blocks on them and falls back inline only once
/// they fail, so a stranded batch would hang training forever.
struct WorkerGuard {
    ctx: Arc<WorkerCtx>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let ctx = &self.ctx;
        if !std::thread::panicking() {
            ctx.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        ctx.telemetry.counter("serve.worker_panics").inc();
        ctx.telemetry.counter("serve.worker_deaths").inc();
        // Heal before decrementing `live`, so a granted respawn never
        // exposes a transient zero to a sibling guard's exhaustion
        // check.
        if ctx.watchdog.request_respawn() && spawn_worker(ctx).is_ok() {
            ctx.telemetry.counter("serve.worker_respawns").inc();
            ctx.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let live = ctx.live.fetch_sub(1, Ordering::SeqCst) - 1;
        if live == 0 {
            // No worker is left, so none is parked in `recv` holding the
            // receiver: this lock cannot wait on one.
            let _g = lock(&ctx.dispatch_gate);
            ctx.exhausted.store(true, Ordering::SeqCst);
            let work_rx = lock(&ctx.work_rx);
            while let Ok(rb) = work_rx.try_recv() {
                for p in rb.requests {
                    let _ = p.reply.send(Err(ServeError::Shutdown));
                }
            }
        }
    }
}

/// The serving engine. See the module docs for the topology.
pub struct ServeEngine {
    registry: Arc<SnapshotRegistry>,
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
    default_deadline: Option<Duration>,
    submit_tx: Option<SyncSender<Msg>>,
    queued: Arc<AtomicUsize>,
    singleton_seq: AtomicU64,
    dispatcher: Option<JoinHandle<()>>,
    worker_ctx: Arc<WorkerCtx>,
    faults: Option<Arc<FaultInjector>>,
}

impl ServeEngine {
    /// Builds an engine with its dispatcher and worker threads running.
    /// The engine starts with an empty [`SnapshotRegistry`]; probes fail
    /// with [`ServeError::NoSnapshot`] until a model is published.
    pub fn new(cfg: ServeConfig, clock: Arc<dyn Clock>, telemetry: Telemetry) -> Self {
        Self::with_faults(cfg, clock, telemetry, None, None)
    }

    /// [`new`](Self::new) plus resilience wiring: an optional fault
    /// injector (consulted at the [`FaultSite::ServeAdmission`],
    /// [`FaultSite::ServeExecute`], and [`FaultSite::PoolTaskPanic`]
    /// sites) and an optional health monitor fed by the worker watchdog.
    pub fn with_faults(
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
        faults: Option<Arc<FaultInjector>>,
        health: Option<Arc<HealthMonitor>>,
    ) -> Self {
        let registry = Arc::new(SnapshotRegistry::new());
        let (submit_tx, submit_rx) = sync_channel::<Msg>(cfg.queue_depth.max(1));
        let workers_n = cfg.workers.max(1);
        let (work_tx, work_rx) = sync_channel::<ReadyBatch<GroupKey, PendingProbe>>(workers_n * 2);
        let queued = Arc::new(AtomicUsize::new(0));

        let mut worker_watchdog =
            Watchdog::new("serve-worker", cfg.worker_respawn_budget, telemetry.clone());
        if let Some(h) = health {
            worker_watchdog =
                worker_watchdog.with_health(h, "serve-worker-respawn-budget-exhausted");
        }
        let worker_ctx = Arc::new(WorkerCtx {
            work_rx: Mutex::new(work_rx),
            clock: Arc::clone(&clock),
            telemetry: telemetry.clone(),
            faults: faults.clone(),
            watchdog: worker_watchdog,
            live: AtomicUsize::new(0),
            exhausted: AtomicBool::new(false),
            dispatch_gate: Mutex::new(()),
            handles: Mutex::new(Vec::with_capacity(workers_n)),
            seq: AtomicUsize::new(0),
        });
        for _ in 0..workers_n {
            spawn_worker(&worker_ctx).expect("spawn serve worker");
        }

        let dispatcher = {
            let clock = Arc::clone(&clock);
            let telemetry = telemetry.clone();
            let queued = Arc::clone(&queued);
            let ctx = Arc::clone(&worker_ctx);
            let max_batch = cfg.max_batch.max(1);
            let max_wait_us = cfg.max_wait.as_micros() as u64;
            let pending_budget = cfg.queue_depth.max(1) * 2;
            std::thread::Builder::new()
                .name("egeria-serve-dispatch".into())
                .spawn(move || {
                    dispatcher_loop(
                        submit_rx,
                        work_tx,
                        ctx,
                        clock,
                        telemetry,
                        queued,
                        max_batch,
                        max_wait_us,
                        pending_budget,
                    )
                })
                .expect("spawn serve dispatcher")
        };

        ServeEngine {
            registry,
            clock,
            telemetry,
            default_deadline: cfg.default_deadline,
            submit_tx: Some(submit_tx),
            queued,
            singleton_seq: AtomicU64::new(0),
            dispatcher: Some(dispatcher),
            worker_ctx,
            faults,
        }
    }

    /// The snapshot registry this engine serves from (shared with the
    /// trainer, which publishes into it).
    pub fn registry(&self) -> Arc<SnapshotRegistry> {
        Arc::clone(&self.registry)
    }

    /// Quantizes and publishes `model` as the next snapshot version.
    pub fn publish(&self, model: &dyn Model, precision: Precision) -> ServeResult<u64> {
        let v = self.registry.publish(model, precision, self.clock.as_ref())?;
        self.telemetry.counter("serve.snapshots_published").inc();
        Ok(v)
    }

    /// Publishes a model already at serving precision.
    pub fn publish_prequantized(&self, model: Box<dyn Model>, precision: Precision) -> u64 {
        let v = self
            .registry
            .publish_prequantized(model, precision, self.clock.as_ref());
        self.telemetry.counter("serve.snapshots_published").inc();
        v
    }

    /// Admits a probe. Non-blocking: a full submission queue sheds with
    /// [`ServeError::Overloaded`]; no published snapshot fails with
    /// [`ServeError::NoSnapshot`].
    pub fn submit(&self, req: ProbeRequest) -> ServeResult<ProbeTicket> {
        let tx = self.submit_tx.as_ref().ok_or(ServeError::Shutdown)?;
        // Workers exhausted (the last one died with the respawn budget
        // spent): nothing can ever execute a probe again, so shed at
        // admission rather than minting a ticket that can only resolve
        // Shutdown at dispatch.
        if self.worker_ctx.exhausted.load(Ordering::SeqCst) {
            return Err(ServeError::Shutdown);
        }
        let snapshot = self.registry.latest().ok_or(ServeError::NoSnapshot)?;
        let now = self.clock.now_us();
        let deadline = req.deadline.or(self.default_deadline);
        let deadline_us = deadline.map(|d| now + d.as_micros() as u64);
        let key = self.group_key(&req, snapshot.version());
        let (reply_tx, reply_rx) = sync_channel(1);
        let probe = PendingProbe {
            batch: req.batch,
            module: req.module,
            snapshot,
            submitted_us: now,
            deadline_us,
            reply: reply_tx,
        };
        self.telemetry.counter("serve.requests").inc();
        // Injected admission failure: behaves exactly like a full queue
        // (counted as a shed, typed as Overloaded) so callers exercise
        // their real fallback path.
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::ServeAdmission) {
                self.telemetry.counter("serve.shed").inc();
                return Err(ServeError::Overloaded {
                    queue_depth: self.queued.load(Ordering::Relaxed),
                });
            }
        }
        // Count before sending: the dispatcher decrements on receipt, so
        // incrementing after a successful send could race below zero.
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        match tx.try_send(Msg::Probe(key, Box::new(probe))) {
            Ok(()) => {
                self.telemetry.gauge("serve.queue_depth").set(depth as f64);
                Ok(ProbeTicket { rx: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                self.telemetry.counter("serve.shed").inc();
                Err(ServeError::Overloaded {
                    queue_depth: self.queued.load(Ordering::Relaxed),
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                Err(ServeError::Shutdown)
            }
        }
    }

    /// Asks the dispatcher to flush every pending group now, regardless
    /// of batch size or deadline. Blocks for queue space if the
    /// submission queue is momentarily full: a dropped flush would leave
    /// already-admitted probes waiting out their full `max_wait`, which
    /// under a stalled virtual clock (or an hour-scale `max_wait`) is
    /// forever. The dispatcher always drains, so the wait is bounded.
    pub fn flush(&self) {
        if let Some(tx) = &self.submit_tx {
            let _ = tx.send(Msg::Flush);
        }
    }

    /// Submits, flushes, and waits: the synchronous path the reference
    /// manager uses for its own probes.
    pub fn probe_blocking(&self, batch: &Batch, module: usize) -> ServeResult<ProbeResponse> {
        let ticket = self.submit(ProbeRequest {
            batch: batch.clone(),
            module,
            deadline: None,
        })?;
        self.flush();
        ticket.wait()
    }

    /// Reaps finished worker threads, absorbing their panic payloads.
    /// Returns how many were reaped. Respawning is not supervision's
    /// job: a panicking worker heals itself through its panic guard
    /// (see `WorkerGuard`) before the caller can even observe the
    /// failure, so queued batches behind the fatal one still execute.
    /// This is bookkeeping the reference manager runs on its fallback
    /// path to keep the handle list tight.
    pub fn supervise(&self) -> usize {
        let mut handles = lock(&self.worker_ctx.handles);
        let mut reaped = 0;
        let mut live = Vec::with_capacity(handles.len());
        for h in handles.drain(..) {
            if h.is_finished() {
                let _ = h.join();
                reaped += 1;
            } else {
                live.push(h);
            }
        }
        *handles = live;
        reaped
    }

    /// How many worker threads are registered (dead-but-unreaped workers
    /// count until the next [`supervise`](Self::supervise); a freshly
    /// respawned replacement counts alongside the corpse it replaced).
    pub fn worker_count(&self) -> usize {
        lock(&self.worker_ctx.handles).len()
    }

    fn group_key(&self, req: &ProbeRequest, version: u64) -> GroupKey {
        match &req.batch.input {
            Input::Image(t) if t.rank() >= 1 => GroupKey::Image {
                version,
                module: req.module,
                sample_dims: t.shape().dims()[1..].to_vec(),
                target_kind: target_kind(&req.batch),
            },
            _ => GroupKey::Singleton(self.singleton_seq.fetch_add(1, Ordering::Relaxed)),
        }
    }
}

impl Drop for ServeEngine {
    /// Bounded shutdown: pending tickets resolve with
    /// [`ServeError::Shutdown`], dispatched work drains, and threads are
    /// joined with a bounded wait (detach rather than hang the trainer).
    fn drop(&mut self) {
        // Disconnect the submission queue; the dispatcher drains it, fails
        // still-pending probes with Shutdown, and closes the work queue.
        self.submit_tx = None;
        let mut handles: Vec<JoinHandle<()>> = self.dispatcher.take().into_iter().collect();
        handles.append(&mut lock(&self.worker_ctx.handles));
        for h in handles {
            // ~1.5 s bound per thread without reading the wall clock.
            let mut spins = 0u32;
            while !h.is_finished() && spins < 300 {
                std::thread::sleep(Duration::from_millis(5));
                spins += 1;
            }
            if h.is_finished() {
                let _ = h.join();
            } else {
                eprintln!("egeria-serve: thread unresponsive at shutdown; detaching");
            }
        }
    }
}

fn target_kind(batch: &Batch) -> u8 {
    match &batch.targets {
        egeria_models::Targets::Classes(_) => 0,
        egeria_models::Targets::Pixels(_) => 1,
        egeria_models::Targets::TokenTargets(_) => 2,
        egeria_models::Targets::Spans(_) => 3,
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatcher_loop(
    submit_rx: Receiver<Msg>,
    work_tx: SyncSender<ReadyBatch<GroupKey, PendingProbe>>,
    ctx: Arc<WorkerCtx>,
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
    queued: Arc<AtomicUsize>,
    max_batch: usize,
    max_wait_us: u64,
    pending_budget: usize,
) {
    let mut batcher: BatcherCore<GroupKey, PendingProbe> =
        BatcherCore::new(max_batch, max_wait_us, pending_budget);
    let shed = telemetry.counter("serve.shed");
    let depth_gauge = telemetry.gauge("serve.queue_depth");
    let dispatch = |rb: ReadyBatch<GroupKey, PendingProbe>| {
        // Enqueue under the gate so a push can never race the exhaustion
        // drain (see `WorkerCtx::dispatch_gate`): a batch is either
        // queued before the drain (and drained there) or pushed after
        // the flag check (and failed here). `try_send` keeps the gate
        // non-blocking; a full queue backs off outside it — bounded
        // backpressure onto the batcher, never unbounded buffering.
        let mut rb = rb;
        loop {
            {
                let _g = lock(&ctx.dispatch_gate);
                if ctx.exhausted.load(Ordering::SeqCst) {
                    for p in rb.requests {
                        let _ = p.reply.send(Err(ServeError::Shutdown));
                    }
                    return;
                }
                match work_tx.try_send(rb) {
                    Ok(()) => return,
                    Err(TrySendError::Full(b)) => rb = b,
                    Err(TrySendError::Disconnected(b)) => {
                        for p in b.requests {
                            let _ = p.reply.send(Err(ServeError::Shutdown));
                        }
                        return;
                    }
                }
            }
            // Liveness pacing while the queue is full, not policy time:
            // deliberately the wall clock, like the bounded shutdown
            // joins, so a stalled virtual clock cannot wedge dispatch.
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    loop {
        let msg = match batcher.next_flush_us() {
            None => match submit_rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break,
            },
            Some(due) => {
                let now = clock.now_us();
                if now >= due {
                    None
                } else {
                    // The timeout is a wakeup hint; the flush decision
                    // below is made on the engine clock, so a virtual
                    // clock stays authoritative. Capped so a stalled
                    // virtual clock re-checks promptly.
                    let wait = (due - now).min(5_000);
                    match submit_rx.recv_timeout(Duration::from_micros(wait)) {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        };
        match msg {
            Some(Msg::Probe(key, probe)) => {
                queued.fetch_sub(1, Ordering::Relaxed);
                match batcher.push(key, *probe, clock.now_us()) {
                    Push::Queued => {}
                    Push::Ready(rb) => dispatch(rb),
                    Push::Shed(probe, pending) => {
                        shed.inc();
                        let _ = probe
                            .reply
                            .send(Err(ServeError::Overloaded { queue_depth: pending }));
                    }
                }
            }
            Some(Msg::Flush) => {
                for rb in batcher.flush_all() {
                    dispatch(rb);
                }
            }
            None => {}
        }
        for rb in batcher.poll(clock.now_us()) {
            dispatch(rb);
        }
        depth_gauge.set((queued.load(Ordering::Relaxed) + batcher.pending()) as f64);
    }
    // Shutdown: whatever is still pending never executes.
    for rb in batcher.flush_all() {
        for p in rb.requests {
            let _ = p.reply.send(Err(ServeError::Shutdown));
        }
    }
    // Dropping work_tx lets the workers drain and exit.
}

fn worker_loop(ctx: &WorkerCtx) {
    let WorkerCtx { work_rx, clock, telemetry, faults, .. } = ctx;
    // Executor clones keyed by snapshot version; models carry scratch
    // state, so the published master is never run directly. Capped so a
    // publish-heavy trainer can't accumulate stale clones.
    let mut executors: BTreeMap<u64, Box<dyn Model>> = BTreeMap::new();
    let batches = telemetry.counter("serve.batches");
    let coalesced = telemetry.counter("serve.batches_coalesced");
    let responses = telemetry.counter("serve.responses");
    let errors = telemetry.counter("serve.errors");
    let missed = telemetry.counter("serve.deadline_missed");
    let batch_size_h = telemetry.histogram("serve.batch_size");
    let queue_wait_h = telemetry.histogram("serve.queue_wait_us");
    let exec_h = telemetry.histogram("serve.exec_us");

    loop {
        // A statement of its own, so the receiver lock is released before
        // the batch executes and a sibling can take the next one.
        let next = lock(work_rx).recv();
        let Ok(rb) = next else { break };
        // Injected worker death: the panic is deliberately *outside* the
        // execution catch region, so the thread dies, this batch's reply
        // senders drop (tickets resolve Shutdown → callers fall back
        // inline), and the panic guard must heal or drain (see
        // [`WorkerGuard`]).
        if let Some(f) = faults {
            if f.should_fail(FaultSite::PoolTaskPanic) {
                panic!("injected serve worker panic");
            }
        }
        let now = clock.now_us();
        let mut live = Vec::with_capacity(rb.requests.len());
        for p in rb.requests {
            match p.deadline_us {
                Some(d) if now > d => {
                    missed.inc();
                    let _ = p.reply.send(Err(ServeError::DeadlineExceeded {
                        waited_us: now.saturating_sub(p.submitted_us),
                    }));
                }
                _ => live.push(p),
            }
        }
        let Some(first) = live.first() else { continue };
        let snapshot = Arc::clone(&first.snapshot);
        let version = snapshot.version();
        let module = first.module;
        let executor = executors
            .entry(version)
            .or_insert_with(|| snapshot.clone_executor());

        let parts: Vec<&Batch> = live.iter().map(|p| &p.batch).collect();
        let rows: usize = parts.iter().map(|b| b.sample_ids.len()).sum();
        let leader_wait = now.saturating_sub(rb.formed_at_us.min(now));
        let t0 = clock.now_us();
        let mut merged = false;
        let injected_exec_failure = faults
            .as_ref()
            .is_some_and(|f| f.should_fail(FaultSite::ServeExecute));
        let result = if injected_exec_failure {
            Err(ServeError::Model(TensorError::Io(
                "injected serve execution failure".into(),
            )))
        } else {
            let _span = telemetry
                .span("serve_batch")
                .module(module as u64)
                .arg("version", version)
                .arg("requests", live.len())
                .arg("rows", rows)
                .arg("queue_wait_us", leader_wait);
            // A panicking executor clone must not take the worker thread
            // (and every queued batch behind it) down with it: contain
            // the panic at the execution boundary and fail the batch
            // with a typed error instead.
            match catch_unwind(AssertUnwindSafe(|| {
                exec::execute_group(executor.as_mut(), module, &parts, &mut merged)
            })) {
                Ok(r) => r,
                Err(_) => {
                    telemetry.counter("serve.exec_panics").inc();
                    Err(ServeError::WorkerPanic)
                }
            }
        };
        let exec_us = clock.now_us().saturating_sub(t0);
        batches.inc();
        if merged {
            coalesced.inc();
        }
        batch_size_h.observe(live.len() as u64);
        exec_h.observe(exec_us);

        let request_count = live.len();
        match result {
            Ok(acts) => {
                for (p, act) in live.into_iter().zip(acts) {
                    let wait = t0.saturating_sub(p.submitted_us);
                    queue_wait_h.observe(wait);
                    responses.inc();
                    let _ = p.reply.send(Ok(ProbeResponse {
                        activation: act,
                        snapshot_version: version,
                        precision: snapshot.precision(),
                        batch_size: request_count,
                        queue_wait_us: wait,
                        exec_us,
                    }));
                }
            }
            Err(e) => {
                // A failed executor clone may be wedged; rebuild next use.
                executors.remove(&version);
                for p in live {
                    errors.inc();
                    let _ = p.reply.send(Err(e.clone()));
                }
            }
        }
        // Evict the oldest versions beyond the cache cap.
        while executors.len() > 2 {
            let oldest = *executors.keys().next().expect("non-empty");
            executors.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_resil::clock::RealClock;
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
    use egeria_models::Targets;
    use egeria_tensor::Rng;

    fn model() -> impl Model {
        resnet_cifar(
            ResNetCifarConfig { n: 2, width: 4, classes: 4, ..Default::default() },
            99,
        )
    }

    fn image_batch(seed: u64, n: usize) -> Batch {
        let mut rng = Rng::new(seed);
        Batch {
            input: Input::Image(Tensor::randn(&[n, 3, 8, 8], &mut rng)),
            targets: Targets::Classes((0..n).map(|i| i % 4).collect()),
            sample_ids: (0..n as u64).map(|i| seed * 100 + i).collect(),
        }
    }

    fn engine(cfg: ServeConfig) -> ServeEngine {
        ServeEngine::new(cfg, RealClock::shared(), Telemetry::disabled())
    }

    #[test]
    fn probe_without_snapshot_fails_typed() {
        let e = engine(ServeConfig::default());
        let err = e.probe_blocking(&image_batch(1, 2), 0).unwrap_err();
        assert_eq!(err, ServeError::NoSnapshot);
    }

    #[test]
    fn probe_blocking_matches_inline_capture() {
        let e = engine(ServeConfig::default());
        let m = model();
        e.publish(&m, Precision::Int8).unwrap();
        let batch = image_batch(5, 3);
        let resp = e.probe_blocking(&batch, 1).unwrap();
        assert_eq!(resp.snapshot_version, 1);
        assert_eq!(resp.precision, Precision::Int8);
        let mut inline = egeria_quant::model::quantize_reference(&m, Precision::Int8).unwrap();
        let want = inline.capture_activation(&batch, 1).unwrap();
        assert_eq!(resp.activation.data(), want.data());
    }

    #[test]
    fn probes_execute_against_their_admission_snapshot() {
        let e = engine(ServeConfig { max_batch: 4, ..ServeConfig::default() });
        let m = model();
        e.publish(&m, Precision::F32).unwrap();
        let t = e
            .submit(ProbeRequest { batch: image_batch(2, 2), module: 0, deadline: None })
            .unwrap();
        // Publish a new version while the first probe is still queued.
        e.publish(&m, Precision::F32).unwrap();
        e.flush();
        assert_eq!(t.wait().unwrap().snapshot_version, 1);
        assert_eq!(e.probe_blocking(&image_batch(2, 2), 0).unwrap().snapshot_version, 2);
    }

    #[test]
    fn expired_deadline_fails_without_executing() {
        let e = engine(ServeConfig::default());
        e.publish(&model(), Precision::F32).unwrap();
        let t = e
            .submit(ProbeRequest {
                batch: image_batch(3, 1),
                module: 0,
                deadline: Some(Duration::from_micros(0)),
            })
            .unwrap();
        // Let real time pass so the zero deadline is unambiguously gone.
        std::thread::sleep(Duration::from_millis(2));
        e.flush();
        match t.wait().unwrap_err() {
            ServeError::DeadlineExceeded { .. } => {}
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    #[test]
    fn flush_on_full_coalesces_a_group() {
        let e = engine(ServeConfig {
            max_batch: 3,
            max_wait: Duration::from_secs(10),
            ..ServeConfig::default()
        });
        e.publish(&model(), Precision::F32).unwrap();
        let tickets: Vec<ProbeTicket> = (0..3)
            .map(|i| {
                e.submit(ProbeRequest {
                    batch: image_batch(10 + i, 2),
                    module: 1,
                    deadline: None,
                })
                .unwrap()
            })
            .collect();
        // No flush() call: the third probe fills the group.
        for t in tickets {
            let r = t.wait().unwrap();
            assert_eq!(r.batch_size, 3, "group should have coalesced all three");
        }
    }

    /// A panicked worker's thread takes a moment to finish unwinding
    /// after its tickets resolve; reaping is sample-based, so the tests
    /// poll supervision (bounded) until the corpse count settles.
    fn supervise_until_worker_count(e: &ServeEngine, want: usize) -> usize {
        let mut reaped = 0;
        for _ in 0..600 {
            reaped += e.supervise();
            if e.worker_count() == want {
                return reaped;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        reaped
    }

    #[test]
    fn injected_admission_fault_sheds_typed() {
        let faults = FaultInjector::new();
        faults.arm(FaultSite::ServeAdmission, 0, 1, egeria_resil::FaultAction::Fail);
        let t = Telemetry::enabled();
        let e = ServeEngine::with_faults(
            ServeConfig::default(),
            RealClock::shared(),
            t.clone(),
            Some(Arc::clone(&faults)),
            None,
        );
        e.publish(&model(), Precision::F32).unwrap();
        let err = e.probe_blocking(&image_batch(1, 2), 0).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }), "got {err}");
        // The next probe passes: the plan fired exactly once.
        assert!(e.probe_blocking(&image_batch(2, 2), 0).is_ok());
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("serve.shed"), Some(1));
    }

    #[test]
    fn injected_execute_fault_fails_batch_then_recovers() {
        let faults = FaultInjector::new();
        faults.arm(FaultSite::ServeExecute, 0, 1, egeria_resil::FaultAction::Fail);
        let e = ServeEngine::with_faults(
            ServeConfig::default(),
            RealClock::shared(),
            Telemetry::disabled(),
            Some(faults),
            None,
        );
        e.publish(&model(), Precision::F32).unwrap();
        let err = e.probe_blocking(&image_batch(3, 2), 0).unwrap_err();
        assert!(matches!(err, ServeError::Model(_)), "got {err}");
        // The worker survived an execution failure; the executor clone is
        // rebuilt and the next probe succeeds.
        assert!(e.probe_blocking(&image_batch(4, 2), 0).is_ok());
    }

    #[test]
    fn injected_worker_panic_self_heals_without_supervision() {
        let faults = FaultInjector::new();
        faults.arm(FaultSite::PoolTaskPanic, 0, 1, egeria_resil::FaultAction::Fail);
        let t = Telemetry::enabled();
        let e = ServeEngine::with_faults(
            ServeConfig::default(),
            RealClock::shared(),
            t.clone(),
            Some(faults),
            None,
        );
        e.publish(&model(), Precision::F32).unwrap();
        // The worker dies mid-batch: the ticket resolves Shutdown (its
        // reply sender dropped with the unwound batch).
        let err = e.probe_blocking(&image_batch(5, 2), 0).unwrap_err();
        assert_eq!(err, ServeError::Shutdown);
        // No supervise() call in between: the dying worker respawned its
        // own replacement, which picks this probe up from the queue.
        assert!(e.probe_blocking(&image_batch(6, 2), 0).is_ok());
        // Supervision reaps the corpse; the replacement remains.
        assert!(supervise_until_worker_count(&e, 1) >= 1, "corpse reaped");
        assert_eq!(e.worker_count(), 1);
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("serve.worker_deaths"), Some(1));
        assert_eq!(snap.counter("serve.worker_respawns"), Some(1));
        assert_eq!(snap.counter("serve.worker_panics"), Some(1));
    }

    #[test]
    fn respawn_budget_exhaustion_goes_critical() {
        use egeria_resil::health::HealthMonitor;
        let faults = FaultInjector::new();
        // Every batch panics the worker; budget of 1 respawn.
        faults.arm(FaultSite::PoolTaskPanic, 0, 2, egeria_resil::FaultAction::Fail);
        let health = HealthMonitor::new(Telemetry::disabled());
        let e = ServeEngine::with_faults(
            ServeConfig { worker_respawn_budget: 1, ..ServeConfig::default() },
            RealClock::shared(),
            Telemetry::disabled(),
            Some(faults),
            Some(Arc::clone(&health)),
        );
        e.publish(&model(), Precision::F32).unwrap();
        // Death 1: the guard spends the whole budget on a replacement.
        assert_eq!(e.probe_blocking(&image_batch(7, 2), 0).unwrap_err(), ServeError::Shutdown);
        // Death 2: respawn denied; the last worker is gone. Whether this
        // probe's ticket resolved via the unwound batch or the
        // exhaustion drain, it must resolve.
        assert_eq!(e.probe_blocking(&image_batch(8, 2), 0).unwrap_err(), ServeError::Shutdown);
        // Exhausted: later probes shed at admission (or fail at
        // dispatch if they raced the flag) instead of queueing forever.
        assert_eq!(e.probe_blocking(&image_batch(9, 2), 0).unwrap_err(), ServeError::Shutdown);
        // Supervision reaps both corpses and replaces neither.
        supervise_until_worker_count(&e, 0);
        assert_eq!(e.worker_count(), 0, "budget exhausted: no respawn");
        assert_eq!(health.level(), 2, "exhaustion is a critical condition");
    }

    /// Regression: the fatal batch is not necessarily the only one in
    /// flight. Two groups are queued (distinct modules), the single
    /// worker panics on the first, and with a zero respawn budget
    /// nothing will ever execute the second — its tickets must resolve
    /// via the exhaustion drain rather than strand their waiters. The
    /// pre-guard engine hung here forever.
    #[test]
    fn worker_death_fails_queued_batches_instead_of_stranding() {
        let faults = FaultInjector::new();
        faults.arm(FaultSite::PoolTaskPanic, 0, 1, egeria_resil::FaultAction::Fail);
        let e = ServeEngine::with_faults(
            ServeConfig {
                worker_respawn_budget: 0,
                max_wait: Duration::from_secs(60),
                ..ServeConfig::default()
            },
            RealClock::shared(),
            Telemetry::disabled(),
            Some(faults),
            None,
        );
        e.publish(&model(), Precision::F32).unwrap();
        let t1 = e
            .submit(ProbeRequest { batch: image_batch(1, 2), module: 0, deadline: None })
            .unwrap();
        let t2 = e
            .submit(ProbeRequest { batch: image_batch(2, 2), module: 1, deadline: None })
            .unwrap();
        e.flush();
        assert_eq!(t1.wait().unwrap_err(), ServeError::Shutdown);
        assert_eq!(t2.wait().unwrap_err(), ServeError::Shutdown);
        assert_eq!(
            e.probe_blocking(&image_batch(3, 2), 0).unwrap_err(),
            ServeError::Shutdown,
            "exhausted engine sheds at admission"
        );
    }

    #[test]
    fn drop_resolves_pending_tickets_with_shutdown() {
        let e = engine(ServeConfig {
            max_wait: Duration::from_secs(60),
            max_batch: 64,
            ..ServeConfig::default()
        });
        e.publish(&model(), Precision::F32).unwrap();
        let t = e
            .submit(ProbeRequest { batch: image_batch(4, 1), module: 0, deadline: None })
            .unwrap();
        drop(e);
        assert_eq!(t.wait().unwrap_err(), ServeError::Shutdown);
    }
}
