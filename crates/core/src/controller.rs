//! Asynchronous controller/worker plasticity evaluation (§4.1.1–§4.1.2).
//!
//! The worker (training loop) puts the data batch in the **input queue
//! (IQ)** and the hooked training activation in the **training output queue
//! (TOQ)**, then continues training without blocking. The controller thread
//! polls IQ, runs the reference model forward (gated on CPU load), puts the
//! reference activation in the **reference output queue (ROQ)**, then pairs
//! ROQ with TOQ to compute the plasticity value, which flows back to the
//! worker on a decision channel. All three queues are
//! single-producer/single-consumer, exactly as in Figure 6.

use crate::reference::ReferenceManager;
use egeria_analysis::sp_loss;
use egeria_models::{Batch, Model};
use egeria_obs::Telemetry;
use egeria_resil::fault::{FaultInjector, FaultSite};
use egeria_tensor::Tensor;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A plasticity evaluation request (what goes into IQ).
struct EvalRequest {
    eval_id: u64,
    module: usize,
    batch: Batch,
}

/// A completed plasticity evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlasticityResult {
    /// Ticket from [`AsyncController::submit`].
    pub eval_id: u64,
    /// Module the evaluation covered.
    pub module: usize,
    /// The SP-loss plasticity value, or `None` if the evaluation was
    /// dropped (CPU gate or reference error).
    pub value: Option<f32>,
}

/// Controller commands multiplexed with IQ on the controller thread.
enum Command {
    Eval(EvalRequest),
    UpdateReference(Box<dyn Model>),
    Shutdown,
}

/// A function reporting current CPU load as a fraction of capacity.
pub type LoadProbe = Arc<dyn Fn() -> f32 + Send + Sync>;

/// Reads the 1-minute load average normalized by core count; 0.0 on
/// platforms without `/proc/loadavg`.
pub fn system_load_probe() -> LoadProbe {
    Arc::new(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f32;
        std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f32>().ok()))
            .map(|load| load / cores)
            .unwrap_or(0.0)
    })
}

/// The worker-side handle to the controller thread.
///
/// The senders are `Option` so [`Drop`] can close the queues explicitly:
/// once both are dropped, every `recv` on the controller thread errors out
/// and the loop exits even if the command queue was full.
pub struct AsyncController {
    cmd_tx: Option<SyncSender<Command>>,
    toq_tx: Option<SyncSender<(u64, Tensor)>>,
    result_rx: Receiver<PlasticityResult>,
    handle: Option<JoinHandle<()>>,
    next_eval: u64,
}

impl AsyncController {
    /// Spawns the controller thread around a reference manager.
    ///
    /// `gate` is the CPU-load fraction above which reference execution is
    /// skipped (§4.1.2 uses 50%); `probe` supplies the load reading. An
    /// armed [`FaultSite::ControllerEval`] in `faults` kills the thread
    /// mid-eval (before any result is sent), the way a panic in the
    /// reference forward would. The thread counts `controller.evals`,
    /// `controller.gated`, `controller.errors`, and
    /// `controller.ref_updates` into `telemetry`'s registry.
    pub fn spawn(
        mut reference: ReferenceManager,
        gate: f32,
        probe: LoadProbe,
        faults: Option<Arc<FaultInjector>>,
        telemetry: Telemetry,
    ) -> Self {
        let c_evals = telemetry.counter("controller.evals");
        let c_gated = telemetry.counter("controller.gated");
        let c_errors = telemetry.counter("controller.errors");
        let c_updates = telemetry.counter("controller.ref_updates");
        reference.set_telemetry(telemetry);
        let (cmd_tx, cmd_rx) = sync_channel::<Command>(32);
        let (toq_tx, toq_rx) = sync_channel::<(u64, Tensor)>(32);
        // ROQ lives entirely on the controller thread but is a real queue
        // to keep the dataflow of Figure 6 explicit.
        let (roq_tx, roq_rx) = sync_channel::<(u64, usize, Tensor)>(32);
        let (result_tx, result_rx) = sync_channel::<PlasticityResult>(64);
        let handle = std::thread::spawn(move || {
            while let Ok(cmd) = cmd_rx.recv() {
                match cmd {
                    Command::Shutdown => break,
                    Command::UpdateReference(snapshot) => {
                        let _ = reference.generate(snapshot.as_ref());
                        c_updates.inc();
                    }
                    Command::Eval(req) => {
                        c_evals.inc();
                        if faults
                            .as_ref()
                            .map(|f| f.should_fail(FaultSite::ControllerEval))
                            .unwrap_or(false)
                        {
                            // Simulated controller crash: die mid-eval
                            // without replying. The worker-side watchdog
                            // must notice and respawn.
                            return;
                        }
                        // (2a) Reference forward, gated on CPU load.
                        if probe() > gate {
                            c_gated.inc();
                            let _ = result_tx.send(PlasticityResult {
                                eval_id: req.eval_id,
                                module: req.module,
                                value: None,
                            });
                            // Drain the matching TOQ entry so pairing stays
                            // aligned.
                            let _ = toq_rx.recv();
                            continue;
                        }
                        match reference.capture(&req.batch, req.module) {
                            Ok(act) => {
                                let _ = roq_tx.send((req.eval_id, req.module, act));
                            }
                            Err(_) => {
                                c_errors.inc();
                                let _ = result_tx.send(PlasticityResult {
                                    eval_id: req.eval_id,
                                    module: req.module,
                                    value: None,
                                });
                                let _ = toq_rx.recv();
                                continue;
                            }
                        }
                        // (3) Pair ROQ with TOQ and compute plasticity.
                        if let (Ok((rid, module, a_ref)), Ok((tid, a_train))) =
                            (roq_rx.recv(), toq_rx.recv())
                        {
                            debug_assert_eq!(rid, tid, "SPSC queues must stay aligned");
                            let value = sp_loss(&a_train, &a_ref).ok();
                            let _ = result_tx.send(PlasticityResult {
                                eval_id: rid,
                                module,
                                value,
                            });
                        }
                    }
                }
            }
        });
        AsyncController {
            cmd_tx: Some(cmd_tx),
            toq_tx: Some(toq_tx),
            result_rx,
            handle: Some(handle),
            next_eval: 0,
        }
    }

    /// Whether the controller thread is still running. `false` after the
    /// thread died (panic, injected fault) — the worker should respawn.
    pub fn is_alive(&self) -> bool {
        self.handle
            .as_ref()
            .map(|h| !h.is_finished())
            .unwrap_or(false)
    }

    /// Submits a plasticity evaluation: the batch goes to IQ, the hooked
    /// training activation to TOQ. Returns the ticket id, or `None` if the
    /// queues are full (the evaluation is skipped rather than blocking
    /// training).
    pub fn submit(&mut self, batch: Batch, module: usize, train_act: Tensor) -> Option<u64> {
        if !self.is_alive() {
            return None; // Dead thread: nothing will drain the queues.
        }
        let eval_id = self.next_eval;
        let req = Command::Eval(EvalRequest {
            eval_id,
            module,
            batch,
        });
        if self.cmd_tx.as_ref()?.try_send(req).is_err() {
            return None;
        }
        // TOQ capacity matches IQ, so this send succeeds whenever the IQ
        // send did; a full TOQ here would desynchronize pairing, so block.
        if let Some(toq) = &self.toq_tx {
            let _ = toq.send((eval_id, train_act));
        }
        self.next_eval += 1;
        Some(eval_id)
    }

    /// Ships a fresh training snapshot for reference regeneration.
    pub fn update_reference(&self, snapshot: Box<dyn Model>) {
        if let Some(tx) = &self.cmd_tx {
            let _ = tx.try_send(Command::UpdateReference(snapshot));
        }
    }

    /// Drains all completed plasticity results without blocking.
    pub fn poll_results(&self) -> Vec<PlasticityResult> {
        let mut out = Vec::new();
        while let Ok(r) = self.result_rx.try_recv() {
            out.push(r);
        }
        out
    }

    /// Blocks until a specific evaluation completes (test helper).
    pub fn wait_for(&self, eval_id: u64) -> Option<PlasticityResult> {
        loop {
            match self.result_rx.recv() {
                Ok(r) if r.eval_id == eval_id => return Some(r),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }
}

impl Drop for AsyncController {
    /// Bounded shutdown: never hangs, even if the controller thread is
    /// stuck or already dead with full queues.
    fn drop(&mut self) {
        if let Some(tx) = &self.cmd_tx {
            // Best effort; a full queue is fine because closing the
            // channels below also terminates the loop.
            let _ = tx.try_send(Command::Shutdown);
        }
        // Close IQ and TOQ so every blocked `recv` on the controller thread
        // errors out instead of waiting forever.
        self.cmd_tx = None;
        self.toq_tx = None;
        if let Some(h) = self.handle.take() {
            let deadline = Instant::now() + Duration::from_secs(2);
            while !h.is_finished() && Instant::now() < deadline {
                // Keep draining results: a controller blocked publishing
                // into a full result queue can only observe the closed
                // command channel once its pending send completes, so a
                // wait without a drain here turned every such drop into
                // the full timeout plus a leaked thread.
                while self.result_rx.try_recv().is_ok() {}
                std::thread::sleep(Duration::from_millis(2));
            }
            if h.is_finished() {
                let _ = h.join();
            } else {
                // Detach rather than deadlock the training process.
                eprintln!("egeria: controller thread unresponsive at shutdown; detaching");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EgeriaConfig;
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
    use egeria_models::{Input, Targets};
    use egeria_tensor::Rng;

    fn setup() -> (Box<dyn Model>, Batch) {
        let m = resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            1,
        );
        let mut rng = Rng::new(2);
        let batch = Batch {
            input: Input::Image(Tensor::randn(&[2, 3, 8, 8], &mut rng)),
            targets: Targets::Classes(vec![0, 1]),
            sample_ids: vec![0, 1],
        };
        (Box::new(m), batch)
    }

    fn always_idle() -> LoadProbe {
        Arc::new(|| 0.0)
    }

    fn always_busy() -> LoadProbe {
        Arc::new(|| 1.0)
    }

    #[test]
    fn async_evaluation_returns_plasticity() {
        let (mut model, batch) = setup();
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model.as_ref()).unwrap();
        let mut ctrl = AsyncController::spawn(refmgr, 0.5, always_idle(), None, Telemetry::disabled());
        let act = model.capture_activation(&batch, 0).unwrap();
        let id = ctrl.submit(batch, 0, act).unwrap();
        let r = ctrl.wait_for(id).unwrap();
        let v = r.value.expect("evaluation must succeed when idle");
        // Int8 reference on the same weights: small but positive SP loss.
        assert!((0.0..1.0).contains(&v), "plasticity {v}");
    }

    #[test]
    fn cpu_gate_skips_evaluation() {
        let (mut model, batch) = setup();
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model.as_ref()).unwrap();
        let mut ctrl = AsyncController::spawn(refmgr, 0.5, always_busy(), None, Telemetry::disabled());
        let act = model.capture_activation(&batch, 0).unwrap();
        let id = ctrl.submit(batch, 0, act).unwrap();
        let r = ctrl.wait_for(id).unwrap();
        assert!(r.value.is_none(), "gated evaluation must be dropped");
    }

    #[test]
    fn reference_update_flows_through_the_queue() {
        let (mut model, batch) = setup();
        let mut refmgr = ReferenceManager::new(&EgeriaConfig {
            reference_precision: egeria_quant::Precision::F32,
            ..Default::default()
        });
        refmgr.generate(model.as_ref()).unwrap();
        let mut ctrl = AsyncController::spawn(refmgr, 0.5, always_idle(), None, Telemetry::disabled());
        // Identical weights → plasticity ~ 0 with an f32 reference.
        let act = model.capture_activation(&batch, 0).unwrap();
        let id = ctrl.submit(batch.clone(), 0, act.clone()).unwrap();
        let before = ctrl.wait_for(id).unwrap().value.unwrap();
        assert!(before < 1e-8, "identical weights should give ~0, got {before}");
        // Perturb the model; the stale reference now disagrees.
        for p in model.params_mut() {
            p.value = p.value.add_scalar(0.1);
        }
        let act2 = model.capture_activation(&batch, 0).unwrap();
        let id2 = ctrl.submit(batch.clone(), 0, act2.clone()).unwrap();
        let stale = ctrl.wait_for(id2).unwrap().value.unwrap();
        assert!(stale > before);
        // Ship the new snapshot; plasticity returns to ~0.
        ctrl.update_reference(model.clone_boxed());
        let id3 = ctrl.submit(batch, 0, act2).unwrap();
        let fresh = ctrl.wait_for(id3).unwrap().value.unwrap();
        assert!(fresh < stale, "updated reference {fresh} vs stale {stale}");
    }

    #[test]
    fn poll_results_drains_without_blocking() {
        let (model, _) = setup();
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model.as_ref()).unwrap();
        let ctrl = AsyncController::spawn(refmgr, 0.5, always_idle(), None, Telemetry::disabled());
        assert!(ctrl.poll_results().is_empty());
    }

    #[test]
    fn system_load_probe_reports_finite_fraction() {
        let probe = system_load_probe();
        let v = probe();
        assert!(v.is_finite() && v >= 0.0);
    }

    #[test]
    fn dropping_mid_eval_does_not_hang() {
        // Regression: the old Drop did a blocking send + unconditional
        // join, which could deadlock with in-flight evaluations. Queue up
        // work and drop immediately without draining any result.
        let (mut model, batch) = setup();
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model.as_ref()).unwrap();
        let mut ctrl = AsyncController::spawn(refmgr, 0.5, always_idle(), None, Telemetry::disabled());
        let act = model.capture_activation(&batch, 0).unwrap();
        for _ in 0..8 {
            let _ = ctrl.submit(batch.clone(), 0, act.clone());
        }
        drop(ctrl); // Must return promptly (bounded wait, then detach).
    }

    #[test]
    fn injected_fault_kills_thread_and_is_detected() {
        let (mut model, batch) = setup();
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model.as_ref()).unwrap();
        let faults = FaultInjector::new();
        faults.arm(FaultSite::ControllerEval, 0, 1, egeria_resil::FaultAction::Fail);
        let mut ctrl = AsyncController::spawn(
            refmgr,
            0.5,
            always_idle(),
            Some(faults.clone()),
            Telemetry::disabled(),
        );
        assert!(ctrl.is_alive());
        let act = model.capture_activation(&batch, 0).unwrap();
        ctrl.submit(batch.clone(), 0, act.clone()).unwrap();
        // The thread dies without replying; wait for it to wind down.
        let deadline = Instant::now() + Duration::from_secs(5);
        while ctrl.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!ctrl.is_alive(), "controller must die on the injected fault");
        assert_eq!(faults.injected(FaultSite::ControllerEval), 1);
        // Submitting to a dead controller degrades to a skipped eval.
        assert!(ctrl.submit(batch, 0, act).is_none());
        drop(ctrl); // Still must not hang.
    }
}
