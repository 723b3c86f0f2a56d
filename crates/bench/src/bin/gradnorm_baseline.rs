//! §6.2 ablation: gradient-norm-guided freezing vs Egeria's plasticity.
//!
//! The paper: "We also test freezing layers based on gradient norm on
//! CIFAR-10 and find that achieving the same speedup will lose 2% of
//! accuracy." This binary trains ResNet-56 three ways — vanilla baseline,
//! gradient-norm freezing (same window machinery, hard-label signal), and
//! Egeria — and reports final accuracy plus how much got frozen how early.

use egeria_bench::experiments::{converged_metric, run_workload, val_metric};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_core::config::EgeriaConfig;
use egeria_core::freezer::FreezeEvent;
use egeria_core::plasticity::PlasticityTracker;
use egeria_models::Model;
use egeria_scenarios::registry::{build, recipe, Recipe};
use egeria_tensor::Result;

/// Gradient-norm-guided freezing (the paper's accuracy-losing baseline):
/// Egeria's windowed-stationarity machinery fed the frontmost active
/// module's gradient norm instead of its reference-guided plasticity.
struct GradNormFreezer {
    trackers: Vec<PlasticityTracker>,
    front: usize,
    num_modules: usize,
}

impl GradNormFreezer {
    /// Creates the baseline freezer with Egeria's window configuration.
    fn new(num_modules: usize, cfg: &EgeriaConfig) -> Self {
        GradNormFreezer {
            trackers: (0..num_modules)
                .map(|_| PlasticityTracker::new(cfg.w, cfg.s, cfg.t))
                .collect(),
            front: 0,
            num_modules,
        }
    }

    /// Current frozen-prefix length.
    fn front(&self) -> usize {
        self.front
    }

    /// The L2 norm of the gradients currently accumulated on module
    /// `module`'s parameters, normalized by the parameter count.
    ///
    /// Must be called after a backward pass and before `zero_grad`.
    fn module_grad_norm(model: &dyn Model, module: usize) -> f32 {
        // Parameters are not directly indexable per module, so walk the
        // module sizes to find the parameter span. Module param counts are
        // exact because `ModuleMeta::param_count` sums the same tensors.
        let metas = model.modules();
        let params = model.params();
        let mut acc = 0.0f64;
        let mut count = 0usize;
        let mut seen = 0usize;
        let start: usize = metas[..module].iter().map(|m| m.param_count).sum();
        let end = start + metas[module].param_count;
        for p in params {
            let span = p.numel();
            if seen + span > start && seen < end {
                if let Some(g) = &p.grad {
                    acc += g.sq_norm() as f64;
                }
                count += span;
            }
            seen += span;
        }
        if count == 0 {
            0.0
        } else {
            (acc.sqrt() / count as f64) as f32
        }
    }

    /// Folds one gradient-norm observation of the frontmost active module;
    /// returns a freeze event when its trend flattens.
    fn observe(&mut self, grad_norm: f32) -> Result<FreezeEvent> {
        if self.front + 1 >= self.num_modules {
            return Ok(FreezeEvent::None);
        }
        let obs = self.trackers[self.front].observe_value(grad_norm)?;
        if obs.converged {
            self.front += 1;
            return Ok(FreezeEvent::Froze(self.front));
        }
        Ok(FreezeEvent::None)
    }
}

struct GradNormOutcome {
    final_acc: f32,
    first_freeze_iter: i64,
    max_prefix: usize,
}

/// Trains `resnet56` with gradient-norm freezing on Egeria's evaluation
/// cadence and windows.
fn run_gradnorm(resnet56: &Recipe) -> Result<GradNormOutcome> {
    let cfg = resnet56.egeria.expect("Table 1 entries run Egeria");
    let mut w = build(resnet56)?;
    let mut freezer = GradNormFreezer::new(w.model.modules().len(), &cfg);
    let mut step = 0usize;
    let mut first_freeze = -1i64;
    let mut max_prefix = 0usize;
    for epoch in 0..resnet56.epochs {
        w.optimizer.set_lr(w.schedule.lr(epoch));
        for plan in w.loader.epoch_plan(epoch) {
            let batch = w.train.materialize(&plan.indices)?;
            let _ = w.model.train_step(&batch, None)?;
            if step.is_multiple_of(cfg.n) {
                let front = freezer.front();
                if front < w.model.modules().len() {
                    let norm = GradNormFreezer::module_grad_norm(w.model.as_ref(), front);
                    if let FreezeEvent::Froze(k) = freezer.observe(norm)? {
                        w.model.freeze_prefix(k)?;
                        max_prefix = max_prefix.max(k);
                        if first_freeze < 0 {
                            first_freeze = step as i64;
                        }
                    }
                }
            }
            w.optimizer.step(&mut w.model.params_mut())?;
            w.model.zero_grad();
            step += 1;
        }
    }
    Ok(GradNormOutcome {
        final_acc: val_metric(&mut w)?,
        first_freeze_iter: first_freeze,
        max_prefix,
    })
}

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    // 40 of the entry's 60 epochs; the LR milestones stay at 30 and 45.
    let resnet56 = Recipe {
        epochs: 40,
        ..recipe("resnet56").expect("registry entry")
    };
    eprintln!("== vanilla baseline");
    let baseline = Recipe {
        egeria: None,
        ..resnet56.clone()
    };
    let base = run_workload(&baseline).expect("baseline");
    let base_acc = converged_metric(&base.report);
    eprintln!("== gradient-norm freezing");
    let gn = run_gradnorm(&resnet56).expect("gradnorm run");
    eprintln!("== egeria (plasticity) freezing");
    let eg = run_workload(&resnet56).expect("egeria run");
    let eg_acc = converged_metric(&eg.report);
    let eg_first = eg
        .report
        .events
        .iter()
        .find(|e| e.kind == "freeze")
        .map(|e| e.iteration as i64)
        .unwrap_or(-1);
    let eg_max = eg
        .report
        .iterations
        .iter()
        .map(|i| i.frozen_prefix as usize)
        .max()
        .unwrap_or(0);
    let rows = vec![
        format!("baseline,{base_acc:.4},0.0,-1,0"),
        format!(
            "gradient_norm,{:.4},{:.2},{},{}",
            gn.final_acc,
            (base_acc - gn.final_acc) * 100.0,
            gn.first_freeze_iter,
            gn.max_prefix
        ),
        format!(
            "egeria_plasticity,{eg_acc:.4},{:.2},{eg_first},{eg_max}",
            (base_acc - eg_acc) * 100.0
        ),
    ];
    write_csv(
        &results.path("gradnorm_baseline.csv"),
        "method,final_acc,acc_drop_pct,first_freeze_iter,max_frozen_prefix",
        &rows,
    )
    .expect("write gradnorm baseline");
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
    use egeria_models::{Batch, Input, Targets};
    use egeria_tensor::{Rng, Tensor};

    fn model() -> impl Model {
        resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            3,
        )
    }

    #[test]
    fn module_grad_norm_is_zero_before_backward_and_positive_after() {
        let mut m = model();
        assert_eq!(GradNormFreezer::module_grad_norm(&m, 0), 0.0);
        let mut rng = Rng::new(1);
        let batch = Batch {
            input: Input::Image(Tensor::randn(&[2, 3, 8, 8], &mut rng)),
            targets: Targets::Classes(vec![0, 1]),
            sample_ids: vec![0, 1],
        };
        let _ = m.train_step(&batch, None).unwrap();
        for module in 0..m.modules().len() {
            assert!(
                GradNormFreezer::module_grad_norm(&m, module) > 0.0,
                "module {module} has zero grad norm after backward"
            );
        }
    }

    #[test]
    fn frozen_module_grad_norm_is_zero() {
        let mut m = model();
        m.freeze_prefix(1).unwrap();
        let mut rng = Rng::new(2);
        let batch = Batch {
            input: Input::Image(Tensor::randn(&[2, 3, 8, 8], &mut rng)),
            targets: Targets::Classes(vec![0, 1]),
            sample_ids: vec![0, 1],
        };
        let _ = m.train_step(&batch, None).unwrap();
        assert_eq!(GradNormFreezer::module_grad_norm(&m, 0), 0.0);
        assert!(GradNormFreezer::module_grad_norm(&m, 1) > 0.0);
    }

    #[test]
    fn gradnorm_freezer_advances_on_flat_norms() {
        let cfg = EgeriaConfig {
            w: 4,
            s: 3,
            t: 5.0,
            ..Default::default()
        };
        let mut f = GradNormFreezer::new(3, &cfg);
        let mut froze = false;
        for _ in 0..12 {
            if let FreezeEvent::Froze(k) = f.observe(0.5).unwrap() {
                assert_eq!(k, 1);
                froze = true;
                break;
            }
        }
        assert!(froze);
        // The tail module never freezes.
        let mut f2 = GradNormFreezer::new(1, &cfg);
        for _ in 0..12 {
            assert_eq!(f2.observe(0.5).unwrap(), FreezeEvent::None);
        }
    }
}
