//! Optimizers: SGD with momentum and Adam.
//!
//! Optimizers keep per-parameter state keyed by [`Parameter::id`], so they
//! survive the parameter-list reshuffles that happen when Egeria rebuilds
//! its gradient buckets after a freeze/unfreeze event (§5 of the paper).

use crate::param::Parameter;
use egeria_tensor::{Result, Tensor, TensorError};
use std::collections::HashMap;

/// Portable snapshot of an optimizer's mutable state.
///
/// Per-parameter slots are keyed by parameter *name*, not [`Parameter::id`]:
/// ids are assigned from a process-local counter, so they differ between the
/// run that wrote a checkpoint and the run that resumes from it. Names are
/// stable across process restarts as long as the model is constructed the
/// same way.
#[derive(Debug, Clone, Default)]
pub struct OptimizerState {
    /// Optimizer kind tag (`"sgd"` or `"adam"`); checked on load.
    pub kind: String,
    /// Learning rate at snapshot time.
    pub lr: f32,
    /// Adam's bias-correction step counter (0 for SGD).
    pub step_count: u64,
    /// Named state slots (`"velocity"`, `"m"`, `"v"`), each mapping
    /// parameter name → state tensor.
    pub slots: Vec<(String, Vec<(String, Tensor)>)>,
}

impl OptimizerState {
    fn slot(&self, name: &str) -> &[(String, Tensor)] {
        self.slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, entries)| entries.as_slice())
            .unwrap_or(&[])
    }
}

/// Turns an id-keyed state map into a name-keyed slot, sorted for
/// deterministic checkpoint bytes. State for ids not in `params` (stale
/// entries from removed parameters) is dropped.
fn export_slot(state: &HashMap<u64, Tensor>, params: &[&Parameter]) -> Vec<(String, Tensor)> {
    let mut entries: Vec<(String, Tensor)> = params
        .iter()
        .filter_map(|p| state.get(&p.id()).map(|t| (p.name.clone(), t.clone())))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

/// Rebuilds an id-keyed state map from a name-keyed slot. Names absent from
/// `params` are ignored (the model may have been rebuilt without them);
/// shape mismatches are an error since silently mis-sized state would
/// corrupt the update math.
fn import_slot(
    entries: &[(String, Tensor)],
    params: &[&Parameter],
) -> Result<HashMap<u64, Tensor>> {
    let by_name: HashMap<&str, &Parameter> =
        params.iter().map(|p| (p.name.as_str(), *p)).collect();
    let mut state = HashMap::new();
    for (name, tensor) in entries {
        let Some(p) = by_name.get(name.as_str()) else {
            continue;
        };
        if tensor.dims() != p.value.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "optimizer state load",
                lhs: p.value.dims().to_vec(),
                rhs: tensor.dims().to_vec(),
            });
        }
        state.insert(p.id(), tensor.clone());
    }
    Ok(state)
}

/// Stochastic gradient descent with momentum and decoupled weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<u64, Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (driven by a schedule each step/epoch).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update to every parameter that has a gradient and
    /// requires one. Frozen parameters are skipped entirely, which is what
    /// removes their update cost.
    pub fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        for p in params.iter_mut() {
            if !p.requires_grad {
                continue;
            }
            let Some(grad) = p.grad.clone() else { continue };
            let mut d = grad;
            // egeria-lint: allow(float-exact-eq): weight_decay is a user-set
            // hyperparameter, not data; exact 0.0 means "decay disabled" and
            // skipping adds no 0·x term that could mask a NaN parameter.
            if self.weight_decay != 0.0 {
                d.axpy_inplace(self.weight_decay, &p.value)?;
            }
            // egeria-lint: allow(float-exact-eq): momentum is a user-set
            // hyperparameter; exact 0.0 selects plain SGD and must not
            // allocate velocity state.
            if self.momentum != 0.0 {
                let v = self
                    .velocity
                    .entry(p.id())
                    .or_insert_with(|| Tensor::zeros(p.value.dims()));
                v.decay_axpy_inplace(self.momentum, 1.0, &d)?;
                d = v.clone();
            }
            p.value.axpy_inplace(-self.lr, &d)?;
        }
        Ok(())
    }

    /// Snapshots the momentum state, keyed by parameter name.
    pub fn export_state(&self, params: &[&Parameter]) -> OptimizerState {
        OptimizerState {
            kind: "sgd".into(),
            lr: self.lr,
            step_count: 0,
            slots: vec![("velocity".into(), export_slot(&self.velocity, params))],
        }
    }

    /// Restores momentum state from a snapshot taken by [`Sgd::export_state`].
    pub fn load_state(&mut self, state: &OptimizerState, params: &[&Parameter]) -> Result<()> {
        if state.kind != "sgd" {
            return Err(TensorError::Corrupt(format!(
                "optimizer kind mismatch: checkpoint has {:?}, expected \"sgd\"",
                state.kind
            )));
        }
        self.lr = state.lr;
        self.velocity = import_slot(state.slot("velocity"), params)?;
        Ok(())
    }
}

/// Adam with bias correction (Kingma & Ba).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: HashMap<u64, Tensor>,
    v: HashMap<u64, Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one Adam update; frozen or gradient-less parameters are
    /// skipped.
    pub fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            if !p.requires_grad {
                continue;
            }
            let Some(grad) = p.grad.clone() else { continue };
            let mut g = grad;
            // egeria-lint: allow(float-exact-eq): weight_decay is a user-set
            // hyperparameter, not data; exact 0.0 means "decay disabled" and
            // skipping adds no 0·x term that could mask a NaN parameter.
            if self.weight_decay != 0.0 {
                g.axpy_inplace(self.weight_decay, &p.value)?;
            }
            let m = self
                .m
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(p.value.dims()));
            m.decay_axpy_inplace(self.beta1, 1.0 - self.beta1, &g)?;
            let v = self
                .v
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(p.value.dims()));
            v.ema_sq_inplace(self.beta2, &g)?;
            p.value
                .adam_update_inplace(self.lr, self.eps, bc1, bc2, m, v)?;
        }
        Ok(())
    }

    /// Snapshots the moment estimates and step counter, keyed by parameter
    /// name.
    pub fn export_state(&self, params: &[&Parameter]) -> OptimizerState {
        OptimizerState {
            kind: "adam".into(),
            lr: self.lr,
            step_count: self.t,
            slots: vec![
                ("m".into(), export_slot(&self.m, params)),
                ("v".into(), export_slot(&self.v, params)),
            ],
        }
    }

    /// Restores state from a snapshot taken by [`Adam::export_state`].
    pub fn load_state(&mut self, state: &OptimizerState, params: &[&Parameter]) -> Result<()> {
        if state.kind != "adam" {
            return Err(TensorError::Corrupt(format!(
                "optimizer kind mismatch: checkpoint has {:?}, expected \"adam\"",
                state.kind
            )));
        }
        self.lr = state.lr;
        self.t = state.step_count;
        self.m = import_slot(state.slot("m"), params)?;
        self.v = import_slot(state.slot("v"), params)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Parameter) -> Tensor {
        // d/dx of 0.5 * ||x||² is x.
        p.value.clone()
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let mut p = Parameter::new("x", Tensor::full(&[4], 10.0));
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        for _ in 0..200 {
            p.zero_grad();
            let g = quadratic_grad(&p);
            p.accumulate_grad(&g).unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value.norm() < 1e-3, "norm {}", p.value.norm());
    }

    #[test]
    fn momentum_accelerates_descent() {
        let run = |momentum: f32| {
            let mut p = Parameter::new("x", Tensor::full(&[1], 10.0));
            let mut opt = Sgd::new(0.01, momentum, 0.0);
            for _ in 0..50 {
                p.zero_grad();
                let g = quadratic_grad(&p);
                p.accumulate_grad(&g).unwrap();
                opt.step(&mut [&mut p]).unwrap();
            }
            p.value.data()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient_signal() {
        let mut p = Parameter::new("x", Tensor::full(&[1], 1.0));
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        for _ in 0..10 {
            p.zero_grad();
            p.accumulate_grad(&Tensor::zeros(&[1])).unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value.data()[0] < 1.0);
    }

    #[test]
    fn frozen_parameters_are_not_updated() {
        let mut p = Parameter::new("x", Tensor::full(&[2], 3.0));
        p.accumulate_grad(&Tensor::ones(&[2])).unwrap();
        p.requires_grad = false;
        let before = p.value.clone();
        Sgd::new(0.5, 0.9, 0.0).step(&mut [&mut p]).unwrap();
        assert_eq!(p.value, before);
        Adam::new(0.5, 0.0).step(&mut [&mut p]).unwrap();
        assert_eq!(p.value, before);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut p = Parameter::new("x", Tensor::full(&[4], 5.0));
        let mut opt = Adam::new(0.1, 0.0);
        for _ in 0..300 {
            p.zero_grad();
            let g = quadratic_grad(&p);
            p.accumulate_grad(&g).unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value.norm() < 1e-2, "norm {}", p.value.norm());
    }

    #[test]
    fn sgd_state_round_trips_across_fresh_parameter_ids() {
        // Train one parameter, export, then rebuild the "same" parameter
        // (new process-local id) and confirm the restored optimizer takes
        // identical steps — the resume-exactness requirement.
        let mut p = Parameter::new("x", Tensor::full(&[3], 4.0));
        let mut opt = Sgd::new(0.1, 0.9, 0.01);
        for _ in 0..5 {
            p.zero_grad();
            p.accumulate_grad(&p.value.clone()).unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        let state = opt.export_state(&[&p]);

        let mut p2 = Parameter::new("x", p.value.clone());
        assert_ne!(p.id(), p2.id());
        let mut opt2 = Sgd::new(0.1, 0.9, 0.01);
        opt2.load_state(&state, &[&p2]).unwrap();

        for _ in 0..5 {
            p.zero_grad();
            p.accumulate_grad(&p.value.clone()).unwrap();
            opt.step(&mut [&mut p]).unwrap();
            p2.zero_grad();
            p2.accumulate_grad(&p2.value.clone()).unwrap();
            opt2.step(&mut [&mut p2]).unwrap();
        }
        assert_eq!(p.value, p2.value);
    }

    #[test]
    fn adam_state_round_trips_across_fresh_parameter_ids() {
        let mut p = Parameter::new("x", Tensor::full(&[3], 4.0));
        let mut opt = Adam::new(0.05, 0.01);
        for _ in 0..5 {
            p.zero_grad();
            p.accumulate_grad(&p.value.clone()).unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        let state = opt.export_state(&[&p]);
        assert_eq!(state.step_count, 5);

        let mut p2 = Parameter::new("x", p.value.clone());
        let mut opt2 = Adam::new(0.05, 0.01);
        opt2.load_state(&state, &[&p2]).unwrap();

        for _ in 0..5 {
            p.zero_grad();
            p.accumulate_grad(&p.value.clone()).unwrap();
            opt.step(&mut [&mut p]).unwrap();
            p2.zero_grad();
            p2.accumulate_grad(&p2.value.clone()).unwrap();
            opt2.step(&mut [&mut p2]).unwrap();
        }
        assert_eq!(p.value, p2.value);
    }

    #[test]
    fn load_state_rejects_kind_and_shape_mismatch() {
        let p = Parameter::new("x", Tensor::ones(&[2]));
        let sgd_state = Sgd::new(0.1, 0.9, 0.0).export_state(&[&p]);
        assert!(Adam::new(0.1, 0.0).load_state(&sgd_state, &[&p]).is_err());

        let mut mismatched = sgd_state.clone();
        mismatched.slots = vec![("velocity".into(), vec![("x".into(), Tensor::ones(&[5]))])];
        assert!(Sgd::new(0.1, 0.9, 0.0)
            .load_state(&mismatched, &[&p])
            .is_err());
    }

    #[test]
    fn load_state_ignores_unknown_parameter_names() {
        let p = Parameter::new("x", Tensor::ones(&[2]));
        let state = OptimizerState {
            kind: "sgd".into(),
            lr: 0.2,
            step_count: 0,
            slots: vec![("velocity".into(), vec![("gone".into(), Tensor::ones(&[7]))])],
        };
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.load_state(&state, &[&p]).unwrap();
        assert_eq!(opt.lr(), 0.2);
        assert!(opt.velocity.is_empty());
    }
}
