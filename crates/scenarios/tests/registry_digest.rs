//! Pins what every registry entry builds, bit for bit.
//!
//! Per entry, one digest covers:
//! - the initial parameter names and bits;
//! - the first epoch's loader order;
//! - the first training batch and the first validation batch, inputs and
//!   targets;
//! - the LR over the first 1024 schedule steps, which hold every
//!   milestone, warmup and total in both tables;
//! - the optimizer, as the parameters after two steps on the first batch's
//!   gradient (so momentum and weight decay show);
//! - the epochs, the schedule indexing and the `EgeriaConfig` knobs the
//!   entries set (`n`, `W`, `S`, `T`, the bootstrap rate, the reference
//!   update period and the policy).
//!
//! Everything is hashed as bits and numbers, not as `Debug` text, so a new
//! `EgeriaConfig` field or a reworded `Debug` moves no digest.
//!
//! The expected values were recorded from the Table 1 and scenario
//! builders the registry replaced, so a mismatch means an entry no longer
//! builds the run it is named for. Re-record one only for an intended
//! change to that entry, and say which in the change's notes.

use egeria_core::trainer::{Optimizer, TrainerOptions};
use egeria_core::EgeriaConfig;
use egeria_data::{DataLoader, Dataset};
use egeria_models::{Batch, Input, Model, Targets};
use egeria_nn::sched::LrSchedule;
use egeria_scenarios::registry::{build, scenarios, table1, Built};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn ids(&mut self, values: impl IntoIterator<Item = usize>) {
        for v in values {
            self.bytes(&(v as u64).to_le_bytes());
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn batch(&mut self, b: &Batch) {
        match &b.input {
            Input::Image(t) => {
                self.ids(t.dims().iter().copied());
                self.f32s(t.data());
            }
            Input::Tokens(seqs) => seqs.iter().for_each(|s| self.ids(s.iter().copied())),
            Input::Seq2Seq { src, tgt } => src
                .iter()
                .chain(tgt)
                .for_each(|s| self.ids(s.iter().copied())),
        }
        match &b.targets {
            Targets::Classes(c) | Targets::Pixels(c) => self.ids(c.iter().copied()),
            Targets::TokenTargets(seqs) => seqs.iter().for_each(|s| self.ids(s.iter().copied())),
            Targets::Spans(spans) => spans.iter().for_each(|&(a, b)| self.ids([a, b])),
        }
        self.ids(b.sample_ids.iter().map(|&id| id as usize));
    }

    fn egeria(&mut self, c: &Option<EgeriaConfig>) {
        match c {
            None => self.text("vanilla"),
            Some(c) => {
                self.ids([c.n, c.w, c.s, c.reference_update_every]);
                self.f32s(&[c.t, c.bootstrap_rate]);
                self.text(c.policy.name());
            }
        }
    }
}

fn digest(
    mut model: Box<dyn Model>,
    train: &dyn Dataset,
    loader: &DataLoader,
    val: Option<(&dyn Dataset, &DataLoader)>,
    mut optimizer: Optimizer,
    schedule: &dyn LrSchedule,
    options: &TrainerOptions,
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for p in model.params() {
        h.text(&p.name);
        h.f32s(p.value.data());
    }
    let plan = loader.epoch_plan(0);
    for batch in &plan {
        h.ids(batch.indices.iter().copied());
    }
    let first = train.materialize(&plan[0].indices).unwrap();
    h.batch(&first);
    if let Some((set, val_loader)) = val {
        let batch = set
            .materialize(&val_loader.epoch_plan(0)[0].indices)
            .unwrap();
        h.ids([set.len()]);
        h.batch(&batch);
    }
    for step in 0..1024 {
        h.f32s(&[schedule.lr(step)]);
    }
    h.ids([options.epochs, options.lr_per_iteration as usize]);
    h.egeria(&options.egeria);
    model.train_step(&first, None).unwrap();
    for _ in 0..2 {
        optimizer.step(&mut model.params_mut()).unwrap();
    }
    for p in model.params() {
        h.f32s(p.value.data());
    }
    h.0
}

fn digest_built(b: Built) -> u64 {
    let val = b.val.as_ref().map(|(set, l)| (set.as_ref(), l));
    digest(
        b.model,
        b.train.as_ref(),
        &b.loader,
        val,
        b.optimizer,
        b.schedule.as_ref(),
        &b.options,
    )
}

const EXPECTED: [(&str, u64); 12] = [
    ("resnet50", 0x2150_0ef6_a676_b196),
    ("mobilenet_v2", 0xbed4_d30b_2190_1e29),
    ("resnet56", 0xa2c9_5b4e_8ba9_bf50),
    ("deeplabv3", 0x0d23_148a_7266_c32a),
    ("transformer_base", 0x3b1c_bcc4_7bab_f106),
    ("transformer_tiny", 0x3c99_f0a8_8963_398b),
    ("bert_qa", 0xa4d8_62c6_be9b_1447),
    ("resnet", 0xcd3d_1d51_fda6_6aeb),
    ("mobilenet", 0x7639_789b_1006_df0a),
    ("deeplab", 0x57e4_8139_a3bc_d9b5),
    ("transformer", 0x8661_ff12_aa16_647d),
    ("bert_tiny", 0x9d39_7e95_3bcf_8fcf),
];

#[test]
fn every_entry_builds_what_it_is_pinned_to() {
    // Bit-level digests (BERT's pre-training and the optimizer steps run
    // kernels): pin the scalar ISA (DESIGN §5g).
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let hex = |(name, d): (&str, u64)| format!("{name} 0x{d:016x}");
    let got: Vec<String> = table1()
        .into_iter()
        .chain(scenarios())
        .map(|r| hex((r.name, digest_built(build(&r).unwrap()))))
        .collect();
    let expected: Vec<String> = EXPECTED.into_iter().map(hex).collect();
    assert_eq!(got, expected);
}
