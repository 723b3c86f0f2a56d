//! The simulator side of the Table 1 workloads.
//!
//! The workloads themselves — model, data, optimizer, schedule, Egeria
//! knobs — are `egeria_scenarios::registry::table1` entries. This module
//! adds what only the performance simulator needs: each entry's
//! paper-scale cost profile, keyed by entry name, and the block counts that
//! spread it over the reproduction model's modules.

use egeria_models::Model;
use egeria_simsys::arch::{FlopsModel, PaperScale};
use egeria_simsys::ArchSpec;

/// The paper-scale cost spec of Table 1 entry `name`, laid over `model`'s
/// module layout.
///
/// # Panics
/// When `name` is not a Table 1 entry (the scenario families have no
/// paper-scale counterpart).
pub fn arch_spec(name: &str, model: &dyn Model) -> ArchSpec {
    use FlopsModel::{PerBlockUniform, ProportionalToParams};
    let (scale, flops) = match name {
        "resnet50" => (PaperScale::resnet50_imagenet(), PerBlockUniform),
        "mobilenet_v2" => (PaperScale::mobilenet_v2_cifar(), PerBlockUniform),
        "resnet56" => (PaperScale::resnet56_cifar(), PerBlockUniform),
        "deeplabv3" => (PaperScale::deeplabv3_voc(), PerBlockUniform),
        "transformer_base" => (PaperScale::transformer_base_wmt(), ProportionalToParams),
        "transformer_tiny" => (PaperScale::transformer_tiny_wmt(), ProportionalToParams),
        "bert_qa" => (PaperScale::bert_base_squad(), ProportionalToParams),
        other => panic!("no paper-scale profile for workload {other}"),
    };
    let modules = model.modules();
    let params: Vec<usize> = modules.iter().map(|m| m.param_count).collect();
    let blocks: Vec<usize> = modules.iter().map(|m| blocks_in_name(&m.name)).collect();
    ArchSpec::scaled(name, &params, Some(&blocks), flops, scale)
}

/// Counts the building blocks a module-name range covers: 4 for
/// `"layer3.0-layer3.3"`, 1 for a single name.
pub fn blocks_in_name(name: &str) -> usize {
    // Trailing digits of the endpoint: handles both dotted ("layer1.8")
    // and undotted ("block3") block naming.
    let parse_idx = |s: &str| -> Option<usize> {
        let digits: String = s
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_digit())
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        digits.parse::<usize>().ok()
    };
    match name.split_once('-') {
        Some((a, b)) => match (parse_idx(a), parse_idx(b)) {
            (Some(x), Some(y)) if y >= x => y - x + 1,
            _ => 1,
        },
        None => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_scenarios::registry::{build, table1};

    #[test]
    fn blocks_in_name_parses_ranges() {
        assert_eq!(blocks_in_name("layer3.0-layer3.3"), 4);
        assert_eq!(blocks_in_name("layer1.0-layer1.8"), 9);
        assert_eq!(blocks_in_name("classifier"), 1);
        assert_eq!(blocks_in_name("encoder.2"), 1);
        assert_eq!(blocks_in_name("block0-block3"), 4);
    }

    #[test]
    fn every_workload_builds_and_matches_its_spec() {
        for r in table1() {
            let b = build(&r).unwrap();
            let spec = arch_spec(r.name, b.model.as_ref());
            assert_eq!(spec.num_modules(), b.model.modules().len(), "{}", r.name);
            assert!(b.train.len() > r.batch_size);
            assert!(b.val.is_some_and(|(val, _)| !val.is_empty()));
            assert!(b.schedule.lr(0) >= 0.0);
            let modules = match r.name {
                "transformer_base" | "bert_qa" => Some(12),
                "transformer_tiny" => Some(4),
                _ => None,
            };
            if let Some(m) = modules {
                assert_eq!(b.model.modules().len(), m, "{}", r.name);
            }
        }
    }
}
