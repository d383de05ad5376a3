//! Output-quality metrics on a fixed, seed-ordered prefix of a run's
//! outputs, so they repeat exactly run to run for one seed and move
//! only when the program's outputs change.

use cp_drc::{check_pattern, DesignRules};
use cp_squish::{SquishPattern, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Seed of the legalizer RNG used by [`legality`].
pub const QUALITY_SEED: u64 = 0x1e6a;

/// The first `len` outputs in operation order, or `None` when any
/// operation of that prefix has no output (the run did not reach it).
#[must_use]
pub fn seed_ordered_prefix<T: Clone>(outputs: &BTreeMap<u64, T>, len: usize) -> Option<Vec<T>> {
    (0..len as u64).map(|i| outputs.get(&i).cloned()).collect()
}

/// Share of `topologies` that legalize into a square `frame_nm` frame
/// (`cp_metrics::legality`, fixed RNG seed).
#[must_use]
pub fn legality(topologies: &[Topology], frame_nm: i64, rules: &DesignRules) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(QUALITY_SEED);
    cp_metrics::legality(topologies.iter(), frame_nm, rules, &mut rng).ratio()
}

/// Diversity `H` in bits (`cp_metrics::diversity`).
#[must_use]
pub fn diversity(topologies: &[Topology]) -> f64 {
    cp_metrics::diversity(topologies.iter())
}

/// Share of `patterns` that pass `cp_drc::check_pattern`; 0 when empty.
#[must_use]
pub fn clean_share(patterns: &[SquishPattern], rules: &DesignRules) -> f64 {
    if patterns.is_empty() {
        return 0.0;
    }
    let clean = patterns
        .iter()
        .filter(|p| check_pattern(p, rules).is_clean())
        .count();
    clean as f64 / patterns.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_dataset::{DatasetBuilder, Style};

    fn topologies() -> Vec<Topology> {
        Style::ALL
            .into_iter()
            .flat_map(|style| {
                DatasetBuilder::new(style)
                    .patch_nm(1024)
                    .topology_size(32)
                    .count(6)
                    .seed(4)
                    .build()
                    .topologies()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn prefix_needs_every_leading_operation() {
        let mut outputs = BTreeMap::new();
        outputs.insert(0, 'a');
        outputs.insert(1, 'b');
        outputs.insert(3, 'd');
        assert_eq!(seed_ordered_prefix(&outputs, 2), Some(vec!['a', 'b']));
        assert_eq!(seed_ordered_prefix(&outputs, 3), None);
        assert_eq!(seed_ordered_prefix(&outputs, 0), Some(vec![]));
    }

    #[test]
    fn prefix_ignores_completion_order() {
        let mut early = BTreeMap::new();
        let mut late = BTreeMap::new();
        for i in 0..5u64 {
            early.insert(i, i * 10);
        }
        for i in (0..8u64).rev() {
            late.insert(i, i * 10);
        }
        assert_eq!(
            seed_ordered_prefix(&early, 5),
            seed_ordered_prefix(&late, 5)
        );
    }

    #[test]
    fn legality_and_diversity_repeat_exactly_on_a_fixed_prefix() {
        let library = topologies();
        let rules = DesignRules::reference();
        let a = (legality(&library, 1024, &rules), diversity(&library));
        let b = (legality(&library, 1024, &rules), diversity(&library));
        assert_eq!(a, b);
        assert!(a.0 > 0.0 && a.0 <= 1.0, "legality {}", a.0);
        assert!(a.1 > 0.0, "diversity {}", a.1);
        // A shorter prefix is a different library.
        let shorter = diversity(&library[..2]);
        assert!(shorter <= a.1);
    }

    #[test]
    fn clean_share_counts_drc_clean_patterns() {
        let rules = DesignRules::reference();
        let dataset = DatasetBuilder::new(Style::Layer10003)
            .patch_nm(1024)
            .topology_size(32)
            .count(4)
            .seed(2)
            .build();
        let patterns = dataset.patterns().to_vec();
        let share = clean_share(&patterns, &rules);
        assert!((0.0..=1.0).contains(&share));
        assert_eq!(clean_share(&[], &rules), 0.0);
    }
}
