//! Ring migration of archive elites between islands.

use crate::island::Island;
use mopt::solution::Candidate;

/// Elites each island sends to its ring neighbour at a migration.
pub const MIGRATION_COUNT: usize = 2;

/// Migrates `count` elites along the ring: island `i` receives the first
/// `count` archive members of island `(i−1) mod N`, taken from
/// **pre-migration snapshots** so the result is independent of the order
/// in which islands are processed. Incoming elites are offered to the
/// receiver's archive and overwrite the tail of its population (the spots
/// least likely to hold that island's own elites), consuming no RNG.
///
/// Runs serially at epoch boundaries — part of the crate's determinism
/// contract (see the [crate docs](crate)).
pub fn migrate_ring(islands: &mut [Island], count: usize) {
    let n = islands.len();
    if n < 2 || count == 0 {
        return;
    }
    let snapshots: Vec<Vec<Candidate>> = islands
        .iter()
        .map(|isl| isl.archive.members().iter().take(count).cloned().collect())
        .collect();
    for (i, island) in islands.iter_mut().enumerate() {
        let src = (i + n - 1) % n;
        let pop_len = island.population.len();
        for (k, elite) in snapshots[src].iter().enumerate() {
            island.archive.try_insert(elite.clone());
            if pop_len > 0 {
                island.population[pop_len - 1 - (k % pop_len)] = elite.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandConfig;
    use mopt::problem::test_problems::Schaffer;

    fn islands(n: usize, cfg: &IslandConfig) -> Vec<Island> {
        (0..n)
            .map(|i| {
                let mut isl = Island::new(i, 11, cfg);
                isl.init(&Schaffer::new(), cfg.population);
                isl
            })
            .collect()
    }

    #[test]
    fn elites_travel_one_ring_step() {
        let cfg = IslandConfig::quick(3, 600);
        let mut isls = islands(3, &cfg);
        let sent: Vec<Vec<Vec<f64>>> = isls
            .iter()
            .map(|isl| {
                isl.archive
                    .members()
                    .iter()
                    .take(2)
                    .map(|c| c.objectives.clone())
                    .collect()
            })
            .collect();
        migrate_ring(&mut isls, 2);
        for (i, isl) in isls.iter().enumerate() {
            let src = (i + 3 - 1) % 3;
            for elite in &sent[src] {
                assert!(
                    isl.population.iter().any(|c| &c.objectives == elite)
                        || isl.archive.members().iter().any(|c| &c.objectives == elite),
                    "island {i} never received an elite from island {src}"
                );
            }
        }
    }

    #[test]
    fn single_island_and_zero_count_are_no_ops() {
        let cfg = IslandConfig::quick(1, 200);
        let mut one = islands(1, &cfg);
        let before: Vec<Vec<f64>> = one[0].population.iter().map(|c| c.params.clone()).collect();
        migrate_ring(&mut one, 3);
        let after: Vec<Vec<f64>> = one[0].population.iter().map(|c| c.params.clone()).collect();
        assert_eq!(before, after);

        let cfg = IslandConfig::quick(2, 400);
        let mut two = islands(2, &cfg);
        let before: Vec<Vec<f64>> = two[1].population.iter().map(|c| c.params.clone()).collect();
        migrate_ring(&mut two, 0);
        let after: Vec<Vec<f64>> = two[1].population.iter().map(|c| c.params.clone()).collect();
        assert_eq!(before, after);
    }
}
