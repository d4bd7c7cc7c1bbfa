//! Configuration of the island optimizer.

/// Parameters of an [`IslandOptimizer`](crate::IslandOptimizer) run.
#[derive(Debug, Clone)]
pub struct IslandConfig {
    /// Number of islands (ring length).
    pub islands: usize,
    /// Steady-state population per island.
    pub population: usize,
    /// Capacity of each island's bounded elite archive.
    pub archive_capacity: usize,
    /// Evaluations each island performs per epoch (the synchronisation
    /// granularity; smaller = finer anytime stream, more merge overhead).
    pub epoch_evals: u64,
    /// Migrate every this many epochs (`0` disables migration); each
    /// migration sends [`MIGRATION_COUNT`](crate::migration::MIGRATION_COUNT)
    /// elites to the ring neighbour.
    pub migration_every: u64,
    /// Total evaluation budget across all islands.
    pub max_evaluations: u64,
}

impl Default for IslandConfig {
    fn default() -> Self {
        Self {
            islands: 4,
            population: 20,
            archive_capacity: 50,
            epoch_evals: 40,
            migration_every: 2,
            max_evaluations: 25_000,
        }
    }
}

impl IslandConfig {
    /// A reduced configuration for tests and interactive runs: small
    /// populations scaled to the budget, fine-grained epochs.
    pub fn quick(islands: usize, max_evaluations: u64) -> Self {
        let islands = islands.max(1);
        let population = (max_evaluations / (islands as u64 * 10)).clamp(8, 20) as usize;
        Self {
            islands,
            population,
            archive_capacity: 2 * population,
            epoch_evals: population as u64,
            max_evaluations,
            ..Self::default()
        }
    }
}
