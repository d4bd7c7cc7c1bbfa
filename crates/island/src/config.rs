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
    /// Adaptive-grid bisections of each island archive (PAES default: 5).
    pub archive_bisections: u32,
    /// Evaluations each island performs per epoch (the synchronisation
    /// granularity; smaller = finer anytime stream, more merge overhead).
    pub epoch_evals: u64,
    /// Migrate every this many epochs (`0` disables migration).
    pub migration_every: u64,
    /// Elites sent to the ring neighbour at each migration.
    pub migration_count: usize,
    /// Total evaluation budget across all islands.
    pub max_evaluations: u64,
    /// SBX crossover probability.
    pub crossover_prob: f64,
    /// SBX distribution index.
    pub crossover_eta: f64,
    /// Polynomial-mutation probability per variable; `None` = `1/n`.
    pub mutation_prob: Option<f64>,
    /// Polynomial-mutation distribution index.
    pub mutation_eta: f64,
}

impl Default for IslandConfig {
    fn default() -> Self {
        Self {
            islands: 4,
            population: 20,
            archive_capacity: 50,
            archive_bisections: 5,
            epoch_evals: 40,
            migration_every: 2,
            migration_count: 2,
            max_evaluations: 25_000,
            crossover_prob: 0.9,
            crossover_eta: 20.0,
            mutation_prob: None,
            mutation_eta: 20.0,
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
