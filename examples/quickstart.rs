//! Quickstart: tune the AEDB protocol with AEDB-MLS on the sparsest
//! scenario and print the trade-off front.
//!
//! (The `aedb_repro` crate-level docs carry the doctest version of this
//! quickstart; this example adds the optimisation run and a first look at
//! the declarative `WorldSpec` scenario builder.)
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aedb_repro::prelude::*;
use manet::mobility::MobilityModel;
use manet::sim::Simulator;
use manet::world::{NodeGroup, WorldSpec};

fn main() {
    // Scenarios are declarative: a WorldSpec describes the field and the
    // node population (here the paper's 25-node sparse setup plus two
    // stationary low-power sinks) and compiles straight into a simulator.
    let world = WorldSpec::builder()
        .seed(1)
        .group(NodeGroup::new(25))
        .group(
            NodeGroup::new(2)
                .mobility(MobilityModel::Stationary)
                .tx_power_dbm(10.0),
        )
        .build()
        .expect("valid spec");
    let n = world.n_nodes();
    // The default incremental delivery path; `sim.set_delivery_mode(
    // DeliveryMode::Naive)` would select the all-nodes oracle, which gives
    // the same report bit for bit.
    let report = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1))).run();
    println!(
        "warm-up: flooding on a {}-node mixed world reaches {} devices\n",
        n,
        report.broadcast.coverage()
    );

    // The paper's problem: density 100 devices/km², fitness averaged over
    // fixed networks (3 here to keep the example fast; the paper uses 10).
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 3));

    // AEDB-MLS, laptop-sized: 2 populations × 2 walkers × 150 evaluations.
    // `MlsConfig::paper()` reproduces the full 8 × 12 × 250 setup.
    let config = MlsConfig {
        criteria: CriteriaChoice::Aedb,
        ..MlsConfig::quick(2, 2, 150)
    };
    let mls = Mls::new(config);

    println!(
        "tuning AEDB on {} ({} evaluations)…",
        Density::D100,
        mls.config.total_evaluations()
    );
    let result = mls.optimize(&problem, 42);
    println!(
        "done in {:.2?}: {} evaluations, {} non-dominated configurations\n",
        result.elapsed,
        result.evaluations,
        result.front.len()
    );

    println!(
        "{:>12} {:>10} {:>13} | {:>9} {:>9} {:>8} {:>7} {:>10}",
        "energy(dBm)",
        "coverage",
        "forwardings",
        "min_delay",
        "max_delay",
        "border",
        "margin",
        "neighbors"
    );
    let mut front = result.front.clone();
    front.sort_by(|a, b| a.objectives[0].total_cmp(&b.objectives[0]));
    for c in &front {
        let p = AedbParams::from_vec(&c.params);
        println!(
            "{:>12.2} {:>10.2} {:>13.2} | {:>9.2} {:>9.2} {:>8.1} {:>7.2} {:>10.1}",
            c.objectives[0],
            -c.objectives[1],
            c.objectives[2],
            p.min_delay,
            p.max_delay,
            p.border_threshold,
            p.margin_threshold,
            p.neighbors_threshold
        );
    }

    // Pick the knee-ish point: highest coverage per unit of energy+1.
    if let Some(best) = front.iter().max_by(|a, b| {
        let score = |c: &Candidate| -c.objectives[1] / (c.objectives[0].max(0.0) + 10.0);
        score(a).total_cmp(&score(b))
    }) {
        let p = AedbParams::from_vec(&best.params);
        println!("\nsuggested configuration: {p:#?}");
    }
}
