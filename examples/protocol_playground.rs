//! Protocol playground: the broadcast-storm motivation of the paper's
//! introduction, measured.
//!
//! Simulates three dissemination strategies on the same fixed networks at
//! each density and prints their coverage / energy / forwardings /
//! broadcast-time profile:
//!
//! * **Flooding** — everyone re-broadcasts at full power (the broadcast
//!   storm of Ni et al. 1999),
//! * **AEDB (hand-tuned)** — a reasonable manual configuration,
//! * **AEDB (restrictive)** — a configuration that barely forwards.
//!
//! Scenarios compile through the declarative `WorldSpec` API
//! (`Scenario::world` → `Simulator::from_world`), and a final section
//! shows what that API adds: a **heterogeneous** population (mobile
//! walkers plus a stationary low-power backbone) built with the
//! `WorldSpec` builder.
//!
//! ```sh
//! cargo run --release --example protocol_playground
//! ```

use aedb_repro::prelude::*;
use manet::mobility::MobilityModel;
use manet::sim::Simulator;
use manet::world::{NodeGroup, WorldSpec};

fn run_aedb(scenario: &Scenario, params: AedbParams, nets: usize) -> (f64, f64, f64, f64) {
    let problem = AedbProblem::paper(Scenario::quick(scenario.density, nets));
    let o = problem.evaluate_full(params);
    (o.coverage, o.energy, o.forwardings, o.broadcast_time)
}

fn run_flooding(scenario: &Scenario, nets: usize) -> (f64, f64, f64, f64) {
    let (mut c, mut e, mut f, mut bt) = (0.0, 0.0, 0.0, 0.0);
    for k in 0..nets {
        let world = scenario.world(k);
        let n = world.n_nodes();
        let report = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1))).run();
        c += report.broadcast.coverage() as f64;
        e += report.broadcast.energy_dbm_sum;
        f += report.broadcast.forwardings as f64;
        bt += report.broadcast.broadcast_time();
    }
    let d = nets as f64;
    (c / d, e / d, f / d, bt / d)
}

/// The builder in action: 70 random-walk handsets plus 8 stationary
/// 10 dBm sinks on one 600 m field — two mobility models and two power
/// classes, one builder call, all three delivery paths bit-identical.
fn run_heterogeneous() {
    let spec = WorldSpec::builder()
        .area(600.0, 600.0)
        .seed(42)
        .group(NodeGroup::new(70))
        .group(
            NodeGroup::new(8)
                .mobility(MobilityModel::Stationary)
                .tx_power_dbm(10.0),
        )
        .build()
        .expect("valid spec");
    let n = spec.n_nodes();
    let report = Simulator::from_world(&spec, Flooding::new(n, (0.0, 0.1))).run();
    println!(
        "heterogeneous world (70 walkers + 8 stationary 10 dBm sinks): \
         coverage {}/{}, forwardings {}, bt {:.3} s",
        report.broadcast.coverage(),
        n - 1,
        report.broadcast.forwardings,
        report.broadcast.broadcast_time()
    );
}

fn main() {
    let nets = 5;
    let tuned = AedbParams::default_config();
    let restrictive = AedbParams {
        min_delay: 0.5,
        max_delay: 3.0,
        border_threshold: -94.0,
        margin_threshold: 0.5,
        neighbors_threshold: 2.0,
    };

    println!(
        "{:<14} {:<18} {:>9} {:>13} {:>12} {:>8}",
        "density", "strategy", "coverage", "energy (dBm)", "forwardings", "bt (s)"
    );
    for density in Density::ALL {
        let scenario = Scenario::quick(density, nets);
        let rows = [
            ("flooding", run_flooding(&scenario, nets)),
            ("AEDB tuned", run_aedb(&scenario, tuned, nets)),
            ("AEDB restrictive", run_aedb(&scenario, restrictive, nets)),
        ];
        for (name, (c, e, f, bt)) in rows {
            println!(
                "{:<14} {:<18} {:>9.1} {:>13.1} {:>12.1} {:>8.3}",
                density.to_string(),
                name,
                c,
                e,
                f,
                bt
            );
        }
        println!();
    }
    run_heterogeneous();
    println!();
    println!("note how flooding maximises coverage but pays ~16 dBm per node in a storm of");
    println!("forwardings, while AEDB trades a little coverage for a fraction of the energy.");
}
