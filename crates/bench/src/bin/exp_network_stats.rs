//! Connectivity characterisation of the paper's fixed evaluation networks:
//! degree and component statistics at broadcast time (t = 30 s) for every
//! density. The source's component size is the hard ceiling on coverage,
//! which puts the Figure 6 coverage axes in context.
use aedb::scenario::{Density, Scenario};
use bench_harness::scale::ExperimentScale;
use bench_harness::tables::{f, Table};
use manet::analysis::connectivity_stats;
use manet::protocol::SourceOnly;
use manet::sim::Simulator;

fn main() {
    let scale = ExperimentScale::from_args();
    let densities = if scale.paper {
        Density::ALL.to_vec()
    } else {
        scale.densities.clone()
    };
    println!("== connectivity of the fixed evaluation networks at t = 30 s ==");
    let mut t = Table::new(vec![
        "density",
        "network",
        "mean degree",
        "components",
        "largest comp",
        "source comp",
    ]);
    for density in densities {
        let scenario = Scenario::quick(density, scale.networks);
        let mut mean_src = 0.0;
        for k in 0..scenario.n_networks {
            let world = scenario.world(k);
            let mut sim = Simulator::from_world(&world, SourceOnly);
            sim.run_until(30.0);
            let pos = sim.positions_at(30.0);
            let s = connectivity_stats(&pos, &world.radio);
            mean_src += s.source_component as f64 / scenario.n_networks as f64;
            t.row(vec![
                density.to_string(),
                k.to_string(),
                f(s.mean_degree, 2),
                s.n_components.to_string(),
                s.largest_component.to_string(),
                s.source_component.to_string(),
            ]);
        }
        t.row(vec![
            density.to_string(),
            "mean".to_string(),
            String::new(),
            String::new(),
            String::new(),
            f(mean_src, 1),
        ]);
    }
    t.print();
    println!("\nthe source-component mean is the coverage ceiling of ANY dissemination");
    println!("protocol on these networks (cf. the Figure 6 coverage axes).");
}
