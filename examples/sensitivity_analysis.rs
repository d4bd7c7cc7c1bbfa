//! Sensitivity analysis: which AEDB parameters drive which objective?
//! (A miniature of the paper's §III-B / Figure 2.)
//!
//! ```sh
//! cargo run --release --example sensitivity_analysis
//! ```

use aedb_repro::prelude::*;

fn main() {
    let density = Density::D100;
    let networks = 3;
    let samples = 65; // paper-scale analyses use 1000+

    // The FAST99 design is mapped onto the wider §III-B domains here;
    // `evaluate_full` simulates whatever parameters it is given.
    let problem = AedbProblem::paper(Scenario::quick(density, networks));
    let bounds = AedbParams::sensitivity_bounds();
    let fast = Fast99::new(5, samples);

    println!(
        "FAST99 on {density}: {} model evaluations ({} sims each)…\n",
        fast.total_evaluations(),
        networks
    );

    let names = AedbParams::names();
    let outputs = ["broadcast_time", "coverage", "forwardings", "energy"];
    // indices[output][param]
    let all = fast.analyze_multi(4, |u| {
        let x = bounds.from_unit(u);
        let o = problem.evaluate_full(AedbParams::from_vec(&x));
        vec![o.broadcast_time, o.coverage, o.forwardings, o.energy]
    });

    for (oi, oname) in outputs.iter().enumerate() {
        println!("influence on {oname}:");
        for (pi, pname) in names.iter().enumerate() {
            let idx = all[oi][pi];
            let bar = |v: f64| "█".repeat((v * 30.0).round() as usize);
            println!(
                "  {:<20} main {:>5.2} {:<30} interactions {:>5.2} {}",
                pname,
                idx.first_order,
                bar(idx.first_order),
                idx.interaction(),
                bar(idx.interaction())
            );
        }
        println!();
    }
    println!("expected (paper Table I): delays dominate broadcast_time; border and");
    println!("neighbors thresholds dominate energy/forwardings/coverage; margin is inert.");
}
