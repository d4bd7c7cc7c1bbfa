//! Head-to-head: AEDB-MLS vs NSGA-II vs CellDE on the AEDB tuning problem
//! (a miniature of the paper's §VI evaluation).
//!
//! ```sh
//! cargo run --release --example compare_algorithms
//! ```

use aedb_repro::mopt::archive::ARCHIVE_BISECTIONS;
use aedb_repro::prelude::*;

fn main() {
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 3));
    let evals = 200u64;

    let algorithms: Vec<Box<dyn MoAlgorithm>> = vec![
        Box::new(CellDe::new(CellDeConfig {
            grid_side: 5,
            max_evaluations: evals,
            ..Default::default()
        })),
        Box::new(Nsga2::new(Nsga2Config::quick(20, evals))),
        // the paper gives MLS 2.4× the evaluations — it is still far faster
        // wall-clock in the parallel setting
        Box::new(Mls::new(MlsConfig {
            criteria: CriteriaChoice::Aedb,
            ..MlsConfig::quick(2, 2, (evals as f64 * 2.4 / 4.0) as u64)
        })),
    ];

    // Run everything, then build the combined reference front for fair,
    // normalised indicators (the paper's protocol).
    let runs: Vec<RunResult> = algorithms.iter().map(|a| a.run(&problem, 7)).collect();
    let mut combined = AgaArchive::new(300, ARCHIVE_BISECTIONS);
    for r in &runs {
        for c in &r.front {
            combined.try_insert(c.clone());
        }
    }
    let reference: Vec<Vec<f64>> = combined
        .members()
        .iter()
        .map(|c| c.objectives.clone())
        .collect();
    let norm = Normalizer::from_points(&reference).expect("non-empty reference");
    let nref = norm.apply_front(&reference);

    println!(
        "{:<10} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "algorithm", "|front|", "evals", "time (s)", "spread", "IGD", "HV"
    );
    for (alg, run) in algorithms.iter().zip(&runs) {
        let nf = norm.apply_front(&run.objectives());
        println!(
            "{:<10} {:>7} {:>10} {:>9.2} {:>9.4} {:>9.4} {:>9.4}",
            alg.name(),
            run.front.len(),
            run.evaluations,
            run.elapsed.as_secs_f64(),
            generalized_spread(&nf, &nref),
            inverted_generational_distance(&nf, &nref),
            hypervolume(&nf, &[1.1, 1.1, 1.1]),
        );
    }
    println!("\nexpected shape (paper §VI): MLS competitive on spread, a bit behind on");
    println!("IGD/HV, evaluations 2.4× the MOEAs — but embarrassingly parallel.");
}
