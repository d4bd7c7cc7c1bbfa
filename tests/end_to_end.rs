//! End-to-end integration: the full pipeline of the paper — simulator →
//! protocol → tuning problem → optimisers → archive → indicators — on
//! laptop-sized budgets.

use aedb_repro::mopt::archive::ARCHIVE_BISECTIONS;
use aedb_repro::prelude::*;

fn quick_problem() -> AedbProblem {
    AedbProblem::paper(Scenario::quick(Density::D100, 2))
}

#[test]
fn mls_tunes_aedb() {
    let problem = quick_problem();
    let mls = Mls::new(MlsConfig {
        criteria: CriteriaChoice::Aedb,
        ..MlsConfig::quick(2, 2, 40)
    });
    let result = mls.optimize(&problem, 1);
    assert_eq!(result.evaluations, 2 * 2 * 40);
    assert!(!result.front.is_empty());
    let bounds = AedbParams::bounds();
    for c in &result.front {
        assert!(c.is_feasible(), "archive holds infeasible {c:?}");
        assert!(
            bounds.contains(&c.params),
            "out-of-bounds params {:?}",
            c.params
        );
        assert_eq!(c.objectives.len(), 3);
        // coverage (negated) within physical limits
        let coverage = -c.objectives[1];
        assert!((0.0..=24.0).contains(&coverage), "coverage {coverage}");
        assert!(c.objectives[2] >= 0.0, "negative forwardings");
    }
    // at least one configuration actually disseminates
    assert!(
        result.front.iter().any(|c| -c.objectives[1] > 0.0),
        "no configuration reached any node"
    );
}

#[test]
fn three_algorithms_produce_comparable_fronts() {
    let problem = quick_problem();
    let evals = 120u64;
    let algorithms: Vec<Box<dyn MoAlgorithm>> = vec![
        Box::new(CellDe::new(CellDeConfig {
            grid_side: 4,
            max_evaluations: evals,
            ..Default::default()
        })),
        Box::new(Nsga2::new(Nsga2Config {
            population: 16,
            max_evaluations: evals,
        })),
        Box::new(Mls::new(MlsConfig {
            criteria: CriteriaChoice::Aedb,
            ..MlsConfig::quick(2, 2, (evals as f64 * 2.4 / 4.0) as u64)
        })),
    ];
    let runs: Vec<RunResult> = algorithms.iter().map(|a| a.run(&problem, 3)).collect();

    // combined reference front (paper's normalisation protocol)
    let mut combined = AgaArchive::new(200, ARCHIVE_BISECTIONS);
    for r in &runs {
        assert!(!r.front.is_empty());
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

    for (alg, run) in algorithms.iter().zip(&runs) {
        let nf = norm.apply_front(&run.objectives());
        let spread = generalized_spread(&nf, &nref);
        let igd = inverted_generational_distance(&nf, &nref);
        let hv = hypervolume(&nf, &[1.1, 1.1, 1.1]);
        assert!(spread.is_finite(), "{}: spread", alg.name());
        assert!(igd.is_finite() && igd >= 0.0, "{}: igd", alg.name());
        assert!(
            (0.0..=1.1f64.powi(3)).contains(&hv),
            "{}: hv {hv}",
            alg.name()
        );
    }
}

#[test]
fn merged_front_dominates_no_worse_than_parts() {
    let problem = quick_problem();
    let mls = Mls::new(MlsConfig {
        criteria: CriteriaChoice::Aedb,
        ..MlsConfig::quick(1, 2, 40)
    });
    let r1 = mls.optimize(&problem, 10);
    let r2 = mls.optimize(&problem, 11);

    let mut merged = AgaArchive::new(100, ARCHIVE_BISECTIONS);
    for c in r1.front.iter().chain(&r2.front) {
        merged.try_insert(c.clone());
    }
    // every merged member must be non-dominated w.r.t. both run fronts
    for m in merged.members() {
        for other in r1.front.iter().chain(&r2.front) {
            assert!(
                !mopt::dominance::dominates(other, m),
                "merged member dominated by a source solution"
            );
        }
    }
}

#[test]
fn evaluation_counting_through_pipeline() {
    use mopt::problem::CountingProblem;
    let problem = CountingProblem::new(quick_problem());
    let nsga = Nsga2::new(Nsga2Config {
        population: 8,
        max_evaluations: 64,
    });
    let r = nsga.run(&problem, 5);
    assert_eq!(r.evaluations, 64);
    assert_eq!(problem.evaluations(), 64, "problem-side count must agree");
}

#[test]
fn wilcoxon_on_real_indicator_samples() {
    // Tiny version of Table IV's machinery over real runs.
    let problem = quick_problem();
    let evals = 60u64;
    let mk_runs = |seed0: u64| -> Vec<f64> {
        (0..4)
            .map(|k| {
                let alg = Nsga2::new(Nsga2Config {
                    population: 8,
                    max_evaluations: evals,
                });
                let r = alg.run(&problem, seed0 + k);
                r.front.len() as f64
            })
            .collect()
    };
    let a = mk_runs(100);
    let b = mk_runs(200);
    if let Some(t) = wilcoxon_rank_sum(&a, &b) {
        assert!((0.0..=1.0).contains(&t.p_value));
    }
}

#[test]
fn tuning_problem_poses_heterogeneous_worlds() {
    // A heterogeneous dense scenario (mixed mobility + a low-power
    // stationary backbone, straight from the shared text grammar) flows
    // through the whole evaluation pipeline: Scenario::world →
    // Simulator::from_world → AedbProblem::evaluate. Deterministic, and
    // distinct from the homogeneous scenario of the same size.
    use manet::mobility::MobilityModel;

    let dense = DenseScenario::parse_spec("60@200+8:still:10dbm").expect("valid spec");
    assert_eq!(dense.n_nodes, 68);
    let scenario = Scenario::dense(dense.clone(), 2);
    let world = scenario.world(1);
    assert_eq!(world.n_nodes(), 68);
    assert_eq!(world.groups[1].mobility, MobilityModel::Stationary);
    assert_eq!(world.groups[1].tx_power_dbm, Some(10.0));

    let problem = AedbProblem::paper(scenario).with_eval_cache(false);
    let x = AedbParams::default_config().to_vec();
    let a = problem.evaluate(&x);
    let b = problem.evaluate(&x);
    assert_eq!(a, b, "heterogeneous evaluation must be deterministic");
    assert!(-a.objectives[1] > 0.0, "broadcast reached nobody");

    let homogeneous =
        AedbProblem::paper(Scenario::dense(DenseScenario::new(200, 68), 2)).with_eval_cache(false);
    assert_ne!(
        a,
        homogeneous.evaluate(&x),
        "groups must change the posed problem"
    );
}
