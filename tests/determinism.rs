//! Reproducibility guarantees across the whole stack — the paper's
//! protocol ("these 10 networks are always the same for evaluating every
//! solution") depends on them.

use aedb_repro::aedb::problem::SimStats;
use aedb_repro::prelude::*;

#[test]
fn fixed_networks_are_bitwise_stable() {
    let scenario = Scenario::paper(Density::D100);
    let p = AedbParams::default_config();
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 3));
    // simulate the same network twice -> identical observables
    let a = problem.simulate_one(p, 0);
    let b = problem.simulate_one(p, 0);
    assert_eq!(a, b);
    // distinct networks -> (almost surely) different observables
    let c = problem.simulate_one(p, 1);
    assert_ne!(a, c, "different seeds should give different networks");
    // the seed schedule itself is stable
    assert_eq!(scenario.network_seed(3), scenario.network_seed(3));
}

#[test]
fn nsga2_runs_are_reproducible_on_aedb() {
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2));
    let alg = Nsga2::new(Nsga2Config {
        population: 8,
        max_evaluations: 48,
    });
    let a = alg.run(&problem, 77);
    let b = alg.run(&problem, 77);
    assert_eq!(
        a.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>(),
        b.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn cellde_runs_are_reproducible_on_aedb() {
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2));
    let alg = CellDe::new(CellDeConfig {
        grid_side: 3,
        max_evaluations: 48,
        ..Default::default()
    });
    let a = alg.run(&problem, 5);
    let b = alg.run(&problem, 5);
    assert_eq!(
        a.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>(),
        b.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>()
    );
}

/// Front size and FNV-1a digest of the objective and violation bits of
/// every front member, in archive order.
fn front_digest(front: &[Candidate]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in front {
        for v in c.objectives.iter().chain([&c.violation]) {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (front.len(), h)
}

/// `front_digest` of a 2 × 2-walker, 10-evaluation AEDB-MLS run on
/// `Scenario::quick(D100, 2)` with seed 31. A change to the engine's
/// random streams, round structure or archive order moves it; a
/// deliberate one updates it in the same commit and bumps
/// `CampaignSpec::fingerprint`.
const GOLDEN_MLS_FRONT: (usize, u64) = (3, 0x48c7_b498_29a0_d80d);

#[test]
fn mls_runs_are_reproducible_on_aedb() {
    // Lockstep rounds make a multi-walker run a pure function of its
    // seed: two runs, and a run with the batch pool off, give the same
    // front bit for bit.
    let mls = Mls::new(MlsConfig {
        criteria: CriteriaChoice::Aedb,
        ..MlsConfig::quick(2, 2, 10)
    });
    let run = |parallel: bool| {
        let problem =
            AedbProblem::paper(Scenario::quick(Density::D100, 2)).with_parallel_batches(parallel);
        let r = mls.optimize(&problem, 31);
        assert_eq!(r.evaluations, 40);
        front_digest(&r.front)
    };
    let a = run(true);
    assert_eq!(run(true), a, "two runs of one seed");
    assert_eq!(run(false), a, "batch pool on vs off");
    assert_eq!(a, GOLDEN_MLS_FRONT);
}

/// `front_digest` of every other optimizer on `Scenario::quick(D100, 2)`
/// with a 40-evaluation budget and seed 31. Like `GOLDEN_MLS_FRONT`, these
/// pin absolute outputs: a change to the simulator, the evaluation
/// pipeline or an optimizer's random streams moves them, and a deliberate
/// one updates them in the same commit.
const GOLDEN_FRONTS: [(&str, (usize, u64)); 5] = [
    ("NSGAII", (4, 0x9be2_5632_84a2_56db)),
    ("MOCell", (3, 0x5a12_1fef_56e2_69d9)),
    ("CellDE", (9, 0x0731_4468_3ba5_d8da)),
    ("CellDE+MLS", (5, 0xd24a_da11_cbff_78df)),
    ("Island", (3, 0xa02f_fbfd_5ce8_15eb)),
];

#[test]
fn golden_fronts_pin_every_optimizer() {
    let island = IslandConfig::quick(2, 40);
    let algorithms: [Box<dyn MoAlgorithm>; 5] = [
        Box::new(Nsga2::new(Nsga2Config {
            population: 8,
            max_evaluations: 40,
        })),
        Box::new(MoCell::new(MoCellConfig::quick(3, 40))),
        Box::new(CellDe::new(CellDeConfig {
            grid_side: 3,
            max_evaluations: 40,
            ..Default::default()
        })),
        Box::new(CellDeMls::new(CellDeMlsConfig::quick(40))),
        Box::new(IslandOptimizer::new(island)),
    ];
    for (alg, (name, want)) in algorithms.iter().zip(GOLDEN_FRONTS) {
        assert_eq!(alg.name(), name);
        let run = |parallel: bool| {
            let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2))
                .with_parallel_batches(parallel);
            front_digest(&alg.run(&problem, 31).front)
        };
        let a = run(true);
        assert_eq!(run(true), a, "{name}: two runs of one seed");
        assert_eq!(run(false), a, "{name}: batch pool on vs off");
        assert_eq!(a, want, "{name}");
    }
}

#[test]
fn mls_evaluates_each_round_as_one_checkpointed_batch() {
    // P·T walkers, E evaluations each, N networks, cache off, one thread:
    // the starts and every round are one batch of P·T fresh candidates.
    // Each network's prefix is simulated once for the problem's life, and
    // every simulation restores it.
    let (pops, walkers, evals) = (2u64, 2u64, 5u64);
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2))
        .with_eval_cache(false)
        .with_parallel_batches(false);
    let n = problem.scenario().n_networks as u64;
    let mls = Mls::new(MlsConfig {
        criteria: CriteriaChoice::Aedb,
        ..MlsConfig::quick(pops as usize, walkers as usize, evals)
    });
    let r = mls.optimize(&problem, 5);
    let pt = pops * walkers;
    assert_eq!(r.evaluations, pt * evals);
    // 35 of the 40 broadcasts settle before the 40 s end and stop there.
    assert_eq!(
        problem.sim_stats(),
        SimStats {
            simulations: pt * evals * n,
            checkpoints: n,
            restores: pt * evals * n,
            settled: 35,
        }
    );
}

#[test]
fn grid_deliveries_match_naive_scan_bitwise() {
    // The spatially-indexed delivery path must produce *byte-identical*
    // BroadcastMetrics and SimCounters to the full O(n) receiver scan on
    // the paper's fixed networks — same coverage set, same loss counters,
    // same floating-point sums, for every density and protocol.
    for density in [Density::D100, Density::D200, Density::D300] {
        let scenario = Scenario::paper(density);
        for k in [0usize, 4, 9] {
            let cfg = scenario.world(k);
            let n = cfg.n_nodes();
            // AEDB under tuning parameters
            let params = AedbParams::default_config();
            let mut fast = Simulator::from_world(&cfg, Aedb::new(n, params));
            let mut slow = Simulator::from_world(&cfg, Aedb::new(n, params));
            slow.set_delivery_mode(DeliveryMode::Naive);
            let (rf, rs) = (fast.run_to_end(), slow.run_to_end());
            assert_eq!(rf.broadcast, rs.broadcast, "{density} network {k} (AEDB)");
            assert_eq!(rf.counters, rs.counters, "{density} network {k} (AEDB)");
            // flooding exercises max-power, high-collision regimes
            let mut fast = Simulator::from_world(&cfg, Flooding::new(n, (0.0, 0.1)));
            let mut slow = Simulator::from_world(&cfg, Flooding::new(n, (0.0, 0.1)));
            slow.set_delivery_mode(DeliveryMode::Naive);
            let (rf, rs) = (fast.run_to_end(), slow.run_to_end());
            assert_eq!(
                rf.broadcast, rs.broadcast,
                "{density} network {k} (flooding)"
            );
            assert_eq!(rf.counters, rs.counters, "{density} network {k} (flooding)");
        }
    }
}

#[test]
fn batch_evaluation_matches_sequential_on_fixed_networks() {
    // The whole batched pipeline — grid simulator, thread-pool fan-out,
    // quantized cache — must reproduce per-candidate evaluation exactly.
    let batched = AedbProblem::paper(Scenario::quick(Density::D200, 3));
    let sequential = AedbProblem::paper(Scenario::quick(Density::D200, 3)).with_eval_cache(false);
    let xs: Vec<Vec<f64>> = vec![
        AedbParams::default_config().to_vec(),
        vec![0.0, 0.5, -75.0, 0.5, 10.0],
        vec![0.9, 4.0, -92.0, 2.5, 45.0],
    ];
    let b = batched.evaluate_batch(&xs);
    for (x, ev) in xs.iter().zip(&b) {
        let s = sequential.evaluate(x);
        assert_eq!(ev.objectives, s.objectives);
        assert_eq!(ev.violation, s.violation);
    }
    // and a second pass is served entirely from the cache, unchanged
    let again = batched.evaluate_batch(&xs);
    assert_eq!(b, again);
    assert!(batched.cache_stats().0 >= xs.len() as u64);
}

#[test]
fn fast99_design_is_reproducible() {
    let f = Fast99::new(5, 129);
    assert_eq!(f.design(2), f.design(2));
    let g = Fast99::new(5, 129);
    assert_eq!(f.design(4), g.design(4));
}

#[test]
fn event_horizon_culling_never_skips_a_decodable_receiver() {
    // The PR-7 culling pin with the naive scan as oracle: a world of
    // tight stationary clusters spread over a large field is the shape
    // where the sweep's per-cell event horizon fires hardest (members
    // hug one corner of their cell, so whole cells near the edge of the
    // query disc are provably out of decode reach). If a bound were ever
    // too tight — skipping a cell that still held a decodable receiver —
    // the incremental run would lose deliveries the naive scan finds,
    // and the metrics/counters below would split.
    use manet::geometry::Vec2;
    use manet::mobility::MobilityModel;
    let mut groups: Vec<NodeGroup> = Vec::new();
    for (cx, cy) in [
        (120.0, 140.0),
        (480.0, 110.0),
        (840.0, 160.0),
        (150.0, 520.0),
        (500.0, 490.0),
        (860.0, 540.0),
        (130.0, 870.0),
        (510.0, 880.0),
    ] {
        groups.push(
            NodeGroup::new(12)
                .mobility(MobilityModel::Stationary)
                .placement(GroupPlacement::Rect {
                    min: Vec2::new(cx - 30.0, cy - 30.0),
                    max: Vec2::new(cx + 30.0, cy + 30.0),
                }),
        );
    }
    // A thin mobile population keeps the clusters connected so the
    // broadcast actually crosses the field (and keeps the test honest
    // about mixed-kind worlds).
    groups.push(NodeGroup::new(16).mobility(MobilityModel::RandomWalk {
        change_interval: 20.0,
    }));
    let mut builder = WorldSpec::builder()
        .area(1000.0, 1000.0)
        .broadcast_window(8.0, 12.0)
        .seed(7);
    for g in groups {
        builder = builder.group(g);
    }
    let world = builder.build().expect("valid world");
    let n = world.n_nodes();
    let run = |mode: DeliveryMode| {
        let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
        sim.set_delivery_mode(mode);
        let report = sim.run_to_end();
        (report, sim.sweep_stats())
    };
    let (inc, sweep) = run(DeliveryMode::Incremental);
    let (naive, _) = run(DeliveryMode::Naive);
    assert!(
        sweep.cells_culled > 0,
        "scenario must actually exercise the event horizon (visited {})",
        sweep.cells_visited
    );
    assert_eq!(inc.broadcast, naive.broadcast, "culling lost a receiver");
    assert_eq!(inc.counters, naive.counters, "culling lost a receiver");
}

#[test]
fn incremental_matches_naive_on_a_dense_line_across_cell_edges() {
    // A dense stationary line of nodes spanning the full field width puts
    // senders and receivers at every grid-cell edge, so decode discs and
    // interference/half-duplex reach cross into neighbouring cells all
    // along the line. If the cell walk or the frame gather were ever short
    // of decode-plus-gating reach, a receiver just across a cell edge would
    // lose a delivery — or an interferer just outside the gathered cells
    // would be missed, flipping a capture decision — and the incremental
    // run would split from the naive full scan.
    use manet::geometry::Vec2;
    use manet::mobility::MobilityModel;
    let world = WorldSpec::builder()
        .area(1200.0, 300.0)
        .broadcast_window(6.0, 10.0)
        .seed(11)
        // A horizontal band across the whole width: every grid column is
        // populated.
        .group(
            NodeGroup::new(90)
                .mobility(MobilityModel::Stationary)
                .placement(GroupPlacement::Rect {
                    min: Vec2::new(0.0, 120.0),
                    max: Vec2::new(1200.0, 180.0),
                }),
        )
        // A few mobile walkers add mid-run re-anchors and grid refreshes.
        .group(NodeGroup::new(10).mobility(MobilityModel::RandomWalk {
            change_interval: 20.0,
        }))
        .build()
        .expect("valid world");
    let n = world.n_nodes();
    let run = |mode: DeliveryMode| {
        let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
        sim.set_delivery_mode(mode);
        sim.run_to_end()
    };
    let (inc, naive) = (run(DeliveryMode::Incremental), run(DeliveryMode::Naive));
    assert_eq!(
        inc.broadcast, naive.broadcast,
        "a cell edge dropped a receiver"
    );
    assert_eq!(
        inc.counters, naive.counters,
        "a cell edge dropped a receiver"
    );
}

/// Bit patterns of `[energy, −coverage, forwardings, violation]`.
fn evaluation_bits(ev: &Evaluation) -> [u64; 4] {
    [
        ev.objectives[0].to_bits(),
        ev.objectives[1].to_bits(),
        ev.objectives[2].to_bits(),
        ev.violation.to_bits(),
    ]
}

/// Objective and violation bit patterns of `AedbProblem::evaluate` on
/// `Scenario::quick(density, 3)`, for the AEDB default configuration and
/// `[0.0, 0.2, -70.0, 1.0, 50.0]`. Cross-mode parity cannot catch a change
/// that moves every delivery mode equally; these absolute pins can. A
/// deliberate model change updates them in the same commit.
#[rustfmt::skip]
const GOLDEN_EVALUATIONS: [(Density, [[u64; 4]; 2]); 3] = [
    (
        Density::D100,
        [
            [0x40639a9193d13d8d, 0xc032555555555555, 0x4024aaaaaaaaaaab, 0],
            [0x406c92d2ba2efb7f, 0xc02e000000000000, 0x402e000000000000, 0],
        ],
    ),
    (
        Density::D200,
        [
            [0x4072e922d369eef1, 0xc048800000000000, 0x4033555555555555, 0],
            [0x4084804788896530, 0xc047555555555555, 0x4045000000000000, 0],
        ],
    ),
    (
        Density::D300,
        [
            [0x40758f45b526bc84, 0xc052800000000000, 0x4039aaaaaaaaaaab, 0x3fe35f4a0085826c],
            [0x408f943b951fe15c, 0xc052800000000000, 0x404fd55555555555, 0],
        ],
    ),
];

#[test]
fn golden_evaluations_hold_through_evaluate_and_evaluate_batch() {
    let xs: Vec<Vec<f64>> = vec![
        AedbParams::default_config().to_vec(),
        vec![0.0, 0.2, -70.0, 1.0, 50.0],
    ];
    for (density, golden) in GOLDEN_EVALUATIONS {
        let single = AedbProblem::paper(Scenario::quick(density, 3)).with_eval_cache(false);
        for (x, want) in xs.iter().zip(&golden) {
            assert_eq!(
                evaluation_bits(&single.evaluate(x)),
                *want,
                "{density} evaluate({x:?})"
            );
        }
        // Two fresh vectors on each network: the batch simulates each
        // network's protocol-free prefix once and restores it for the
        // second candidate.
        for parallel in [false, true] {
            let batch = AedbProblem::paper(Scenario::quick(density, 3))
                .with_eval_cache(false)
                .with_parallel_batches(parallel);
            let evs = batch.evaluate_batch(&xs);
            for ((x, ev), want) in xs.iter().zip(&evs).zip(&golden) {
                assert_eq!(
                    evaluation_bits(ev),
                    *want,
                    "{density} evaluate_batch({x:?}), parallel = {parallel}"
                );
            }
        }
    }
}

/// The pinned `SimReport` fields, in order: energy, last reception and
/// start-time bits, then coverage, forwardings, data collisions and
/// duplicates, then every `SimCounters` field.
fn report_digest(r: &SimReport) -> [u64; 14] {
    let b = &r.broadcast;
    let c = &r.counters;
    [
        b.energy_dbm_sum.to_bits(),
        b.last_rx_time.to_bits(),
        b.start_time.to_bits(),
        b.coverage() as u64,
        b.forwardings as u64,
        b.collisions as u64,
        b.duplicates as u64,
        c.beacons_sent,
        c.beacons_received,
        c.data_sent,
        c.data_received,
        c.collision_losses,
        c.half_duplex_losses,
        c.timers_fired,
    ]
}

/// `report_digest` of network 0 of each scenario, run to its end under
/// `Flooding` with `(0, 0.1)` s jitter: one shadowed homogeneous world
/// and one heterogeneous world (stationary high-power mesh plus waypoint
/// walkers). They pin the full-horizon run — every beacon up to
/// `end_time` — that `run_to_end` serves; a deliberate model change
/// updates them in the same commit.
#[rustfmt::skip]
const GOLDEN_REPORTS: [(&str, [u64; 14]); 2] = [
    ("60@200@4", [
        0x408d0947ae147adb, 0x403e338cc271321e, 0x403e000000000000,
        58, 58, 405, 231,
        2405, 27826, 59, 292, 804, 58, 58,
    ]),
    ("40@200+20:still:20dbm+15:rwp1", [
        0x40937451eb851eb6, 0x403e39903cd6984a, 0x403e000000000000,
        73, 73, 658, 257,
        2999, 38838, 74, 334, 1345, 82, 73,
    ]),
];

#[test]
fn golden_sim_reports_pin_full_horizon_runs() {
    for (spec, want) in GOLDEN_REPORTS {
        let world = DenseScenario::parse_spec(spec)
            .expect("valid spec")
            .world_spec(0);
        let n = world.n_nodes();
        let report = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1))).run();
        assert_eq!(report_digest(&report), want, "{spec}: {report:?}");
    }
}
