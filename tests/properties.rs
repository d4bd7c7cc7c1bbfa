//! Cross-crate property-based tests (proptest): invariants of the archive,
//! dominance relation, indicators, operators and the simulator geometry
//! under randomised inputs.

use aedb_repro::prelude::*;
use mopt::dominance::{constrained_dominance, pareto_dominance, DominanceOrd};
use mopt::indicators::hypervolume;
use mopt::ops::blx_alpha_step;
use proptest::prelude::*;

fn objective_vec(m: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominance_is_antisymmetric(a in objective_vec(3), b in objective_vec(3)) {
        let ab = pareto_dominance(&a, &b);
        let ba = pareto_dominance(&b, &a);
        match ab {
            DominanceOrd::Dominates => prop_assert_eq!(ba, DominanceOrd::DominatedBy),
            DominanceOrd::DominatedBy => prop_assert_eq!(ba, DominanceOrd::Dominates),
            DominanceOrd::Indifferent => prop_assert_eq!(ba, DominanceOrd::Indifferent),
        }
    }

    #[test]
    fn dominance_is_irreflexive(a in objective_vec(4)) {
        prop_assert_eq!(pareto_dominance(&a, &a), DominanceOrd::Indifferent);
    }

    #[test]
    fn archive_members_mutually_nondominated(
        points in prop::collection::vec(objective_vec(2), 1..60),
        cap in 2usize..20,
    ) {
        let mut archive = AgaArchive::new(cap, 4);
        for p in &points {
            archive.try_insert(Candidate::evaluated(vec![], p.clone(), 0.0));
        }
        prop_assert!(archive.len() <= cap);
        let ms = archive.members();
        for i in 0..ms.len() {
            for j in 0..ms.len() {
                if i != j {
                    prop_assert_ne!(
                        constrained_dominance(&ms[j], &ms[i]),
                        DominanceOrd::Dominates
                    );
                }
            }
        }
    }

    #[test]
    fn archive_never_loses_global_best_per_objective(
        points in prop::collection::vec(objective_vec(2), 1..50),
    ) {
        // insert all, track the running non-dominated minimum of each axis
        let mut archive = AgaArchive::new(8, 3);
        for p in &points {
            archive.try_insert(Candidate::evaluated(vec![], p.clone(), 0.0));
        }
        for d in 0..2 {
            let global = points.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min);
            let archived = archive.members().iter()
                .map(|c| c.objectives[d]).fold(f64::INFINITY, f64::min);
            // AGA property (i): extremes of every objective are retained
            prop_assert!(archived <= global + 1e-9,
                "axis {}: archive best {} vs global {}", d, archived, global);
        }
    }

    #[test]
    fn hypervolume_monotone_under_union(
        a in prop::collection::vec(objective_vec(2), 1..12),
        b in prop::collection::vec(objective_vec(2), 1..12),
    ) {
        let r = [150.0, 150.0];
        let hv_a = hypervolume(&a, &r);
        let mut ab = a.clone();
        ab.extend(b.iter().cloned());
        let hv_ab = hypervolume(&ab, &r);
        prop_assert!(hv_ab >= hv_a - 1e-9, "{hv_ab} < {hv_a}");
    }

    #[test]
    fn hypervolume_3d_consistent_with_monte_carlo_bound(
        pts in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 1..10),
    ) {
        let r = [1.0, 1.0, 1.0];
        let hv = hypervolume(&pts, &r);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&hv));
        // lower bound: largest single-point box
        let best = pts.iter()
            .map(|p| (1.0 - p[0]).max(0.0) * (1.0 - p[1]).max(0.0) * (1.0 - p[2]).max(0.0))
            .fold(0.0f64, f64::max);
        prop_assert!(hv >= best - 1e-9);
    }

    #[test]
    fn blx_step_stays_in_theoretical_interval(
        sp in -50.0f64..50.0,
        tp in -50.0f64..50.0,
        alpha in 0.01f64..0.99,
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let v = blx_alpha_step(sp, tp, alpha, &mut rng);
        let phi = alpha * (sp - tp).abs();
        prop_assert!(v >= sp - 2.0 * phi - 1e-9);
        prop_assert!(v <= sp + phi + 1e-9);
    }

    #[test]
    fn field_reflection_always_inside(
        x in -10_000.0f64..10_000.0,
        y in -10_000.0f64..10_000.0,
        w in 1.0f64..2000.0,
        h in 1.0f64..2000.0,
    ) {
        let field = manet::geometry::Field::new(w, h);
        let p = field.reflect(manet::geometry::Vec2::new(x, y));
        prop_assert!(field.contains(p), "{:?} escaped {}x{}", p, w, h);
    }

    #[test]
    fn radio_range_inversion_round_trips(
        tx in -10.0f64..20.0,
        rx in -96.0f64..-40.0,
    ) {
        let pl = manet::radio::PathLoss::ns3_default();
        prop_assume!(tx > rx);
        let d = pl.range_for(tx, rx);
        let back = pl.rx_dbm(tx, d);
        // exact except at the clamp region below the reference distance
        if d > 1.0 {
            prop_assert!((back - rx).abs() < 1e-6, "d={d} back={back} rx={rx}");
        }
    }

    #[test]
    fn bounds_clamp_idempotent(
        vals in prop::collection::vec(-1e6f64..1e6, 5),
    ) {
        let b = AedbParams::bounds();
        let mut x = vals.clone();
        b.clamp(&mut x);
        prop_assert!(b.contains(&x));
        let mut y = x.clone();
        b.clamp(&mut y);
        prop_assert_eq!(x, y);
    }

    #[test]
    fn wilcoxon_p_value_in_unit_interval(
        a in prop::collection::vec(-10.0f64..10.0, 2..30),
        b in prop::collection::vec(-10.0f64..10.0, 2..30),
    ) {
        if let Some(r) = wilcoxon_rank_sum(&a, &b) {
            prop_assert!((0.0..=1.0).contains(&r.p_value), "p = {}", r.p_value);
        }
    }
}

proptest! {
    // simulator cases are costlier — fewer cases
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simulation_invariants_hold_for_random_configs(
        min_delay in 0.0f64..1.0,
        delay_span in 0.0f64..4.0,
        border in -95.0f64..-70.0,
        margin in 0.0f64..3.0,
        neighbors in 0.0f64..50.0,
        seed in 0u64..50,
    ) {
        let params = AedbParams {
            min_delay,
            max_delay: min_delay + delay_span,
            border_threshold: border,
            margin_threshold: margin,
            neighbors_threshold: neighbors,
        };
        let scenario = Scenario::quick(Density::D100, 1);
        let mut cfg = scenario.sim_config(0);
        cfg.seed = seed; // random network
        let n = cfg.n_nodes;
        let report = Simulator::new(cfg, Aedb::new(n, params)).run();
        let b = &report.broadcast;
        prop_assert!(b.coverage() < n);
        prop_assert!(b.forwardings <= n, "more forwardings than nodes");
        prop_assert!(b.broadcast_time() >= 0.0 && b.broadcast_time() <= 10.0);
        // every forwarding transmits at most the default power
        prop_assert!(b.energy_dbm_sum <= b.forwardings as f64 * 16.02 + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn threshold_band_matches_db_test_at_exact_threshold_distances(
        tx_dbm in -20.0f64..30.0,
        threshold_dbm in -110.0f64..-40.0,
        // relative offsets straddling the exact inverted threshold, down
        // to a fraction of the band width
        offset in -1e-7f64..1e-7,
    ) {
        // The log-free receive test's soundness contract at the sharpest
        // possible inputs: distances within ±1e-7 (relative) of the exact
        // decode threshold — 100x the uncertainty band — must classify
        // identically to the dB-domain comparison whenever the fast
        // squared-distance compare claims certainty.
        let pl = manet::radio::PathLoss::ns3_default();
        prop_assume!(tx_dbm > threshold_dbm);
        let (lo2, hi2) = pl.threshold_band_sq(tx_dbm, threshold_dbm);
        let d_star = pl.range_for(tx_dbm, threshold_dbm);
        let d = d_star * (1.0 + offset);
        let d2 = d * d;
        let db_says = pl.rx_dbm(tx_dbm, d) >= threshold_dbm;
        if d2 <= lo2 {
            prop_assert!(db_says, "lo bound unsound: d={d} d*={d_star}");
        } else if d2 > hi2 {
            prop_assert!(!db_says, "hi bound unsound: d={d} d*={d_star}");
        }
        // exactly at the threshold distance itself
        let d2s = d_star * d_star;
        let db_at = pl.rx_dbm(tx_dbm, d_star) >= threshold_dbm;
        if d2s <= lo2 {
            prop_assert!(db_at);
        } else if d2s > hi2 {
            prop_assert!(!db_at);
        }
    }

    #[test]
    fn spatial_window_interference_sums_match_flat_window(
        side in 300.0f64..3000.0,
        n_frames in 1usize..120,
        n_prunes in 0usize..6,
        seed in 0u64..10_000,
    ) {
        // Random transmission traces through the spatialised window and
        // the naive oracle's model of the air — a plain `Vec` of live
        // frames in transmission order, pruned by `retain`: the sorted
        // spatial gather must see the same contributing frames in the same
        // order and accumulate bit-identical interference sums.
        use manet::events::SpatialActiveWindow;
        use manet::geometry::{Field, Vec2};
        use manet::grid::CellGeometry;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(seed);
        let field = Field::new(side, side);
        let radio = manet::radio::RadioConfig::paper();
        // a coarse frame-window cell, like the simulator's
        let cell = radio
            .interference_floor_range(radio.default_tx_dbm)
            .min(side);
        let mut flat: Vec<(f64, (Vec2, f64, f64))> = Vec::new();
        let mut spatial: SpatialActiveWindow<(Vec2, f64, f64)> =
            SpatialActiveWindow::new(CellGeometry::new(field, cell), 2);

        let durations = [0.0004, 0.0041];
        let mut t = 0.0f64;
        let mut max_gate: f64 = 0.0;
        for k in 0..n_frames {
            t += rng.gen_range(0.0..0.01);
            let lane = rng.gen_range(0..2usize);
            let pos = Vec2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let tx_dbm = rng.gen_range(-10.0..16.02);
            let gate = radio.interference_floor_range(tx_dbm);
            max_gate = max_gate.max(gate);
            let end = t + durations[lane];
            flat.push((end, (pos, tx_dbm, gate * gate)));
            spatial.insert(lane, end, pos, (pos, tx_dbm, gate * gate));
            if n_prunes > 0 && k % (n_frames / n_prunes + 1) == 0 {
                let cutoff = t - rng.gen_range(0.0..0.005);
                flat.retain(|&(end, _)| end > cutoff);
                spatial.prune(cutoff);
            }
            prop_assert_eq!(flat.len(), spatial.len());
        }

        // interference sums at random receiver positions: iterate the
        // live frames in transmission order vs the sorted spatial gather
        let pl = radio.path_loss;
        let floor = radio.rx_sensitivity_dbm - manet::radio::INTERFERENCE_FLOOR_DB;
        let mut scratch: Vec<(u64, (Vec2, f64, f64))> = Vec::new();
        for _ in 0..8 {
            let rpos = Vec2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let mut flat_sum = 0.0;
            let mut flat_terms = 0u32;
            for &(_, (pos, tx_dbm, gate_r2)) in &flat {
                let d2 = pos.distance_sq(rpos);
                if d2 > gate_r2 {
                    continue;
                }
                let rx = pl.rx_dbm(tx_dbm, d2.sqrt());
                if rx >= floor {
                    flat_sum += manet::radio::dbm_to_mw(rx);
                    flat_terms += 1;
                }
            }
            scratch.clear();
            spatial.gather_into(rpos, max_gate + 1.0, &mut scratch);
            scratch.sort_unstable_by_key(|&(seq, _)| seq);
            let mut spatial_sum = 0.0;
            let mut spatial_terms = 0u32;
            for &(_, (pos, tx_dbm, gate_r2)) in &scratch {
                let d2 = pos.distance_sq(rpos);
                if d2 > gate_r2 {
                    continue;
                }
                let rx = pl.rx_dbm(tx_dbm, d2.sqrt());
                if rx >= floor {
                    spatial_sum += manet::radio::dbm_to_mw(rx);
                    spatial_terms += 1;
                }
            }
            prop_assert_eq!(flat_terms, spatial_terms);
            prop_assert!(
                flat_sum.to_bits() == spatial_sum.to_bits(),
                "interference sums must be bit-identical: {} vs {}",
                flat_sum,
                spatial_sum
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn delivery_modes_agree_with_receivers_at_exact_decode_range(
        seed in 0u64..10_000,
        n_ring in 3usize..10,
        scale_idx in 0usize..5,
    ) {
        // Receivers placed *exactly* at the decode-threshold distance (and
        // at ±1e-9 relative nudges — inside the log-free test's fallback
        // band) from a stationary source: the sharpest inputs for the
        // squared-distance decode compare. Both delivery modes must agree
        // bit-for-bit on who decodes.
        let scale = [1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9][scale_idx];
        let mut c = SimConfig::paper(1 + n_ring, seed);
        c.mobility = manet::mobility::MobilityModel::Stationary;
        c.broadcast_time = 2.0;
        c.end_time = 4.0;
        let radio = c.radio;
        let d_star = radio
            .path_loss
            .range_for(radio.default_tx_dbm, radio.rx_sensitivity_dbm);
        let center = manet::geometry::Vec2::new(250.0, 250.0);
        let mut pts = vec![center];
        for k in 0..n_ring {
            let theta = k as f64 / n_ring as f64 * std::f64::consts::TAU;
            let p = center + manet::geometry::Vec2::from_angle(theta) * (d_star * scale);
            pts.push(p);
        }
        prop_assume!(pts.iter().all(|p| c.field.contains(*p)));
        c.placement = manet::sim::Placement::Explicit(pts);
        let n = c.n_nodes;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_mode(mode);
            sim.run_to_end()
        };
        let inc = run(DeliveryMode::Incremental);
        let naive = run(DeliveryMode::Naive);
        prop_assert_eq!(&inc.broadcast, &naive.broadcast);
        prop_assert_eq!(&inc.counters, &naive.counters);
    }

    #[test]
    fn delivery_modes_agree_on_random_mobility_traces(
        n in 5usize..36,
        seed in 0u64..10_000,
        mobility_kind in 0usize..3,
        sigma_idx in 0usize..3,
        field_side in 200.0f64..700.0,
    ) {
        // Random mobility traces across both delivery paths: the
        // incremental event-driven grid and the naive scan must report
        // identical metrics AND counters. Shadowed
        // configs are included: the +4σ bounded tail lives inside the
        // propagation model itself (see manet::radio::SHADOW_TAIL_SIGMAS,
        // whose clipped-mass error budget is asserted in the radio tests),
        // so shadowing changes *what* is simulated, never how the paths
        // relate — equality stays bit-exact.
        let mut c = SimConfig::paper(n, seed);
        c.field = manet::geometry::Field::new(field_side, field_side);
        c.mobility = match mobility_kind {
            0 => manet::mobility::MobilityModel::RandomWalk { change_interval: 5.0 },
            1 => manet::mobility::MobilityModel::RandomWaypoint { pause: 1.0 },
            _ => manet::mobility::MobilityModel::Stationary,
        };
        c.radio.shadowing_sigma_db = [0.0, 4.0, 6.0][sigma_idx];
        // Shortened protocol: enough beaconing to build neighbour tables,
        // then the broadcast — keeps 30 random sims per suite run cheap.
        c.broadcast_time = 3.0;
        c.end_time = 6.0;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_mode(mode);
            sim.run_to_end()
        };
        let inc = run(DeliveryMode::Incremental);
        let naive = run(DeliveryMode::Naive);
        prop_assert_eq!(&inc.broadcast, &naive.broadcast);
        prop_assert_eq!(&inc.counters, &naive.counters);
    }

    #[test]
    fn delivery_modes_agree_with_nodes_on_cell_boundaries(
        seed in 0u64..10_000,
        cols in 2usize..5,
        rows in 2usize..5,
        moving in 0usize..2,
    ) {
        // Nodes placed *exactly* on grid-cell boundary multiples (corners
        // and edges of the spatial index's cells): the bucketing of a
        // boundary coordinate and the snapshot filter at the exact decode
        // radius are the fenceposts the SoA query must get right. Both a
        // frozen lattice and a lattice that immediately walks off its
        // boundaries must keep both delivery paths bit-identical.
        let mut probe = SimConfig::paper(1, 0);
        probe.mobility = manet::mobility::MobilityModel::Stationary;
        let cell = Simulator::new(probe, SourceOnly).grid_cell_size();
        let mut c = SimConfig::paper(cols * rows, seed);
        c.mobility = if moving == 1 {
            manet::mobility::MobilityModel::RandomWalk { change_interval: 5.0 }
        } else {
            manet::mobility::MobilityModel::Stationary
        };
        c.broadcast_time = 3.0;
        c.end_time = 6.0;
        let pts: Vec<manet::geometry::Vec2> = (0..rows)
            .flat_map(|r| {
                (0..cols).map(move |q| {
                    manet::geometry::Vec2::new(q as f64 * cell, r as f64 * cell)
                })
            })
            .collect();
        prop_assume!(pts.iter().all(|p| c.field.contains(*p)));
        c.placement = manet::sim::Placement::Explicit(pts);
        let n = c.n_nodes;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_mode(mode);
            sim.run_to_end()
        };
        let inc = run(DeliveryMode::Incremental);
        let naive = run(DeliveryMode::Naive);
        prop_assert_eq!(&inc.broadcast, &naive.broadcast);
        prop_assert_eq!(&inc.counters, &naive.counters);
    }

    #[test]
    fn delivery_modes_agree_when_segments_change_at_query_time(
        seed in 0u64..10_000,
        ci_idx in 0usize..3,
        n in 10usize..30,
    ) {
        // Frame-end times aligned *exactly* with mobility re-draw
        // instants: data_duration == change_interval (both exact binary
        // fractions) and zero forwarding jitter put every data-frame
        // delivery query at the precise boundary between two kinematic
        // segments — the event-order tie the snapshot lanes must resolve
        // identically to the mobility structs in every delivery mode.
        let ci = [0.5, 1.0, 2.0][ci_idx];
        let mut c = SimConfig::paper(n, seed);
        c.mobility = manet::mobility::MobilityModel::RandomWalk { change_interval: ci };
        c.radio.data_duration = ci;
        c.broadcast_time = 3.0;
        c.end_time = 7.0;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.0)));
            sim.set_delivery_mode(mode);
            sim.run_to_end()
        };
        let inc = run(DeliveryMode::Incremental);
        let naive = run(DeliveryMode::Naive);
        prop_assert_eq!(&inc.broadcast, &naive.broadcast);
        prop_assert_eq!(&inc.counters, &naive.counters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn heterogeneous_worlds_agree_across_delivery_modes(
        seed in 0u64..10_000,
        n_walk in 8usize..24,
        n_other in 2usize..10,
        other_kind in 0usize..2,
        power_idx in 0usize..3,
        field_side in 250.0f64..600.0,
    ) {
        // The WorldSpec tentpole guarantee: heterogeneous populations —
        // mixed mobility models AND two radio power classes in one world —
        // keep both delivery paths bit-identical. Per-group powers
        // flow through the per-transmission threshold precomputation and
        // per-node mobility through the snapshot's kind lane, so nothing
        // in the parity argument is mode-specific.
        use manet::mobility::MobilityModel;
        use manet::world::{NodeGroup, WorldSpec};
        let other_mobility = [
            MobilityModel::Stationary,
            MobilityModel::RandomWaypoint { pause: 1.0 },
        ][other_kind];
        let other_power = [10.0, 5.0, 16.02][power_idx];
        let run = |mode: DeliveryMode| {
            let spec = WorldSpec::builder()
                .area(field_side, field_side)
                .seed(seed)
                .group(NodeGroup::new(n_walk).mobility(MobilityModel::RandomWalk {
                    change_interval: 5.0,
                }))
                .group(
                    NodeGroup::new(n_other)
                        .mobility(other_mobility)
                        .tx_power_dbm(other_power),
                )
                // Shortened protocol: enough beaconing to build neighbour
                // tables, then the broadcast.
                .broadcast_window(3.0, 6.0)
                .delivery_mode(mode)
                .build()
                .expect("valid spec");
            let n = spec.n_nodes();
            Simulator::from_world(&spec, Flooding::new(n, (0.0, 0.1))).run()
        };
        let inc = run(DeliveryMode::Incremental);
        let naive = run(DeliveryMode::Naive);
        prop_assert_eq!(&inc.broadcast, &naive.broadcast);
        prop_assert_eq!(&inc.counters, &naive.counters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scenario_grammar_round_trips(
        head_n in 1usize..5_000,
        per_km2 in 1u32..800,
        sigma_idx in 0usize..4,
        tail_count in 0usize..3,
        tail_ns in prop::collection::vec(1usize..500, 2),
        tail_mobs in prop::collection::vec(0usize..5, 2),
        tail_ps in prop::collection::vec(0usize..4, 2),
    ) {
        // parse(format(spec)) == spec over the grammar-expressible space:
        // arbitrary head density/sigma plus up to two extra groups with
        // random mobility modifiers and power classes.
        use manet::mobility::MobilityModel;
        use manet::world::NodeGroup;
        let sigma = [0.0, 2.5, 4.0, 6.25][sigma_idx];
        let mut d = DenseScenario::new(per_km2, head_n);
        if sigma > 0.0 {
            d = d.with_shadowing(sigma);
        }
        for i in 0..tail_count {
            let (n, mob_idx, p_idx) = (tail_ns[i], tail_mobs[i], tail_ps[i]);
            let mut g = NodeGroup::new(n).mobility(match mob_idx {
                0 => MobilityModel::RandomWalk { change_interval: 20.0 },
                1 => MobilityModel::RandomWalk { change_interval: 7.5 },
                2 => MobilityModel::RandomWaypoint { pause: 0.0 },
                3 => MobilityModel::RandomWaypoint { pause: 3.25 },
                _ => MobilityModel::Stationary,
            });
            if let Some(p) = [None, Some(10.0), Some(0.25), Some(-3.5)][p_idx] {
                g = g.tx_power_dbm(p);
            }
            d = d.with_group(g);
        }
        let text = d.spec_string();
        let parsed = DenseScenario::parse_spec(&text)
            .expect("canonical spec text must parse");
        prop_assert_eq!(&parsed, &d);
        // formatting is canonical: a second trip is a fixed point
        prop_assert_eq!(parsed.spec_string(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_sweep_bit_identical_to_scalar_filter(
        seed in 0u64..100_000,
        n in 1usize..64,
        cell in 20.0f64..80.0,
        n_queries in 2usize..6,
    ) {
        // The PR-7 tentpole pin, posed directly on the filter pair (the
        // full-simulation version lives in the delivery-mode agreement
        // suites above): on random kinematic snapshots mixing all three
        // SegmentKinds — with some nodes placed exactly on cell
        // boundaries — the batched lane sweep must return the *bit-exact*
        // survivors, positions and squared distances of the scalar
        // per-candidate filter, across a sequence of queries with
        // mid-sweep segment re-anchoring (grid moves + bound
        // invalidation) between them.
        use manet::geometry::{Field, Vec2};
        use manet::mobility::{KinematicSegment, SegmentKind};
        use manet::snapshot::KinematicSnapshot;
        use manet::sweep::DeliverySweep;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(seed);
        let side = 400.0;
        let field = Field::new(side, side);
        // A segment anchored at `p` at time `t0`, of a random kind; the
        // waypoint leg is physically constructed (velocity = displacement,
        // arrival from a real speed) so the event-horizon speed bound sees
        // the same data shapes the simulator produces.
        let make_segment = |rng: &mut SmallRng, p: Vec2, t0: f64| {
            match rng.gen_range(0u32..3) {
                0 => KinematicSegment {
                    kind: SegmentKind::Still,
                    origin: p,
                    velocity: Vec2::new(0.0, 0.0),
                    t0,
                    arrival: f64::INFINITY,
                    dest: p,
                },
                1 => KinematicSegment {
                    kind: SegmentKind::Walk,
                    origin: p,
                    velocity: Vec2::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)),
                    t0,
                    arrival: f64::INFINITY,
                    dest: p,
                },
                _ => {
                    let dest = Vec2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                    let speed = rng.gen_range(0.5..2.0);
                    KinematicSegment {
                        kind: SegmentKind::Waypoint,
                        origin: p,
                        velocity: dest - p,
                        t0,
                        arrival: t0 + p.distance(dest) / speed,
                        dest,
                    }
                }
            }
        };
        // Half the placements are snapped to an exact cell-boundary
        // multiple — the coordinates where a float disagreement between
        // the two filters' cell walks would surface.
        let place = |rng: &mut SmallRng| {
            let coord = |rng: &mut SmallRng| {
                if rng.gen_bool(0.5) {
                    (rng.gen_range(0.0..side / cell).floor() * cell).min(side)
                } else {
                    rng.gen_range(0.0..side)
                }
            };
            Vec2::new(coord(rng), coord(rng))
        };
        let starts: Vec<Vec2> = (0..n).map(|_| place(&mut rng)).collect();
        let segs: Vec<KinematicSegment> =
            starts.iter().map(|&p| make_segment(&mut rng, p, 0.0)).collect();
        let mut snap = KinematicSnapshot::new(field);
        snap.rebuild(field, segs.iter().copied());
        let mut grid = SpatialGrid::new(field, cell);
        grid.rebuild(n, |i| starts[i]);
        let mut sweep = DeliverySweep::new();
        sweep.reset(grid.geometry().n_cells(), n);

        let scalar = |grid: &SpatialGrid,
                      snap: &KinematicSnapshot,
                      center: Vec2,
                      t: f64,
                      radius: f64| {
            let r2 = radius * radius;
            let mut out: Vec<(usize, Vec2, f64)> = Vec::new();
            grid.for_each_in_cells(center, radius + manet::GRID_BUCKET_SLACK_M, |i| {
                let p = snap.position(i, t);
                let d2 = p.distance_sq(center);
                if d2 <= r2 {
                    out.push((i, p, d2));
                }
            });
            out.sort_unstable_by_key(|&(i, _, _)| i);
            out
        };

        let mut got: Vec<(usize, Vec2, f64)> = Vec::new();
        for q in 0..n_queries {
            let t = q as f64 * 1.5;
            let center = place(&mut rng);
            let radius = rng.gen_range(10.0..150.0);
            got.clear();
            sweep.filter_into(
                &grid,
                &snap,
                center,
                t,
                radius,
                manet::GRID_BUCKET_SLACK_M,
                &mut got,
            );
            let want = scalar(&grid, &snap, center, t, radius);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.x.to_bits(), w.1.x.to_bits());
                prop_assert_eq!(g.1.y.to_bits(), w.1.y.to_bits());
                prop_assert_eq!(g.2.to_bits(), w.2.to_bits());
            }
            // Mid-sweep re-anchoring: a few nodes get fresh segments at
            // the query time, anchored at their exact current position,
            // with the same grid-move + bound-invalidation discipline the
            // simulator follows (update, then invalidate the new cell).
            for _ in 0..rng.gen_range(0usize..4).min(n) {
                let i = rng.gen_range(0..n);
                let p = snap.position(i, t);
                snap.set(i, make_segment(&mut rng, p, t));
                grid.update_node(i, p);
                sweep.invalidate_cell(grid.node_cell(i));
            }
        }
    }

    #[test]
    fn archive_capacity_never_exceeded_mid_stream(
        points in prop::collection::vec(objective_vec(3), 1..120),
        cap in 1usize..8,
    ) {
        // The bound must hold after EVERY insert, not just at the end —
        // eviction runs inside try_insert, never lazily.
        let mut archive = AgaArchive::new(cap, 3);
        for p in &points {
            archive.try_insert(Candidate::evaluated(vec![], p.clone(), 0.0));
            prop_assert!(archive.len() <= cap);
            prop_assert!(!archive.is_empty());
        }
    }

    #[test]
    fn hypervolume_of_a_single_point_is_its_box(
        p2 in objective_vec(2),
        p3 in objective_vec(3),
        margin in 0.5f64..20.0,
    ) {
        // One point a fixed margin inside the reference dominates exactly
        // a hypercube of side `margin`.
        let r2: Vec<f64> = p2.iter().map(|v| v + margin).collect();
        let hv2 = hypervolume(std::slice::from_ref(&p2), &r2);
        prop_assert!((hv2 - margin.powi(2)).abs() < 1e-9 * margin.powi(2));
        let r3: Vec<f64> = p3.iter().map(|v| v + margin).collect();
        let hv3 = hypervolume(std::slice::from_ref(&p3), &r3);
        prop_assert!((hv3 - margin.powi(3)).abs() < 1e-9 * margin.powi(3));
    }

    #[test]
    fn hypervolume_degenerate_fronts_are_safe(
        front in prop::collection::vec(objective_vec(3), 1..12),
    ) {
        // objective_vec draws from [-100, 100), so 200-per-axis is a
        // reference every point is strictly inside.
        let reference = vec![200.0; 3];
        let hv = hypervolume(&front, &reference);
        prop_assert!(hv.is_finite() && hv >= 0.0);
        // duplicating every point changes nothing
        let mut doubled = front.clone();
        doubled.extend(front.iter().cloned());
        prop_assert!((hypervolume(&doubled, &reference) - hv).abs() <= 1e-9 * hv.max(1.0));
        // a point on the reference boundary contributes nothing
        let mut with_boundary = front.clone();
        with_boundary.push(reference.clone());
        prop_assert!((hypervolume(&with_boundary, &reference) - hv).abs() <= 1e-9 * hv.max(1.0));
        // the empty front has zero hypervolume
        let empty: Vec<Vec<f64>> = Vec::new();
        prop_assert_eq!(hypervolume(&empty, &reference), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn restored_checkpoints_reproduce_straight_runs(
        seed in 0u64..10_000,
        n_walk in 8usize..24,
        n_other in 2usize..10,
        other_kind in 0usize..2,
        power_idx in 0usize..3,
        shadowed_i in 0usize..2,
        mode_i in 0usize..2,
        field_side in 250.0f64..600.0,
        at in 0.0f64..1.0,
        jitter in 0.01f64..0.2,
        min_delay in 0.0f64..1.0,
        delay_span in 0.05f64..2.0,
        border in -95.0f64..-70.0,
        margin in 0.0f64..3.0,
        neighbors in 0.0f64..50.0,
    ) {
        // The checkpoint guarantee behind the tuning problem's per-network
        // prefix cache: a checkpoint taken anywhere before `broadcast −
        // expiry` under one protocol — with frames on the air or not —
        // restored again and again into a simulator that ran another
        // (larger) world under another protocol in between, runs on to
        // exactly the report of a straight run — for both delivery modes,
        // shadowing and heterogeneous power/mobility mix.
        use manet::mobility::MobilityModel;
        use manet::world::{NodeGroup, WorldSpec};
        let mode = [DeliveryMode::Incremental, DeliveryMode::Naive][mode_i];
        let other_mobility = [
            MobilityModel::Stationary,
            MobilityModel::RandomWaypoint { pause: 1.0 },
        ][other_kind];
        let other_power = [10.0, 5.0, 16.02][power_idx];
        let build = |seed: u64, side: f64, n_walk: usize, shadowed: bool| {
            let mut radio = manet::RadioConfig::paper();
            if !shadowed {
                radio.shadowing_sigma_db = 0.0;
            }
            WorldSpec::builder()
                .area(side, side)
                .radio(radio)
                .seed(seed)
                .group(NodeGroup::new(n_walk).mobility(MobilityModel::RandomWalk {
                    change_interval: 2.0,
                }))
                .group(
                    NodeGroup::new(n_other)
                        .mobility(other_mobility)
                        .tx_power_dbm(other_power),
                )
                .broadcast_window(6.0, 9.0)
                .delivery_mode(mode)
                .build()
                .expect("valid spec")
        };
        let spec = build(seed, field_side, n_walk, shadowed_i == 1);
        let n = spec.n_nodes();
        let params = AedbParams {
            min_delay,
            max_delay: min_delay + delay_span,
            border_threshold: border,
            margin_threshold: margin,
            neighbors_threshold: neighbors,
        };
        let flooding = || Flooding::new(n, (0.0, jitter));
        let straight_flooding = Simulator::from_world(&spec, flooding()).run();
        let straight_aedb = Simulator::from_world(&spec, Aedb::new(n, params)).run();

        let mut donor = Simulator::from_world(&spec, flooding());
        let limit = spec.broadcast_time - spec.neighbor_expiry - 1e-3;
        donor.run_until(at * limit);
        let checkpoint = donor.checkpoint();
        // The donor runs on in place as if never checkpointed.
        let donor_report = donor.run_to_end();
        prop_assert_eq!(&donor_report.broadcast, &straight_flooding.broadcast);
        prop_assert_eq!(&donor_report.counters, &straight_flooding.counters);

        // A second checkpoint with a beacon on the air: its end event and
        // frame must round-trip through the checkpoint.
        let mut probe = Simulator::from_world(&spec, flooding());
        let mut t = at * (limit - 1.0);
        probe.run_until(t);
        while probe.on_air() == 0 && t < limit {
            t += 1e-4;
            probe.run_until(t);
        }
        prop_assert!(probe.on_air() > 0, "no frame on the air before {} s", limit);
        let on_air = probe.checkpoint();

        // A pooled AEDB simulator, as the tuning problem keeps them: it
        // restores each checkpoint again and again, and runs another
        // (larger, other seed and shadowing) world in between, which it
        // leaves in mid-run.
        let big = build(seed + 1, field_side + 300.0, n_walk + 20, shadowed_i == 0);
        let mut dirty = Simulator::from_world(&big, Aedb::new(big.n_nodes(), params));
        for _ in 0..2 {
            for (cp, frames) in [(&checkpoint, None), (&on_air, Some(probe.on_air()))] {
                dirty.reset_world_with(&big, |p| p.reset(big.n_nodes(), params));
                dirty.run_until(at * big.end_time);
                dirty.restore(cp, |p| p.reset(n, params));
                if let Some(frames) = frames {
                    prop_assert_eq!(dirty.on_air(), frames);
                }
                let report = dirty.run_to_end();
                prop_assert_eq!(&report.broadcast, &straight_aedb.broadcast);
                prop_assert_eq!(&report.counters, &straight_aedb.counters);
            }
        }

        // ... and back under flooding, into the donor that just finished.
        for cp in [&checkpoint, &on_air] {
            donor.restore(cp, |p| *p = flooding());
            let again = donor.run_to_end();
            prop_assert_eq!(&again.broadcast, &straight_flooding.broadcast);
            prop_assert_eq!(&again.counters, &straight_flooding.counters);
        }
    }
}

/// The settle-parity checks of one world under one protocol: `make(n)`
/// builds a fresh protocol for `n` nodes, `other` is a different world a
/// pooled simulator ran (and stopped in mid-run) before.
fn check_settle_parity<P: Protocol>(
    spec: &WorldSpec,
    other: &WorldSpec,
    at: f64,
    make: impl Fn(usize) -> P,
) -> Result<(), String> {
    let n = spec.n_nodes();
    let fresh = |spec: &WorldSpec| Simulator::from_world(spec, make(spec.n_nodes()));
    let full = fresh(spec).run_to_end();

    // Straight: the early stop sees the full run's metrics, and running on
    // from it gives the full report.
    let mut sim = fresh(spec);
    prop_assert_eq!(sim.run_broadcast(), &full.broadcast);
    prop_assert!(sim.now() <= spec.end_time);
    let stopped = sim.stopped_before_end();
    let on = sim.run_to_end();
    prop_assert_eq!(&on.broadcast, &full.broadcast);
    prop_assert_eq!(&on.counters, &full.counters);
    prop_assert!(!sim.stopped_before_end());

    // Restored: a pooled simulator stopped in mid-run on another world
    // resumes from a checkpoint of this one.
    let mut donor = fresh(spec);
    donor.run_until(at * (spec.broadcast_time - spec.neighbor_expiry - 1e-3));
    let checkpoint = donor.checkpoint();
    let mut pooled = fresh(other);
    pooled.run_broadcast();
    pooled.restore(&checkpoint, |p| *p = make(n));
    prop_assert_eq!(pooled.run_broadcast(), &full.broadcast);
    prop_assert_eq!(pooled.stopped_before_end(), stopped);

    // Re-armed: a simulator stopped in mid-run, reset for this world,
    // reproduces a fresh simulator's full report.
    let mut pooled = fresh(other);
    pooled.run_broadcast();
    pooled.reset_world_with(spec, |p| *p = make(n));
    let again = pooled.run_to_end();
    prop_assert_eq!(&again.broadcast, &full.broadcast);
    prop_assert_eq!(&again.counters, &full.counters);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn settled_broadcasts_match_full_horizon_runs(
        seed in 0u64..10_000,
        n_walk in 8usize..24,
        n_other in 2usize..10,
        other_kind in 0usize..2,
        power_idx in 0usize..3,
        shadowed_i in 0usize..2,
        mode_i in 0usize..2,
        field_side in 250.0f64..600.0,
        tail in 0.5f64..4.0,
        at in 0.0f64..1.0,
        jitter in 0.01f64..2.0,
        min_delay in 0.0f64..1.0,
        delay_span in 0.05f64..4.0,
        border in -95.0f64..-70.0,
        margin in 0.0f64..3.0,
        neighbors in 0.0f64..50.0,
    ) {
        // The guarantee behind the evaluation's early stop: stopping once
        // the broadcast has settled — or at `end_time`, when the tail is
        // short enough that timers outlive it — yields exactly the
        // broadcast metrics of a full-horizon run, straight or restored,
        // for both delivery modes, shadowing and heterogeneous
        // power/mobility mix.
        use manet::mobility::MobilityModel;
        let mode = [DeliveryMode::Incremental, DeliveryMode::Naive][mode_i];
        let other_mobility = [
            MobilityModel::Stationary,
            MobilityModel::RandomWaypoint { pause: 1.0 },
        ][other_kind];
        let other_power = [10.0, 5.0, 16.02][power_idx];
        let build = |seed: u64, side: f64, n_walk: usize, shadowed: bool| {
            let mut radio = manet::RadioConfig::paper();
            if !shadowed {
                radio.shadowing_sigma_db = 0.0;
            }
            WorldSpec::builder()
                .area(side, side)
                .radio(radio)
                .seed(seed)
                .group(NodeGroup::new(n_walk).mobility(MobilityModel::RandomWalk {
                    change_interval: 2.0,
                }))
                .group(
                    NodeGroup::new(n_other)
                        .mobility(other_mobility)
                        .tx_power_dbm(other_power),
                )
                .broadcast_window(6.0, 6.0 + tail)
                .delivery_mode(mode)
                .build()
                .expect("valid spec")
        };
        let spec = build(seed, field_side, n_walk, shadowed_i == 1);
        let other = build(seed + 1, field_side + 300.0, n_walk + 20, shadowed_i == 0);
        let params = AedbParams {
            min_delay,
            max_delay: min_delay + delay_span,
            border_threshold: border,
            margin_threshold: margin,
            neighbors_threshold: neighbors,
        };
        check_settle_parity(&spec, &other, at, |n| Flooding::new(n, (0.0, jitter)))?;
        check_settle_parity(&spec, &other, at, |n| Aedb::new(n, params))?;
    }
}
