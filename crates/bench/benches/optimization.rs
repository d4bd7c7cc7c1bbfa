//! Micro-benchmarks of the optimisation substrate: AGA archive pressure,
//! quality indicators, variation operators, FAST99 analysis and the
//! parallel scaling of AEDB-MLS.

use aedb_mls::mls::{Mls, MlsConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast99::Fast99;
use mopt::archive::{AgaArchive, ARCHIVE_BISECTIONS};
use mopt::indicators::{generalized_spread, hypervolume, inverted_generational_distance};
use mopt::ops::{blx_alpha_step, de_rand_1_bin, polynomial_mutation, sbx_crossover};
use mopt::problem::test_problems::Zdt1;
use mopt::solution::{Bounds, Candidate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A synthetic 3-objective front of `n` mutually non-dominated points.
fn synthetic_front(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen();
            let y: f64 = rng.gen_range(0.0..(1.0 - x).max(1e-6));
            vec![x, y, 1.0 - x - y]
        })
        .collect()
}

fn bench_archive(c: &mut Criterion) {
    let mut g = c.benchmark_group("aga_archive_insert_1000");
    for cap in [20usize, 100, 500] {
        g.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            let points = synthetic_front(1000, 7);
            b.iter(|| {
                let mut a = AgaArchive::new(cap, ARCHIVE_BISECTIONS);
                for p in &points {
                    a.try_insert(Candidate::evaluated(vec![], p.clone(), 0.0));
                }
                black_box(a.len())
            });
        });
    }
    g.finish();
}

fn bench_indicators(c: &mut Criterion) {
    let front = synthetic_front(100, 1);
    let reference = synthetic_front(200, 2);
    let mut g = c.benchmark_group("indicators_100v200");
    g.bench_function("hypervolume_3d", |b| {
        b.iter(|| black_box(hypervolume(black_box(&front), &[1.1, 1.1, 1.1])))
    });
    g.bench_function("igd", |b| {
        b.iter(|| {
            black_box(inverted_generational_distance(
                black_box(&front),
                &reference,
            ))
        })
    });
    g.bench_function("generalized_spread", |b| {
        b.iter(|| black_box(generalized_spread(black_box(&front), &reference)))
    });
    g.finish();
}

fn bench_operators(c: &mut Criterion) {
    let bounds = Bounds::new(vec![(0.0, 1.0); 5]);
    let mut rng = SmallRng::seed_from_u64(3);
    let p1: Vec<f64> = (0..5).map(|_| rng.gen()).collect();
    let p2: Vec<f64> = (0..5).map(|_| rng.gen()).collect();
    let mut g = c.benchmark_group("variation_operators_5d");
    g.bench_function("blx_alpha_step", |b| {
        b.iter(|| {
            black_box(blx_alpha_step(
                black_box(0.4),
                black_box(0.7),
                0.2,
                &mut rng,
            ))
        })
    });
    g.bench_function("sbx_crossover", |b| {
        b.iter(|| black_box(sbx_crossover(&p1, &p2, &bounds, &mut rng)))
    });
    g.bench_function("polynomial_mutation", |b| {
        b.iter(|| {
            let mut x = p1.clone();
            polynomial_mutation(&mut x, &bounds, &mut rng);
            black_box(x)
        })
    });
    g.bench_function("de_rand_1_bin", |b| {
        b.iter(|| {
            black_box(de_rand_1_bin(
                &p1, &p2, &p1, &p2, 0.5, 0.9, &bounds, &mut rng,
            ))
        })
    });
    g.finish();
}

fn bench_fast99(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast99");
    g.sample_size(20);
    g.bench_function("design_5p_1001", |b| {
        let f = Fast99::new(5, 1001);
        b.iter(|| black_box(f.design(2)))
    });
    g.bench_function("indices_5p_1001", |b| {
        let f = Fast99::new(5, 1001);
        let design = f.design(2);
        let outputs: Vec<f64> = design.iter().map(|x| x.iter().sum()).collect();
        b.iter(|| black_box(f.indices(2, &outputs)))
    });
    g.finish();
}

/// Engine overhead of AEDB-MLS per walkers-per-round on a cheap problem:
/// at a fixed total budget, more walkers mean fewer, wider lockstep rounds
/// (one `evaluate_batch` and one serial archive merge each). On ZDT1 the
/// evaluations cost almost nothing, so this times the round machinery —
/// move proposal, batch assembly, archive offers — not parallel speed-up.
/// (The group keeps its historical name.)
fn bench_mls_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("mls_thread_scaling_fixed_budget");
    g.sample_size(10);
    let problem = Zdt1::new(6);
    let total: u64 = 4096;
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = MlsConfig::quick(1, threads, total / threads as u64);
                let mls = Mls::new(cfg);
                b.iter(|| black_box(mls.optimize(&problem, 5)).evaluations);
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_archive,
    bench_indicators,
    bench_operators,
    bench_fast99,
    bench_mls_scaling
);
criterion_main!(benches);
