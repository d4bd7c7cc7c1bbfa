//! Golden fronts of AEDB-MLS runs that reinitialise their populations
//! from the elite archive. With `reset_iterations = 3`, a 12-round run
//! re-seeds every walker after rounds 3, 6 and 9, so the elite draw, the
//! archive's member order and the round loop all reach the digests. A
//! change to any of them moves a digest; a deliberate one updates it in
//! the same commit.

use aedb_mls::{CellDeMls, CellDeMlsConfig, Mls, MlsConfig};
use mopt::algorithm::MoAlgorithm;
use mopt::problem::test_problems::{ConstrainedSchaffer, Zdt1};
use mopt::problem::Problem;
use mopt::solution::Candidate;

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

fn problems() -> [Box<dyn Problem>; 2] {
    [Box::new(ConstrainedSchaffer::new()), Box::new(Zdt1::new(4))]
}

/// 2 populations × 2 walkers × 12 evaluations, re-seeded every 3 rounds.
fn reinit_config() -> MlsConfig {
    MlsConfig {
        reset_iterations: 3,
        ..MlsConfig::quick(2, 2, 12)
    }
}

#[test]
fn golden_mls_fronts_pin_reinitialisation() {
    let mls = Mls::new(reinit_config());
    let mut got = Vec::new();
    for problem in &problems() {
        // `optimize` returns the raw archive order; `run` sanitizes it.
        let raw = mls.optimize(problem.as_ref(), 17);
        assert_eq!(raw.evaluations, 48);
        got.push(front_digest(&raw.front));
        let run = mls.run(problem.as_ref(), 17);
        assert_eq!(run.evaluations, 48);
        got.push(front_digest(&run.front));
    }
    let want = [
        (1, 0xfa63_66f9_0ae2_c378),
        (1, 0xfa63_66f9_0ae2_c378),
        (12, 0x1526_63be_cac6_1d3f),
        (12, 0x1526_63be_cac6_1d3f),
    ];
    assert_eq!(
        got, want,
        "ConstrainedSchaffer (optimize, run), then Zdt1 (optimize, run)"
    );
}

#[test]
fn golden_cellde_mls_fronts_pin_reinitialisation() {
    let mut config = CellDeMlsConfig::quick(200);
    config.mls.reset_iterations = 3;
    let hybrid = CellDeMls::new(config);
    let got: Vec<_> = problems()
        .iter()
        .map(|problem| {
            let r = hybrid.run(problem.as_ref(), 17);
            (r.evaluations, front_digest(&r.front))
        })
        .collect();
    let want = [
        (198, (40, 0x6d4c_a754_cab0_f509)),
        (198, (13, 0x3242_ce7a_760d_bf8c)),
    ];
    assert_eq!(got, want, "ConstrainedSchaffer, then Zdt1");
}
