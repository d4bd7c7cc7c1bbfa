//! Golden fronts of the cellular optimizers at the corners of their grid
//! loop: a 2 × 2 grid, whose deduplicated C9 neighbourhood has only three
//! cells (so CellDE draws two distinct donors), and a 4 × 4 grid whose
//! budget ends on a partial generation. A change to the generation loop,
//! the variation operators' random streams or the archive order moves a
//! digest; a deliberate one updates it in the same commit.

use moea::{CellDe, CellDeConfig, MoCell, MoCellConfig};
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

/// `(grid side, budget)` of each corner: the 2 × 2 grid runs 49 full
/// generations after its 4 initial cells; the 4 × 4 grid's budget ends
/// 6 cells into its fourth generation.
const CORNERS: [(usize, u64); 2] = [(2, 200), (4, 70)];

/// Runs `alg` (built per corner) on both problems at both corners with
/// seed 17 and returns the front digests, problem-major.
fn digests(alg: impl Fn(usize, u64) -> Box<dyn MoAlgorithm>) -> Vec<(usize, u64)> {
    let problems: [Box<dyn Problem>; 2] =
        [Box::new(ConstrainedSchaffer::new()), Box::new(Zdt1::new(4))];
    let mut out = Vec::new();
    for problem in &problems {
        for (side, budget) in CORNERS {
            let r = alg(side, budget).run(problem.as_ref(), 17);
            assert_eq!(r.evaluations, budget, "side {side}");
            out.push(front_digest(&r.front));
        }
    }
    out
}

#[test]
fn golden_mocell_fronts_pin_grid_corners() {
    let got = digests(|side, budget| Box::new(MoCell::new(MoCellConfig::quick(side, budget))));
    let want = [
        (2, 0x0e3c_bc8b_8c27_c6f1),
        (1, 0x90ff_c21a_e814_090c),
        (9, 0xc3a2_2c2a_a592_8b8c),
        (6, 0x2635_bc79_3bb8_5de7),
    ];
    assert_eq!(
        got, want,
        "ConstrainedSchaffer × corners, then Zdt1 × corners"
    );
}

#[test]
fn golden_cellde_fronts_pin_grid_corners() {
    let got = digests(|side, budget| Box::new(CellDe::new(CellDeConfig::quick(side, budget))));
    let want = [
        (1, 0xfad5_41d0_3c7f_d5a6),
        (1, 0xee9b_ade6_abed_5f13),
        (20, 0xea91_443e_98f4_9e45),
        (9, 0xb968_ca93_1f6f_d47b),
    ];
    assert_eq!(
        got, want,
        "ConstrainedSchaffer × corners, then Zdt1 × corners"
    );
}
