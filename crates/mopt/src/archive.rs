//! Adaptive Grid Archiving (AGA) — the bounded elite archive of PAES
//! (Knowles & Corne 2000), used by the paper as the distributed external
//! archive of AEDB-MLS (§IV-A).
//!
//! The objective space is divided into hypercubes by bisecting each
//! objective axis `bisections` times (2^bisections divisions per axis).
//! When the archive is full and a new non-dominated solution arrives, a
//! victim is evicted from the **most crowded** hypercube — unless the new
//! solution itself falls in that cube, in which case it is rejected. The
//! strategy guarantees the three properties quoted in the paper:
//! (i) extremes of all objectives are kept, (ii) every occupied Pareto
//! region keeps at least one solution, (iii) remaining capacity is spread
//! evenly across regions.

use crate::dominance::{constrained_dominance, DominanceOrd};
use crate::solution::Candidate;
use rand::Rng;
use std::collections::HashMap;

/// Grid bisections per objective of every archive the optimisers keep
/// (the PAES/jMetal default of §IV-A: `2^5` divisions per axis).
pub const ARCHIVE_BISECTIONS: u32 = 5;

/// Outcome of offering a candidate to the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The candidate was added (possibly evicting a crowded member).
    Added,
    /// The candidate was rejected because an archive member dominates it
    /// (or an identical objective vector is already present).
    Dominated,
    /// The archive was full and the candidate landed in the most crowded
    /// hypercube.
    Crowded,
}

/// A bounded non-dominated archive with adaptive-grid density management.
///
/// # Example
/// ```
/// use mopt::archive::{AgaArchive, InsertOutcome, ARCHIVE_BISECTIONS};
/// use mopt::solution::Candidate;
///
/// let mut archive = AgaArchive::new(100, ARCHIVE_BISECTIONS);
/// let c = Candidate::evaluated(vec![0.3], vec![1.0, 2.0], 0.0);
/// assert_eq!(archive.try_insert(c), InsertOutcome::Added);
/// // dominated solutions are rejected
/// let worse = Candidate::evaluated(vec![0.4], vec![2.0, 3.0], 0.0);
/// assert_eq!(archive.try_insert(worse), InsertOutcome::Dominated);
/// assert_eq!(archive.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AgaArchive {
    capacity: usize,
    bisections: u32,
    members: Vec<Candidate>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Hypercube index of each member (parallel to `members`).
    cubes: Vec<u64>,
    /// Occupancy count per hypercube.
    occupancy: HashMap<u64, usize>,
}

impl AgaArchive {
    /// Creates an empty archive.
    ///
    /// * `capacity` — maximum number of stored solutions (must be ≥ 1).
    /// * `bisections` — grid granularity; each axis has `2^bisections`
    ///   divisions (the optimisers use [`ARCHIVE_BISECTIONS`]).
    pub fn new(capacity: usize, bisections: u32) -> Self {
        assert!(capacity >= 1, "archive capacity must be >= 1");
        assert!((1..=10).contains(&bisections), "bisections out of range");
        Self {
            capacity,
            bisections,
            members: Vec::with_capacity(capacity + 1),
            lower: Vec::new(),
            upper: Vec::new(),
            cubes: Vec::new(),
            occupancy: HashMap::new(),
        }
    }

    /// Maximum size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored solutions.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The archived non-dominated solutions.
    pub fn members(&self) -> &[Candidate] {
        &self.members
    }

    /// Consumes the archive, returning its members.
    pub fn into_members(self) -> Vec<Candidate> {
        self.members
    }

    /// A uniformly random member, or `None` when empty. AEDB-MLS
    /// reinitialises its populations and the cellular optimizers feed
    /// back elites through this draw.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<&Candidate> {
        if self.members.is_empty() {
            None
        } else {
            Some(&self.members[rng.gen_range(0..self.members.len())])
        }
    }

    /// Offers a candidate. Only non-dominated candidates are accepted; the
    /// grid decides evictions when full. Returns what happened.
    pub fn try_insert(&mut self, c: Candidate) -> InsertOutcome {
        debug_assert!(c.is_evaluated(), "cannot archive an unevaluated candidate");
        // Dominance screen against current members.
        let mut doomed = Vec::new();
        for (i, m) in self.members.iter().enumerate() {
            match constrained_dominance(m, &c) {
                DominanceOrd::Dominates => return InsertOutcome::Dominated,
                DominanceOrd::DominatedBy => doomed.push(i),
                DominanceOrd::Indifferent => {
                    if m.objectives == c.objectives && m.violation == c.violation {
                        // Identical point: keep the incumbent, avoid duplicates.
                        return InsertOutcome::Dominated;
                    }
                }
            }
        }
        // Remove members dominated by the newcomer (back to front).
        for &i in doomed.iter().rev() {
            self.remove_at(i);
        }

        if self.members.len() < self.capacity {
            self.push_member(c);
            return InsertOutcome::Added;
        }

        // Full: adaptive-grid decision.
        //
        // AGA property (i): a solution that extends the objective range
        // (a new extreme in some objective) is always admitted.
        let extends_range = (0..c.objectives.len()).any(|d| {
            c.objectives[d]
                < self
                    .members
                    .iter()
                    .map(|m| m.objectives[d])
                    .fold(f64::INFINITY, f64::min)
        });
        self.ensure_in_grid(&c.objectives);
        let c_cube = self.cube_of(&c.objectives);
        let (crowded_cube, crowded_count) = self.most_crowded_cube();
        if !extends_range {
            let c_count = self.occupancy.get(&c_cube).copied().unwrap_or(0);
            if c_cube == crowded_cube || c_count >= crowded_count {
                return InsertOutcome::Crowded;
            }
        }
        let victim = self
            .pick_victim(crowded_cube)
            // Fallback when every occupant of the crowded cube is an
            // extreme: evict the member whose cube is next-most crowded
            // and which is itself not extreme.
            .or_else(|| {
                let extreme = self.extreme_members();
                (0..self.members.len())
                    .filter(|&i| !extreme[i])
                    .max_by_key(|&i| self.occupancy.get(&self.cubes[i]).copied().unwrap_or(0))
            });
        if let Some(victim) = victim {
            self.remove_at(victim);
            self.push_member(c);
            InsertOutcome::Added
        } else {
            // Everything is extreme (tiny archive); reject unless the
            // newcomer extends the range, in which case drop an occupant
            // of the most crowded cube anyway.
            if extends_range {
                if let Some(victim) =
                    (0..self.members.len()).find(|&i| self.cubes[i] == crowded_cube)
                {
                    self.remove_at(victim);
                    self.push_member(c);
                    return InsertOutcome::Added;
                }
            }
            InsertOutcome::Crowded
        }
    }

    /// Offers every candidate in `iter`; returns how many were added.
    pub fn extend<I: IntoIterator<Item = Candidate>>(&mut self, iter: I) -> usize {
        iter.into_iter()
            .filter(|c| self.try_insert(c.clone()) == InsertOutcome::Added)
            .count()
    }

    // ----- internal grid machinery -------------------------------------

    fn divisions(&self) -> u64 {
        1u64 << self.bisections
    }

    fn push_member(&mut self, c: Candidate) {
        self.ensure_in_grid(&c.objectives);
        let cube = self.cube_of(&c.objectives);
        *self.occupancy.entry(cube).or_insert(0) += 1;
        self.cubes.push(cube);
        self.members.push(c);
    }

    fn remove_at(&mut self, i: usize) {
        let cube = self.cubes.swap_remove(i);
        self.members.swap_remove(i);
        if let Some(n) = self.occupancy.get_mut(&cube) {
            *n -= 1;
            if *n == 0 {
                self.occupancy.remove(&cube);
            }
        }
    }

    /// Grows the grid bounds (and re-buckets) if `obj` falls outside.
    fn ensure_in_grid(&mut self, obj: &[f64]) {
        let m = obj.len();
        if self.lower.len() != m {
            // First sighting: initialise bounds around the point.
            self.lower = obj.iter().map(|v| v - 1.0).collect();
            self.upper = obj.iter().map(|v| v + 1.0).collect();
            self.rebucket();
            return;
        }
        let out = obj
            .iter()
            .enumerate()
            .any(|(d, &v)| v < self.lower[d] || v > self.upper[d]);
        if !out {
            return;
        }
        // Recompute bounds over members + newcomer, with 10 % padding, then
        // re-bucket everything (the "adaptive" part of AGA).
        for (d, &objd) in obj.iter().enumerate().take(m) {
            let mut lo = objd;
            let mut hi = objd;
            for mem in &self.members {
                lo = lo.min(mem.objectives[d]);
                hi = hi.max(mem.objectives[d]);
            }
            let pad = 0.1 * (hi - lo).max(1e-9);
            self.lower[d] = lo - pad;
            self.upper[d] = hi + pad;
        }
        self.rebucket();
    }

    fn rebucket(&mut self) {
        self.occupancy.clear();
        self.cubes.clear();
        let objs: Vec<Vec<f64>> = self.members.iter().map(|m| m.objectives.clone()).collect();
        for obj in &objs {
            let cube = self.cube_of(obj);
            *self.occupancy.entry(cube).or_insert(0) += 1;
            self.cubes.push(cube);
        }
    }

    fn cube_of(&self, obj: &[f64]) -> u64 {
        let div = self.divisions();
        let mut idx = 0u64;
        for (d, &v) in obj.iter().enumerate() {
            let span = self.upper[d] - self.lower[d];
            let t = if span > 0.0 {
                ((v - self.lower[d]) / span).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let cell = ((t * div as f64) as u64).min(div - 1);
            idx = idx * div + cell;
        }
        idx
    }

    fn most_crowded_cube(&self) -> (u64, usize) {
        self.occupancy
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(b.0)))
            .map(|(&k, &v)| (k, v))
            .unwrap_or((0, 0))
    }

    /// Indices of members that are extreme (best) in some objective; AGA
    /// property (i) protects these from eviction.
    fn extreme_members(&self) -> Vec<bool> {
        let n = self.members.len();
        let mut extreme = vec![false; n];
        if n == 0 {
            return extreme;
        }
        let m = self.members[0].objectives.len();
        for d in 0..m {
            if let Some(best) = (0..n).min_by(|&a, &b| {
                self.members[a].objectives[d].total_cmp(&self.members[b].objectives[d])
            }) {
                extreme[best] = true;
            }
        }
        extreme
    }

    fn pick_victim(&self, cube: u64) -> Option<usize> {
        let extreme = self.extreme_members();
        (0..self.members.len()).find(|&i| self.cubes[i] == cube && !extreme[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cand(obj: &[f64]) -> Candidate {
        Candidate::evaluated(vec![], obj.to_vec(), 0.0)
    }

    #[test]
    fn accepts_non_dominated_rejects_dominated() {
        let mut a = AgaArchive::new(10, 5);
        assert_eq!(a.try_insert(cand(&[1.0, 1.0])), InsertOutcome::Added);
        assert_eq!(a.try_insert(cand(&[2.0, 2.0])), InsertOutcome::Dominated);
        assert_eq!(a.try_insert(cand(&[0.5, 2.0])), InsertOutcome::Added);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn newcomer_evicts_dominated_members() {
        let mut a = AgaArchive::new(10, 5);
        a.try_insert(cand(&[2.0, 2.0]));
        a.try_insert(cand(&[3.0, 1.0]));
        assert_eq!(a.try_insert(cand(&[1.0, 1.0])), InsertOutcome::Added);
        // (2,2) and (3,1) both dominated by (1,1)
        assert_eq!(a.len(), 1);
        assert_eq!(a.members()[0].objectives, vec![1.0, 1.0]);
    }

    #[test]
    fn duplicates_rejected() {
        let mut a = AgaArchive::new(10, 5);
        assert_eq!(a.try_insert(cand(&[1.0, 2.0])), InsertOutcome::Added);
        assert_eq!(a.try_insert(cand(&[1.0, 2.0])), InsertOutcome::Dominated);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut a = AgaArchive::new(5, 3);
        // 20 mutually non-dominated points on a line
        for i in 0..20 {
            let x = i as f64;
            a.try_insert(cand(&[x, 19.0 - x]));
        }
        assert!(a.len() <= 5);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn extremes_are_kept() {
        let mut a = AgaArchive::new(4, 2);
        for i in 0..50 {
            let x = i as f64;
            a.try_insert(cand(&[x, 49.0 - x]));
        }
        let objs: Vec<_> = a.members().iter().map(|m| m.objectives.clone()).collect();
        // best-f0 and best-f1 points must be present
        let min0 = objs.iter().map(|o| o[0]).fold(f64::INFINITY, f64::min);
        let min1 = objs.iter().map(|o| o[1]).fold(f64::INFINITY, f64::min);
        assert_eq!(min0, 0.0, "lost the f0 extreme: {objs:?}");
        assert_eq!(min1, 0.0, "lost the f1 extreme: {objs:?}");
    }

    #[test]
    fn crowded_insert_rejected_when_in_densest_cube() {
        let mut a = AgaArchive::new(3, 1);
        // All points in the same region: grid has 2 divisions per axis.
        a.try_insert(cand(&[0.0, 10.0]));
        a.try_insert(cand(&[10.0, 0.0]));
        a.try_insert(cand(&[5.0, 5.0]));
        // A 4th point near the middle: most crowded cube is its own.
        let out = a.try_insert(cand(&[5.1, 4.9]));
        assert!(a.len() <= 3);
        assert!(out == InsertOutcome::Crowded || out == InsertOutcome::Added);
    }

    #[test]
    fn sample_is_none_when_empty_and_uniformish() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = AgaArchive::new(4, 2);
        assert!(a.sample(&mut rng).is_none());
        let mut a = AgaArchive::new(4, 2);
        a.try_insert(cand(&[0.0, 1.0]));
        a.try_insert(cand(&[1.0, 0.0]));
        let mut seen = [false; 2];
        for _ in 0..64 {
            let s = a.sample(&mut rng).unwrap();
            if s.objectives[0] == 0.0 {
                seen[0] = true;
            } else {
                seen[1] = true;
            }
        }
        assert!(seen[0] && seen[1], "sampling never hit one of two members");
    }

    #[test]
    fn feasibility_rules_apply() {
        let mut a = AgaArchive::new(10, 5);
        let mut infeasible = cand(&[0.0, 0.0]);
        infeasible.violation = 1.0;
        a.try_insert(infeasible);
        assert_eq!(a.len(), 1);
        // A feasible point dominates any infeasible one.
        assert_eq!(a.try_insert(cand(&[9.0, 9.0])), InsertOutcome::Added);
        assert_eq!(a.len(), 1);
        assert!(a.members()[0].is_feasible());
    }

    #[test]
    fn grid_adapts_to_outliers() {
        let mut a = AgaArchive::new(8, 3);
        for i in 0..8 {
            let x = i as f64 * 0.1;
            a.try_insert(cand(&[x, 0.7 - x]));
        }
        // Far-away non-dominated outlier must still be insertable.
        let out = a.try_insert(cand(&[-1000.0, 1000.0]));
        assert_eq!(out, InsertOutcome::Added);
        assert!(a.len() <= 8);
    }

    #[test]
    fn three_objective_archive() {
        let mut a = AgaArchive::new(20, 4);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..200 {
            let x: f64 = rng.gen();
            let y: f64 = rng.gen();
            // points on the plane x+y+z = 1 are mutually non-dominated
            a.try_insert(cand(&[x, y, 1.0 - x - y]));
        }
        assert_eq!(a.len(), 20);
        // every member non-dominated w.r.t. the others
        let ms = a.members();
        for i in 0..ms.len() {
            for j in 0..ms.len() {
                if i != j {
                    assert_ne!(
                        constrained_dominance(&ms[j], &ms[i]),
                        DominanceOrd::Dominates,
                        "archive holds a dominated member"
                    );
                }
            }
        }
    }
}
