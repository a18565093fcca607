//! Data decompositions: OMEN's momentum×energy split and DaCe's
//! energy×atom tiling (§4.1).

use qt_core::params::SimParams;
use std::ops::Range;

/// Balanced contiguous 1-D block partition of `total` items into `parts`.
#[derive(Clone, Copy, Debug)]
pub struct BlockPartition {
    pub total: usize,
    pub parts: usize,
}

impl BlockPartition {
    /// With `parts > total` the trailing `parts - total` parts are
    /// well-defined zero-unit parts: their `range()` is the empty
    /// `total..total` and `owner()` never answers them.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts > 0, "need at least one part");
        BlockPartition { total, parts }
    }

    /// Half-open index range of part `i`. The first `total % parts` parts
    /// get one extra element; with `parts > total` the parts past `total`
    /// are empty (`total..total`).
    pub fn range(&self, i: usize) -> Range<usize> {
        assert!(i < self.parts);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        let start = i * base + i.min(extra);
        let len = base + usize::from(i < extra);
        start..start + len
    }

    /// Which part owns global index `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        assert!(idx < self.total);
        let base = self.total / self.parts;
        let extra = self.total % self.parts;
        let fat = (base + 1) * extra; // indices covered by the fat parts
        if idx < fat {
            idx / (base + 1)
        } else {
            extra + (idx - fat) / base.max(1)
        }
    }

    pub fn len(&self, i: usize) -> usize {
        self.range(i).len()
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// OMEN's natural decomposition: processes split the energy axis
/// (momentum kept whole per process at this granularity).
#[derive(Clone, Copy, Debug)]
pub struct OmenDecomp {
    pub energy: BlockPartition,
}

impl OmenDecomp {
    pub fn new(p: &SimParams, procs: usize) -> Self {
        OmenDecomp {
            energy: BlockPartition::new(p.ne, procs),
        }
    }

    /// Owner rank of the `(qz, ω)` phonon point (round-robin).
    pub fn d_owner(&self, p: &SimParams, q: usize, w: usize) -> usize {
        (q * p.nw + w) % self.energy.parts
    }
}

/// OMEN's full three-level MPI distribution (§2.1): momentum groups ×
/// energy chunks × spatial (RGF block) ranks. The paper's production runs
/// validated this layout up to 95k cores; the communication analysis of
/// §4.1 collapses the momentum and spatial levels and keeps the energy
/// split, which is what [`OmenDecomp`] models.
#[derive(Clone, Copy, Debug)]
pub struct ThreeLevelDecomp {
    /// Partition of the `Nkz` momentum points.
    pub momentum: BlockPartition,
    /// Partition of the `NE` energies within one momentum group.
    pub energy: BlockPartition,
    /// Spatial ranks sharing one `(kz, E)` RGF solve.
    pub spatial: usize,
}

impl ThreeLevelDecomp {
    pub fn new(p: &SimParams, k_groups: usize, e_groups: usize, spatial: usize) -> Self {
        assert!(spatial >= 1);
        ThreeLevelDecomp {
            momentum: BlockPartition::new(p.nkz, k_groups),
            energy: BlockPartition::new(p.ne, e_groups),
            spatial,
        }
    }

    /// Total rank count.
    pub fn procs(&self) -> usize {
        self.momentum.parts * self.energy.parts * self.spatial
    }

    /// Rank of `(momentum group, energy group, spatial index)`.
    pub fn rank(&self, kg: usize, eg: usize, s: usize) -> usize {
        (kg * self.energy.parts + eg) * self.spatial + s
    }

    /// Inverse of [`ThreeLevelDecomp::rank`].
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        let s = rank % self.spatial;
        let rest = rank / self.spatial;
        (rest / self.energy.parts, rest % self.energy.parts, s)
    }

    /// The spatial group of ranks that collectively own the `(kz, E)` point.
    pub fn owners_of_point(&self, kz: usize, e: usize) -> std::ops::Range<usize> {
        let base = self.rank(self.momentum.owner(kz), self.energy.owner(e), 0);
        base..base + self.spatial
    }
}

/// DaCe's communication-avoiding tiling: `TE` energy × `TA` atom tiles.
#[derive(Clone, Copy, Debug)]
pub struct DaceDecomp {
    pub te: usize,
    pub ta: usize,
    pub energy: BlockPartition,
    pub atoms: BlockPartition,
}

impl DaceDecomp {
    pub fn new(p: &SimParams, te: usize, ta: usize) -> Self {
        DaceDecomp {
            te,
            ta,
            energy: BlockPartition::new(p.ne, te),
            atoms: BlockPartition::new(p.na, ta),
        }
    }

    pub fn procs(&self) -> usize {
        self.te * self.ta
    }

    /// Rank of tile `(i, j)`.
    pub fn rank(&self, i: usize, j: usize) -> usize {
        i * self.ta + j
    }

    /// Tile coordinates of `rank`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.ta, rank % self.ta)
    }

    /// Energies needed by energy-tile `i`, including the `Nω` halo on both
    /// sides (for the `E ∓ ω` emission/absorption reads — the `2Nω` term of
    /// the volume formula), clamped to the grid.
    pub fn energy_halo(&self, i: usize, nw: usize) -> Range<usize> {
        let r = self.energy.range(i);
        r.start.saturating_sub(nw)..(r.end + nw).min(self.energy.total)
    }

    /// Atoms needed by atom-tile `j`: the tile widened by the neighbor
    /// window `NB/2` on each side (the paper's indirection model), clamped.
    pub fn atom_window(&self, j: usize, nb: usize, na: usize) -> Range<usize> {
        let r = self.atoms.range(j);
        r.start.saturating_sub(nb / 2 + nb % 2)..(r.end + nb / 2 + nb % 2).min(na)
    }
}

/// Weighted block assignment: map `weights.len()` work units onto `parts`
/// ranks so the maximum per-rank weight is near-minimal.
///
/// Greedy LPT (longest processing time first) — units sorted by
/// `(weight desc, id asc)`, each placed on the currently lightest rank
/// (ties toward the lowest rank id) — followed by bounded
/// boundary-refinement passes that move a unit off the heaviest rank onto
/// the lightest when that strictly shrinks the makespan (the same
/// greedy-then-refine structure METIS uses for weighted partitions).
///
/// Invariants:
/// * **exact partition** — every unit is assigned to exactly one rank in
///   `0..parts`;
/// * **LPT bound** — `max_load ≤ total/parts + max_weight` (list
///   scheduling guarantee; refinement only improves it);
/// * **determinism** — the result is a pure function of `(weights,
///   parts)`: ties break on ids, no randomness, and relabeling
///   equal-weight units permutes the assignment without changing the
///   per-rank load multiset.
///
/// Non-finite or negative weights are treated as zero so a poisoned cost
/// model degrades to "some balanced assignment" instead of poisoning the
/// schedule.
pub fn partition_weighted(weights: &[f64], parts: usize) -> Vec<usize> {
    assert!(parts > 0, "need at least one part");
    let w = |u: usize| {
        let x = weights[u];
        if x.is_finite() && x > 0.0 {
            x
        } else {
            0.0
        }
    };
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| w(b).partial_cmp(&w(a)).unwrap().then(a.cmp(&b)));

    let mut owner = vec![0usize; weights.len()];
    let mut load = vec![0.0f64; parts];
    for &u in &order {
        let r = (0..parts)
            .min_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap().then(a.cmp(&b)))
            .expect("parts > 0");
        owner[u] = r;
        load[r] += w(u);
    }

    // Boundary refinement: relocate a unit from the heaviest rank to the
    // lightest while it strictly improves the makespan. Deterministic and
    // bounded: each pass scans the heaviest rank's units in id order and
    // the loop stops at the first pass with no improving move.
    for _ in 0..weights.len().max(8) {
        let hi = (0..parts)
            .max_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap().then(b.cmp(&a)))
            .expect("parts > 0");
        let lo = (0..parts)
            .min_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap().then(a.cmp(&b)))
            .expect("parts > 0");
        let mut moved = false;
        for (u, o) in owner.iter_mut().enumerate() {
            if *o != hi {
                continue;
            }
            let wu = w(u);
            // Strict improvement of the pairwise makespan.
            if load[lo] + wu < load[hi] - 1e-12 {
                *o = lo;
                load[hi] -= wu;
                load[lo] += wu;
                moved = true;
                break;
            }
        }
        if !moved {
            break;
        }
    }
    owner
}

/// Survivor re-tiling of the CA decomposition.
///
/// The DaCe tiling assigns one *work unit* per original rank: the tile
/// `(i, j) = coords(r)`, the GF energy chunk `r` of `OmenDecomp`, and the
/// `(q, ω)` phonon points with `(q·Nω + ω) mod P == r`. Elasticity keeps
/// the original `P = TE·TA` unit grid fixed — so halos, volumes, and
/// results stay comparable across deaths — and maps each unit to a
/// *surviving* original rank. On a death, only the dead rank's units
/// migrate (minimal movement), each to the currently least-loaded
/// survivor (ties broken toward the lowest rank id), so the reassignment
/// is deterministic and balanced.
#[derive(Clone, Debug)]
pub struct ElasticTiling {
    /// The original (pre-death) tile grid; never shrinks.
    pub dec: DaceDecomp,
    /// Sorted original ids of the ranks still alive.
    pub survivors: Vec<usize>,
    /// `owner[u]` = original rank id currently responsible for work unit
    /// `u` (a tile index `i·TA + j`). Meaningless once `survivors` is
    /// empty — callers must check [`ElasticTiling::world_size`] first.
    pub owner: Vec<usize>,
}

impl ElasticTiling {
    /// The fault-free tiling: every original rank owns its own unit.
    pub fn new(p: &SimParams, te: usize, ta: usize) -> Self {
        let dec = DaceDecomp::new(p, te, ta);
        let procs = dec.procs();
        ElasticTiling {
            dec,
            survivors: (0..procs).collect(),
            owner: (0..procs).collect(),
        }
    }

    /// Static tiling of the full `TE·TA` unit grid over a *smaller* world:
    /// the first `world` ranks are alive and each owns a contiguous block
    /// of units (uniform block assignment — the baseline the adaptive
    /// partitioner is measured against). Requires `world ≥ 1`; with
    /// `world > TE·TA` the surplus ranks own zero units.
    pub fn uniform(p: &SimParams, te: usize, ta: usize, world: usize) -> Self {
        let dec = DaceDecomp::new(p, te, ta);
        let units = dec.procs();
        let bp = BlockPartition::new(units, world);
        ElasticTiling {
            dec,
            survivors: (0..world).collect(),
            owner: (0..units).map(|u| bp.owner(u)).collect(),
        }
    }

    /// Weighted tiling: units assigned to the first `world` ranks by
    /// [`partition_weighted`] over per-unit costs. Same unit grid as
    /// [`ElasticTiling::uniform`], so tile geometries — and therefore the
    /// computed observables — are identical; only the unit→rank map
    /// changes.
    pub fn weighted(p: &SimParams, te: usize, ta: usize, world: usize, weights: &[f64]) -> Self {
        let dec = DaceDecomp::new(p, te, ta);
        let units = dec.procs();
        assert_eq!(weights.len(), units, "one weight per work unit");
        ElasticTiling {
            dec,
            survivors: (0..world).collect(),
            owner: partition_weighted(weights, world),
        }
    }

    /// Re-partition all units over the *current* survivors using fresh
    /// per-unit weights, when [`partition_weighted`]'s map has a strictly
    /// shorter makespan under `weights` than the current one (a relabelling
    /// of one unit per survivor never does). Returns the units whose owner
    /// changed (ascending) — the migration set the caller must move state
    /// for. No-op (empty return) when there are no survivors.
    pub fn rebalance(&mut self, weights: &[f64]) -> Vec<usize> {
        assert_eq!(weights.len(), self.owner.len(), "one weight per work unit");
        if self.survivors.is_empty() {
            return Vec::new();
        }
        let owner: Vec<usize> = partition_weighted(weights, self.survivors.len())
            .into_iter()
            .map(|part| self.survivors[part])
            .collect();
        if self.makespan(&owner, weights) >= self.makespan(&self.owner, weights) {
            return Vec::new();
        }
        let moved = (0..owner.len())
            .filter(|&u| owner[u] != self.owner[u])
            .collect();
        self.owner = owner;
        moved
    }

    /// The heaviest survivor's summed `weights` under `owner` (weights
    /// read as [`partition_weighted`] reads them).
    fn makespan(&self, owner: &[usize], weights: &[f64]) -> f64 {
        let mut load = vec![0.0; self.survivors.len()];
        for (&r, &w) in owner.iter().zip(weights) {
            match self.survivors.binary_search(&r) {
                Ok(slot) if w.is_finite() && w > 0.0 => load[slot] += w,
                _ => {}
            }
        }
        load.into_iter().fold(0.0, f64::max)
    }

    /// Number of work units (= original world size `TE·TA`).
    pub fn procs(&self) -> usize {
        self.owner.len()
    }

    /// Number of surviving ranks (= the shrunken world size).
    pub fn world_size(&self) -> usize {
        self.survivors.len()
    }

    /// Is original rank `rank` still alive?
    pub fn is_survivor(&self, rank: usize) -> bool {
        self.survivors.binary_search(&rank).is_ok()
    }

    /// World slot of surviving original rank `rank`.
    pub fn slot_of(&self, rank: usize) -> usize {
        self.survivors
            .binary_search(&rank)
            .expect("rank is a survivor")
    }

    /// World slot of the survivor owning work unit `unit`.
    pub fn owner_slot(&self, unit: usize) -> usize {
        self.slot_of(self.owner[unit])
    }

    /// Work units owned by original rank `rank`, ascending.
    pub fn units_of(&self, rank: usize) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|&u| self.owner[u] == rank)
            .collect()
    }

    /// Units currently owned by original rank `rank`.
    pub fn load(&self, rank: usize) -> usize {
        self.owner.iter().filter(|&&o| o == rank).count()
    }

    /// Remove a dead rank and migrate *only its* units, each to the
    /// least-loaded survivor at that moment (ties → lowest rank id).
    /// Returns the migrated unit ids, ascending. With no survivors left
    /// the orphan units stay formally assigned to `dead`; the world size
    /// is then 0 and no work can run.
    pub fn remove_rank(&mut self, dead: usize) -> Vec<usize> {
        if let Ok(pos) = self.survivors.binary_search(&dead) {
            self.survivors.remove(pos);
        }
        let orphans = self.units_of(dead);
        if self.survivors.is_empty() {
            return orphans;
        }
        for &u in &orphans {
            let new_owner = self
                .survivors
                .iter()
                .copied()
                .min_by_key(|&r| (self.load(r), r))
                .expect("nonempty survivors");
            self.owner[u] = new_owner;
        }
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly() {
        for (total, parts) in [(10, 3), (16, 4), (7, 7), (100, 9)] {
            let bp = BlockPartition::new(total, parts);
            let mut covered = vec![false; total];
            for i in 0..parts {
                for idx in bp.range(i) {
                    assert!(!covered[idx], "overlap at {idx}");
                    covered[idx] = true;
                    assert_eq!(bp.owner(idx), i, "owner({idx})");
                }
            }
            assert!(covered.iter().all(|&c| c), "gap in cover");
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = (0..parts).map(|i| bp.len(i)).collect();
            let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn partition_with_more_parts_than_items() {
        // parts > total: the first `total` parts own one item each, the
        // rest are well-defined empty parts, and owner()/range() agree.
        for (total, parts) in [(3, 5), (1, 8), (0, 4), (7, 7)] {
            let bp = BlockPartition::new(total, parts);
            let mut covered = vec![false; total];
            for i in 0..parts {
                let r = bp.range(i);
                if i < total {
                    assert_eq!(r.len(), usize::from(total > 0).min(1));
                } else {
                    assert!(r.is_empty(), "part {i} of ({total},{parts}) not empty");
                    assert_eq!(r, total..total);
                }
                for idx in r {
                    assert!(!covered[idx]);
                    covered[idx] = true;
                    assert_eq!(bp.owner(idx), i, "owner({idx}) vs range({i})");
                }
            }
            assert!(covered.iter().all(|&c| c), "gap in cover");
        }
    }

    #[test]
    fn weighted_partition_balances_skew() {
        // One heavy unit plus many light ones: LPT must isolate the heavy
        // unit and spread the rest.
        let mut w = vec![1.0; 12];
        w[0] = 8.0;
        let owner = partition_weighted(&w, 4);
        assert_eq!(owner.len(), 12);
        assert!(owner.iter().all(|&r| r < 4));
        let load = |r: usize| -> f64 { (0..12).filter(|&u| owner[u] == r).map(|u| w[u]).sum() };
        let loads: Vec<f64> = (0..4).map(load).collect();
        let total: f64 = w.iter().sum();
        let max_w = 8.0;
        let max_load = loads.iter().cloned().fold(0.0, f64::max);
        // List-scheduling guarantee.
        assert!(max_load <= total / 4.0 + max_w + 1e-9, "{loads:?}");
        // The heavy rank should get few or no extra light units.
        let heavy_rank = owner[0];
        assert!(load(heavy_rank) <= 9.0, "{loads:?}");
    }

    #[test]
    fn weighted_partition_is_deterministic() {
        let w: Vec<f64> = (0..20).map(|u| 1.0 + (u % 5) as f64).collect();
        let a = partition_weighted(&w, 3);
        let b = partition_weighted(&w, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_partition_tolerates_bad_weights() {
        let w = [f64::NAN, -3.0, f64::INFINITY, 1.0, 2.0];
        let owner = partition_weighted(&w, 2);
        assert_eq!(owner.len(), 5);
        assert!(owner.iter().all(|&r| r < 2));
    }

    #[test]
    fn elastic_uniform_matches_block_partition() {
        let p = SimParams::test_small();
        let t = ElasticTiling::uniform(&p, 3, 4, 5);
        assert_eq!(t.procs(), 12);
        assert_eq!(t.world_size(), 5);
        let bp = BlockPartition::new(12, 5);
        for u in 0..12 {
            assert_eq!(t.owner[u], bp.owner(u));
            assert!(t.is_survivor(t.owner[u]));
        }
    }

    #[test]
    fn elastic_weighted_keeps_grid_and_moves_owners() {
        let p = SimParams::test_small();
        let mut w = vec![1.0; 12];
        w[0] = 10.0;
        let t = ElasticTiling::weighted(&p, 3, 4, 4, &w);
        assert_eq!(t.procs(), 12);
        assert_eq!(t.world_size(), 4);
        // Same unit grid as uniform — tile geometry untouched.
        let u = ElasticTiling::uniform(&p, 3, 4, 4);
        assert_eq!(t.dec.procs(), u.dec.procs());
        // The heavy unit's rank carries less of the light load.
        let heavy = t.owner[0];
        assert!(t.load(heavy) <= 2, "{:?}", t.owner);
    }

    #[test]
    fn rebalance_reports_exactly_the_moved_units() {
        let p = SimParams::test_small();
        let mut t = ElasticTiling::uniform(&p, 3, 4, 4);
        let before = t.owner.clone();
        let mut w = vec![1.0; 12];
        // Make rank 0's block (units 0..3) heavy so some of it migrates.
        w[0] = 6.0;
        w[1] = 6.0;
        let moved = t.rebalance(&w);
        for (u, (now, was)) in t.owner[..12].iter().zip(&before[..12]).enumerate() {
            if moved.contains(&u) {
                assert_ne!(now, was);
            } else {
                assert_eq!(now, was);
            }
        }
        // Rebalance with identical weights is idempotent.
        let again = t.rebalance(&w);
        assert!(again.is_empty(), "{again:?}");
    }

    #[test]
    fn dace_grid_roundtrip() {
        let p = SimParams::test_small();
        let d = DaceDecomp::new(&p, 3, 4);
        assert_eq!(d.procs(), 12);
        for r in 0..12 {
            let (i, j) = d.coords(r);
            assert_eq!(d.rank(i, j), r);
        }
    }

    #[test]
    fn halos_clamp_at_boundaries() {
        let p = SimParams::test_small(); // ne=12, na=16, nw=3, nb=4
        let d = DaceDecomp::new(&p, 3, 4);
        let h0 = d.energy_halo(0, p.nw);
        assert_eq!(h0.start, 0);
        let h1 = d.energy_halo(1, p.nw);
        assert_eq!(h1.start, d.energy.range(1).start - p.nw);
        assert_eq!(h1.end, d.energy.range(1).end + p.nw);
        let hlast = d.energy_halo(2, p.nw);
        assert_eq!(hlast.end, p.ne, "upper halo clamps at the grid end");
        let w0 = d.atom_window(0, p.nb, p.na);
        assert_eq!(w0.start, 0);
        let w3 = d.atom_window(3, p.nb, p.na);
        assert_eq!(w3.end, p.na);
        let w1 = d.atom_window(1, p.nb, p.na);
        assert_eq!(w1.start, d.atoms.range(1).start - 2);
        assert_eq!(w1.end, d.atoms.range(1).end + 2);
    }

    #[test]
    fn three_level_rank_bijection() {
        let p = SimParams::test_small(); // nkz=3, ne=12
        let d = ThreeLevelDecomp::new(&p, 3, 4, 2);
        assert_eq!(d.procs(), 24);
        for r in 0..d.procs() {
            let (kg, eg, s) = d.coords(r);
            assert_eq!(d.rank(kg, eg, s), r);
        }
        // Every (kz, E) point has exactly `spatial` owners, and all points
        // are covered.
        let mut owned = vec![0usize; d.procs()];
        for kz in 0..p.nkz {
            for e in 0..p.ne {
                let o = d.owners_of_point(kz, e);
                assert_eq!(o.len(), 2);
                for r in o {
                    owned[r] += 1;
                }
            }
        }
        // Balanced: every rank owns the same number of points (dims divide).
        assert!(owned.iter().all(|&c| c == owned[0]), "{owned:?}");
    }

    #[test]
    fn elastic_tiling_migrates_only_dead_units() {
        let p = SimParams::test_small();
        let mut t = ElasticTiling::new(&p, 3, 4);
        assert_eq!(t.world_size(), 12);
        let before = t.owner.clone();
        let moved = t.remove_rank(5);
        assert_eq!(moved, vec![5], "exactly the dead rank's unit migrates");
        for (u, (now, was)) in t.owner[..12].iter().zip(&before[..12]).enumerate() {
            if u != 5 {
                assert_eq!(now, was, "survivor units must not move");
            }
        }
        assert!(!t.is_survivor(5));
        assert!(t.is_survivor(t.owner[5]));
        // A second death: the doubly-loaded rank is skipped by the
        // least-loaded rule.
        let heavy = t.owner[5];
        let moved2 = t.remove_rank(7);
        assert_eq!(moved2, vec![7]);
        assert_ne!(t.owner[7], heavy, "least-loaded survivor takes the orphan");
    }

    #[test]
    fn elastic_tiling_survives_to_the_last_rank() {
        let p = SimParams::test_small();
        let mut t = ElasticTiling::new(&p, 2, 2);
        for dead in [0, 2, 3] {
            t.remove_rank(dead);
        }
        assert_eq!(t.survivors, vec![1]);
        assert!(t.owner.iter().all(|&o| o == 1), "{:?}", t.owner);
        let orphans = t.remove_rank(1);
        assert_eq!(orphans, vec![0, 1, 2, 3]);
        assert_eq!(t.world_size(), 0);
    }

    #[test]
    fn omen_d_owner_round_robin() {
        let p = SimParams::test_small();
        let d = OmenDecomp::new(&p, 4);
        let owners: Vec<usize> = (0..p.nqz)
            .flat_map(|q| (0..p.nw).map(move |w| (q, w)))
            .map(|(q, w)| d.d_owner(&p, q, w))
            .collect();
        assert!(owners.iter().all(|&o| o < 4));
        for r in 0..4 {
            assert!(owners.contains(&r));
        }
    }
}
