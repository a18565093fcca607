//! Distributed GF+SSE iteration driver.
//!
//! [`DistSse`] is the distributed SSE phase of the one Born loop,
//! `qt_core::scf::run_scf_with`: each iteration's GF phases solve the
//! whole grid (they communicate nothing), then the DaCe all-to-all
//! redistributes the Green's functions into the energy×atom tiling, each
//! rank runs its local SSE, and the results gather on root. The tiling
//! says who computes what (full world, weighted, mid-recovery), the
//! [`ElasticPolicy`] says how (failure detector, recovery bounds, and the
//! kill schedule — `faults: None` kills nobody, `Some(plan)` kills the
//! ranks it schedules). A caller that measures one iteration runs the loop
//! with `max_iterations: 1`.

use crate::decomp::{ElasticTiling, OmenDecomp};
use crate::schemes::{ca_exchange, BalanceStats, CommStats, ElasticPolicy, SseDistContext};
use qt_core::device::Device;
use qt_core::gf::{self, ElectronSelfEnergy, GfConfig, PhononSelfEnergy};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::health::{CoverageReport, NumericalError, QuarantinedPoint};
use qt_core::params::SimParams;
use qt_core::scf::SsePhase;
use qt_core::sse;
use qt_telemetry::counters::{self, Counter};
use std::collections::BTreeSet;

/// Result of one distributed iteration.
pub struct DistIterationResult {
    pub sigma: ElectronSelfEnergy,
    pub pi: PhononSelfEnergy,
    /// Electrical current, reduced over the ranks' GF energy chunks.
    pub current: f64,
    /// Total bytes moved in the SSE exchange.
    pub sse_bytes: u64,
    /// Full per-rank communication statistics of the SSE exchange.
    pub comm: CommStats,
}

/// One GF+SSE iteration from zero self-energies on the full `te × ta`
/// tiling under the default policy, outside the Born loop: the uncached
/// GF phases, then the supervised CA exchange, narrowed by
/// [`ElasticIterationResult::complete`]. Kept for `qt-perf`, which pins
/// this signature; every other distributed run is [`DistSse`].
#[allow(clippy::too_many_arguments)]
pub fn distributed_iteration(
    p: &SimParams,
    dev: &Device,
    em: &ElectronModel,
    pm: &PhononModel,
    grids: &Grids,
    cfg: &GfConfig,
    te: usize,
    ta: usize,
) -> Result<DistIterationResult, NumericalError> {
    let _span = qt_telemetry::Span::enter_global("dist/iteration");
    let egf = gf::electron_gf_phase(dev, em, p, grids, &ElectronSelfEnergy::zeros(p), cfg)?;
    let pgf = gf::phonon_gf_phase(dev, pm, p, grids, &PhononSelfEnergy::zeros(p), cfg)?;
    let (dl, dg) = sse::preprocess_d(dev, p, &pgf);
    let dh = em.dh_tensor(dev);
    let inputs = SseDistContext {
        p,
        dev,
        grids,
        dh: &dh,
        g_lesser: &egf.g_lesser,
        g_greater: &egf.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    let mut tiling = ElasticTiling::new(p, te, ta);
    let mut done = supervise(&inputs, &mut tiling, &ElasticPolicy::default()).complete()?;
    // The current as the world reduces it: each rank's GF energy chunk
    // sums its points in `gf`'s order, then the partials add in rank order.
    let chunks = OmenDecomp::new(p, tiling.procs()).energy;
    let point_current = |i: usize| egf.current_spectrum[i] * grids.de / p.nkz as f64;
    done.current = (0..chunks.parts)
        .map(|rank| {
            (0..p.nkz)
                .flat_map(|k| chunks.range(rank).map(move |e| k * p.ne + e))
                .fold(0.0, |c, i| c + point_current(i))
        })
        .fold(0.0, |total, c| total + c);
    Ok(done)
}

/// What one supervised exchange did, beside its result.
pub(crate) struct ElasticIterationResult {
    pub result: DistIterationResult,
    /// Electron grid points whose backing GF-chunk state sat on a rank
    /// that died — whether the point then rode recovery (recomputed on a
    /// survivor, bitwise exact) or was zero-filled in a degraded
    /// completion. Read by the supervision tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub coverage: CoverageReport,
    /// True when the run completed with abandoned tiles (zero-filled
    /// Σ≷/Π≷ slices) instead of full recovery.
    pub degraded: bool,
    /// Original ids of the ranks that died, in detection order.
    pub deaths: Vec<usize>,
    /// Number of detect→retile→retry rounds the supervisor ran.
    pub retiles: usize,
    /// Work units migrated onto survivors across all retiles (also the
    /// `elastic.migrated_tiles` counter). Read by the supervision tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub migrated_units: usize,
}

impl ElasticIterationResult {
    /// Narrow to the plain result: a run with abandoned (zero-filled)
    /// tiles is a typed [`NumericalError::RankLoss`], never zeros
    /// reported as complete. The rank named is the last one to die — or
    /// the exchange root when the retry bound ran out on exonerated
    /// accusations alone.
    pub fn complete(self) -> Result<DistIterationResult, NumericalError> {
        if self.degraded {
            let rank = self.deaths.last().copied().unwrap_or(0);
            return Err(NumericalError::RankLoss { rank });
        }
        Ok(self.result)
    }
}

/// The supervision loop: [`ca_exchange`] until it succeeds, re-tiling
/// around each confirmed death; an empty suspect list (every accusation
/// exonerated) retries on the unchanged tiling. Each attempt runs over the
/// current survivor set; a detected death shrinks the tiling (only the
/// dead rank's units migrate) and recovery recomputes the lost tiles from
/// the caller's GF tensors. When a death would push the quarantined
/// fraction past [`ElasticPolicy::max_bad_fraction`], its units are
/// abandoned instead and the iteration completes degraded, with those
/// tiles zero-filled and reported in the coverage. `result.current` is 0:
/// the current is the GF phase's, which the caller holds.
pub(crate) fn supervise(
    inputs: &SseDistContext<'_>,
    tiling: &mut ElasticTiling,
    policy: &ElasticPolicy,
) -> ElasticIterationResult {
    let p = inputs.p;
    let procs = tiling.procs();
    let gf_dec = OmenDecomp::new(p, procs);
    let mut coverage = CoverageReport::full(p.nkz * p.ne);
    let mut quarantined_idx: BTreeSet<usize> = BTreeSet::new();
    let mut deaths: Vec<usize> = Vec::new();
    let mut retiles = 0usize;
    let mut migrated_units = 0usize;
    let exchanged = loop {
        if tiling.world_size() == 0 || retiles > policy.max_retiles {
            break None; // nobody left to compute, or the retry bound hit
        }
        match ca_exchange(inputs, tiling, policy) {
            Ok(done) => break Some(done),
            Err(suspects) => {
                retiles += 1;
                counters::add(Counter::ElasticRetileEvents, 1);
                let mut moved_this_round: u64 = 0;
                for dead in suspects {
                    if !tiling.is_survivor(dead) {
                        continue; // already handled in an earlier round
                    }
                    deaths.push(dead);
                    counters::add(Counter::ElasticRankDeaths, 1);
                    qt_telemetry::journal::emit(qt_telemetry::EventKind::RankDeath {
                        rank: dead as u64,
                    });
                    // Quarantine the electron grid points whose GF-chunk
                    // state sat on the dead rank (deduplicated: a unit that
                    // migrates and loses its new host again counts once).
                    for u in tiling.units_of(dead) {
                        for e in gf_dec.energy.range(u) {
                            for k in 0..p.nkz {
                                let grid_index = k * p.ne + e;
                                if quarantined_idx.insert(grid_index) {
                                    coverage.quarantined.push(QuarantinedPoint {
                                        grid_index,
                                        error: NumericalError::RankLoss { rank: dead },
                                    });
                                }
                            }
                        }
                    }
                    if coverage.bad_fraction() <= policy.max_bad_fraction {
                        let moved = tiling.remove_rank(dead).len();
                        migrated_units += moved;
                        moved_this_round += moved as u64;
                        counters::add(Counter::ElasticMigratedTiles, moved as u64);
                    } else {
                        // Too much of the grid would ride recovery: give
                        // the units up instead of migrating them.
                        tiling.abandon_rank(dead);
                    }
                }
                qt_telemetry::journal::emit(qt_telemetry::EventKind::Retile {
                    moved_units: moved_this_round,
                });
            }
        }
    };
    // No exchange completed: fully degraded, all-zero Σ≷/Π≷.
    let degraded = exchanged.is_none() || tiling.live_units().len() < procs;
    let (sigma, pi, comm) = exchanged.unwrap_or_else(|| {
        (
            ElectronSelfEnergy::zeros(p),
            PhononSelfEnergy::zeros(p),
            CommStats::default(),
        )
    });
    ElasticIterationResult {
        result: DistIterationResult {
            sigma,
            pi,
            current: 0.0,
            sse_bytes: comm.world_bytes,
            comm,
        },
        coverage,
        degraded,
        deaths,
        retiles,
        migrated_units,
    }
}

/// The busy-time imbalance ratio (max/mean) above which the distributed
/// Born loop ([`DistSse`]) re-tiles between iterations
/// ([`maybe_rebalance`]).
pub const REBALANCE_THRESHOLD: f64 = 1.5;

/// The distributed SSE phase of `qt_core::scf::run_scf_with`: every Born
/// iteration's Σ≷/Π≷ come from supervised CA exchanges on one
/// `tiling` that persists across iterations — deaths shrink it, and
/// [`maybe_rebalance`] re-tiles it at [`REBALANCE_THRESHOLD`] after each
/// exchange. Mixing, convergence, checkpoints, cancellation and warm
/// starts stay in the one SCF loop. A degraded exchange fails the
/// iteration with [`NumericalError::RankLoss`].
pub struct DistSse {
    pub tiling: ElasticTiling,
    pub policy: ElasticPolicy,
    /// Original ids of the ranks that died, across all iterations.
    pub deaths: Vec<usize>,
    /// Detect→retile→retry rounds across all iterations.
    pub retiles: usize,
    /// The last completed exchange's bytes, per-rank sent/received
    /// volumes and busy times.
    pub comm: CommStats,
}

impl DistSse {
    pub fn new(tiling: ElasticTiling, policy: ElasticPolicy) -> Self {
        DistSse {
            tiling,
            policy,
            deaths: Vec::new(),
            retiles: 0,
            comm: CommStats::default(),
        }
    }
}

impl SsePhase for DistSse {
    fn run(
        &mut self,
        inputs: &SseDistContext<'_>,
    ) -> Result<(ElectronSelfEnergy, PhononSelfEnergy), NumericalError> {
        let el = supervise(inputs, &mut self.tiling, &self.policy);
        self.deaths.extend(&el.deaths);
        self.retiles += el.retiles;
        let done = el.complete()?;
        if let Some(balance) = &done.comm.balance {
            maybe_rebalance(&mut self.tiling, balance, REBALANCE_THRESHOLD);
        }
        self.comm = done.comm;
        Ok((done.sigma, done.pi))
    }
}

/// Re-partition `tiling` from measured per-unit costs when the measured
/// busy-time imbalance exceeds `threshold`. Uses the bitwise-safe
/// migration path ([`ElasticTiling::rebalance`]): only the unit → rank
/// map moves, never the tile geometry, so the next iteration's
/// observables are unchanged. Returns the units that moved (empty when
/// balanced enough) and feeds the rebalance telemetry counters.
pub fn maybe_rebalance(
    tiling: &mut ElasticTiling,
    balance: &BalanceStats,
    threshold: f64,
) -> Vec<usize> {
    if balance.imbalance_ratio() <= threshold {
        return Vec::new();
    }
    let moved = tiling.rebalance(&balance.unit_secs);
    if !moved.is_empty() {
        counters::add(Counter::BalanceRebalanceEvents, 1);
        counters::add(Counter::BalanceMovedUnits, moved.len() as u64);
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use qt_core::scf::{run_scf_with, ScfConfig, ScfOptions, Simulation};
    use qt_linalg::Complex64;

    fn params() -> SimParams {
        SimParams {
            nkz: 2,
            nqz: 2,
            ne: 12,
            nw: 2,
            na: 12,
            nb: 3,
            norb: 2,
            bnum: 4,
        }
    }

    fn fixture() -> Simulation {
        Simulation::new(params(), -1.2, 1.2)
    }

    /// `(te, ta)` for the world size requested via `QT_CHAOS_WORLD`.
    fn world_shape() -> (usize, usize) {
        match std::env::var("QT_CHAOS_WORLD").ok().as_deref() {
            Some("2") => (1, 2),
            Some("8") => (2, 4),
            None | Some("4") => (2, 2),
            Some(other) => panic!("QT_CHAOS_WORLD must be 2, 4, or 8, got {other:?}"),
        }
    }

    fn iterate(sim: &Simulation, te: usize, ta: usize) -> DistIterationResult {
        let cfg = GfConfig::default();
        distributed_iteration(&sim.p, &sim.dev, &sim.em, &sim.pm, &sim.grids, &cfg, te, ta).unwrap()
    }

    /// The supervised exchange of an iteration from zero self-energies on
    /// `tiling`, with its supervision record.
    fn supervised(
        sim: &Simulation,
        tiling: &mut ElasticTiling,
        policy: &ElasticPolicy,
    ) -> ElasticIterationResult {
        let (p, dev, grids) = (&sim.p, &sim.dev, &sim.grids);
        let cfg = GfConfig::default();
        let zeros = ElectronSelfEnergy::zeros(p);
        let egf = gf::electron_gf_phase(dev, &sim.em, p, grids, &zeros, &cfg).unwrap();
        let zeros = PhononSelfEnergy::zeros(p);
        let pgf = gf::phonon_gf_phase(dev, &sim.pm, p, grids, &zeros, &cfg).unwrap();
        let (dl, dg) = sse::preprocess_d(dev, p, &pgf);
        let inputs = SseDistContext {
            p,
            dev,
            grids,
            dh: &sim.dh,
            g_lesser: &egf.g_lesser,
            g_greater: &egf.g_greater,
            d_lesser_pre: &dl,
            d_greater_pre: &dg,
        };
        supervise(&inputs, tiling, policy)
    }

    fn is_zero(t: &qt_linalg::Tensor) -> bool {
        t.as_slice().iter().all(|z| *z == Complex64::ZERO)
    }

    fn nonzero(t: &qt_linalg::Tensor) -> usize {
        t.as_slice()
            .iter()
            .filter(|z| **z != Complex64::ZERO)
            .count()
    }

    #[test]
    fn distributed_iteration_matches_serial() {
        let sim = fixture();
        let (p, dev, em, pm, grids) = (&sim.p, &sim.dev, &sim.em, &sim.pm, &sim.grids);
        let cfg = &GfConfig::default();
        // Serial reference: one GF phase + serial SSE.
        let egf =
            gf::electron_gf_phase(dev, em, p, grids, &ElectronSelfEnergy::zeros(p), cfg).unwrap();
        let pgf = gf::phonon_gf_phase(dev, pm, p, grids, &PhononSelfEnergy::zeros(p), cfg).unwrap();
        let (dl, dg) = sse::preprocess_d(dev, p, &pgf);
        let inputs = sse::SseInputs {
            dev,
            p,
            grids,
            dh: &sim.dh,
            g_lesser: &egf.g_lesser,
            g_greater: &egf.g_greater,
            d_lesser_pre: &dl,
            d_greater_pre: &dg,
        };
        let serial_sigma = sse::sigma(&inputs, sse::SseVariant::Dace);
        // Distributed on a 2×2 grid.
        let dist = iterate(&sim, 2, 2);
        let rel = serial_sigma.lesser.max_abs_diff(&dist.sigma.lesser)
            / serial_sigma.lesser.norm().max(1e-30);
        assert!(rel < 1e-10, "distributed iteration Σ< rel {rel}");
        // Currents: distributed GF accumulates the same Meir–Wingreen sum.
        assert!(
            (dist.current - egf.current).abs() / egf.current.abs().max(1e-30) < 1e-10,
            "current {} vs serial {}",
            dist.current,
            egf.current
        );
        assert!(dist.sse_bytes > 0);
    }

    #[test]
    fn runner_reports_per_rank_volumes_matching_model() {
        let sim = fixture();
        let (te, ta) = (2, 2);
        let dist = iterate(&sim, te, ta);
        assert_eq!(dist.comm.rank_sent.len(), te * ta);
        assert_eq!(dist.comm.rank_sent.iter().sum::<u64>(), dist.sse_bytes);
        assert_eq!(dist.comm.world_bytes, dist.sse_bytes);
        // The per-rank sends match the exact closed form of the scheme.
        let halo = sim.dev.max_neighbor_index_distance();
        let model = crate::volume::dace_rank_sent_bytes(&sim.p, te, ta, halo);
        assert_eq!(dist.comm.rank_sent, model);
    }

    #[test]
    fn emptied_survivor_set_narrows_to_an_error_not_to_zeros() {
        // Every rank abandoned before the first attempt: the supervisor has
        // nobody to run the exchange on and completes fully degraded.
        let sim = fixture();
        let mut tiling = ElasticTiling::new(&sim.p, 2, 2);
        for rank in 0..4 {
            tiling.abandon_rank(rank);
        }
        let el = supervised(&sim, &mut tiling, &ElasticPolicy::default());
        assert!(el.degraded);
        assert!(is_zero(&el.result.sigma.lesser));
        assert_eq!(el.result.sse_bytes, 0);
        assert!(matches!(
            el.complete(),
            Err(NumericalError::RankLoss { .. })
        ));
    }

    #[test]
    fn killed_rank_recovery_keeps_its_lost_points_on_record() {
        let sim = fixture();
        let (te, ta) = world_shape();
        let procs = te * ta;
        let victim = procs - 1;
        // One rank's death quarantines exactly 1/procs of the electron
        // grid; the ceiling admits exactly that one loss.
        let policy = ElasticPolicy {
            max_bad_fraction: 1.0 / procs as f64,
            faults: Some(FaultPlan::default().with_kill_at(victim, 3)),
            ..Default::default()
        };
        let el = supervised(&sim, &mut ElasticTiling::new(&sim.p, te, ta), &policy);
        assert_eq!(el.deaths, vec![victim], "exactly the scheduled rank dies");
        assert!(!el.degraded, "one death out of {procs} must ride recovery");
        assert!(
            el.migrated_units >= 1,
            "only the dead rank's tiles migrate, but they do migrate"
        );
        // The lost grid points stay on the record even though they
        // recovered.
        assert!(!el.coverage.is_full());
        assert!(el.coverage.bad_fraction() <= policy.max_bad_fraction);
    }

    #[test]
    fn killed_owner_of_every_unit_migrates_all_its_units() {
        // Every unit collapsed onto rank 0, killed on its first send, with
        // a ceiling that admits losing the whole grid.
        let sim = fixture();
        let (te, ta) = world_shape();
        let procs = te * ta;
        let mut tiling = ElasticTiling::weighted(&sim.p, te, ta, procs, &vec![0.0; procs]);
        let policy = ElasticPolicy {
            max_bad_fraction: 1.0,
            faults: Some(FaultPlan::default().with_kill_at(0, 1)),
            ..Default::default()
        };
        let el = supervised(&sim, &mut tiling, &policy);
        assert_eq!(el.deaths, vec![0], "the collapsed owner dies, nobody else");
        assert!(!el.degraded, "recovery must complete undegraded");
        assert_eq!(
            el.migrated_units, procs,
            "all of the dead owner's units migrate to survivors"
        );
    }

    #[test]
    fn death_past_bad_fraction_ceiling_zero_fills_the_abandoned_tiles() {
        let sim = fixture();
        let (te, ta) = world_shape();
        let victim = 0;
        // A zero ceiling makes any loss unrecoverable: the victim's units
        // must be abandoned and the iteration must still complete.
        let policy = ElasticPolicy {
            max_bad_fraction: 0.0,
            faults: Some(FaultPlan::default().with_kill_at(victim, 1)),
            ..Default::default()
        };
        let el = supervised(&sim, &mut ElasticTiling::new(&sim.p, te, ta), &policy);
        assert!(el.degraded, "an unrecoverable death must degrade, not hang");
        assert_eq!(el.deaths, vec![victim]);
        assert_eq!(el.migrated_units, 0, "abandoned units must not migrate");
        assert!(!el.coverage.is_full());
        assert!(el.coverage.bad_fraction() > 0.0);
        for q in &el.coverage.quarantined {
            assert!(q.grid_index < sim.p.nkz * sim.p.ne);
            assert!(matches!(
                q.error,
                NumericalError::RankLoss { rank } if rank == victim
            ));
        }
        // Degraded ≠ garbage: the surviving tiles still carry fault-free
        // values; only the abandoned slices are zero-filled.
        let mut tiling = ElasticTiling::new(&sim.p, te, ta);
        let clean = supervised(&sim, &mut tiling, &ElasticPolicy::default());
        let kept = nonzero(&el.result.sigma.lesser);
        if te * ta > 1 {
            assert!(kept > 0, "survivor tiles must be present");
        }
        assert!(
            kept < nonzero(&clean.result.sigma.lesser),
            "abandoned tiles must be zero-filled"
        );
        assert!(el.complete().is_err());
    }

    #[test]
    fn exhausted_retry_bound_zero_fills_every_tile() {
        // One scheduled kill and no retile budget: the supervisor detects
        // the death, may not retry, and completes fully degraded.
        let sim = fixture();
        let victim = 3;
        let policy = ElasticPolicy {
            max_retiles: 0,
            faults: Some(FaultPlan::default().with_kill_at(victim, 3)),
            ..Default::default()
        };
        let el = supervised(&sim, &mut ElasticTiling::new(&sim.p, 2, 2), &policy);
        assert!(el.degraded);
        assert_eq!(el.deaths, vec![victim]);
        assert!(is_zero(&el.result.sigma.lesser) && is_zero(&el.result.pi.greater));
        match el.complete() {
            Err(NumericalError::RankLoss { rank }) => assert_eq!(rank, victim),
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("a zero-filled Σ≷/Π≷ must not narrow to a complete result"),
        }
    }

    #[test]
    fn tiled_iteration_rebalance_keeps_results_bitwise_stable() {
        let p = params();
        let (dev, em) = (Device::skewed(&p, 1, 1), ElectronModel::for_params(&p));
        let sim = Simulation::from_parts(p, dev, em, PhononModel::default(), -1.2, 1.2).unwrap();
        let policy = ElasticPolicy::default();
        // Two units per rank, so a re-partition can shorten the makespan.
        let mut tiling = ElasticTiling::uniform(&p, 2, 2, 2);
        let first = supervised(&sim, &mut tiling, &policy);
        assert!(!first.degraded);
        assert!(first.deaths.is_empty());
        assert_eq!(first.migrated_units, 0);
        assert!(first.coverage.is_full());
        let bal = first
            .result
            .comm
            .balance
            .as_ref()
            .expect("balance measured");
        assert_eq!(bal.rank_busy_secs.len(), tiling.world_size());
        // Drive the re-tiling decision off a deterministic skew instead of
        // wall-clock noise: one rank 4x busier, its unit 8x costlier.
        let skew = BalanceStats {
            rank_busy_secs: vec![4.0, 1.0, 1.0, 1.0],
            unit_secs: vec![1.0, 8.0, 1.0, 1.0],
        };
        let events0 = counters::total(Counter::BalanceRebalanceEvents);
        assert!(maybe_rebalance(&mut tiling, &skew, 10.0).is_empty());
        let moved = maybe_rebalance(&mut tiling, &skew, 1.5);
        assert!(!moved.is_empty(), "4.0/1.75 imbalance must trigger a move");
        assert!(counters::total(Counter::BalanceRebalanceEvents) > events0);
        // The re-tiled iteration must reproduce the observables bit for bit.
        let second = supervised(&sim, &mut tiling, &policy);
        assert_eq!(
            first.result.sigma.lesser.as_slice(),
            second.result.sigma.lesser.as_slice()
        );
        assert_eq!(
            first.result.sigma.greater.as_slice(),
            second.result.sigma.greater.as_slice()
        );
        assert_eq!(
            first.result.pi.lesser.as_slice(),
            second.result.pi.lesser.as_slice()
        );
        assert_eq!(
            first.result.pi.greater.as_slice(),
            second.result.pi.greater.as_slice()
        );
        assert_eq!(first.result.current, second.result.current);
        assert!(second.result.comm.balance.is_some());
    }

    #[test]
    fn skewed_weights_leave_a_one_unit_per_rank_map_alone() {
        // One unit per rank: a re-partition could only relabel the units,
        // which leaves the makespan the weights predict where it was.
        let sim = fixture();
        let mut tiling = ElasticTiling::new(&sim.p, 2, 2);
        let skew = BalanceStats {
            rank_busy_secs: vec![4.0, 1.0, 1.0, 1.0],
            unit_secs: vec![1.0, 8.0, 1.0, 1.0],
        };
        let events0 = counters::local(Counter::BalanceRebalanceEvents);
        let moved0 = counters::local(Counter::BalanceMovedUnits);
        assert!(maybe_rebalance(&mut tiling, &skew, 1.5).is_empty());
        assert_eq!(tiling.owner, vec![0, 1, 2, 3]);
        assert_eq!(counters::local(Counter::BalanceRebalanceEvents), events0);
        assert_eq!(counters::local(Counter::BalanceMovedUnits), moved0);
    }

    #[test]
    fn gf_quarantine_is_the_serial_phases_at_every_tiling() {
        // The vacancy resonance of `scf::tests::vacancy_resonance_quarantines_honestly`:
        // the serial GF phase quarantines one energy column (2 of 18
        // points) and succeeds. The distributed loop must report the same
        // global grid indices whatever the energy tiling — the ceiling
        // applies to the whole grid, never to one rank's chunk.
        let p = SimParams {
            ne: 9,
            na: 8,
            ..params()
        };
        let disorder = qt_core::hamiltonian::Disorder {
            seed: 7,
            vacancy_fraction: 0.3,
            onsite_amplitude: 0.05,
            vacancy_level: 0.0,
        };
        let sim = Simulation::disordered(p, -1.0, 1.0, disorder).unwrap();
        let cfg = ScfConfig {
            max_iterations: 1,
            ..Default::default()
        };
        let zeros = ElectronSelfEnergy::zeros(&p);
        let serial =
            gf::electron_gf_phase(&sim.dev, &sim.em, &p, &sim.grids, &zeros, &cfg.gf).unwrap();
        let indices = |c: &CoverageReport| -> Vec<usize> {
            c.quarantined.iter().map(|q| q.grid_index).collect()
        };
        assert_eq!(indices(&serial.coverage), vec![4, 13]);
        for (te, ta) in [(1, 1), (3, 1), (9, 1)] {
            let mut body = DistSse::new(ElasticTiling::new(&p, te, ta), ElasticPolicy::default());
            let opts = ScfOptions {
                sse: Some(&mut body),
                ..Default::default()
            };
            let out = run_scf_with(&sim, &cfg, opts)
                .unwrap_or_else(|e| panic!("tiling ({te},{ta}): {e}"));
            assert_eq!(out.electron.coverage, serial.coverage, "tiling ({te},{ta})");
        }
    }

    #[test]
    fn born_loop_rebalances_a_collapsed_tiling_and_keeps_serial_bits() {
        // Every unit on rank 0: the first exchange measures a ~4x busy-time
        // imbalance, so the body re-tiles before the second iteration. At
        // TE = 1 the loop keeps the serial DaCe loop's currents and Σ≷ bit
        // for bit; Π≷ sums its tile partials in its own order.
        use qt_core::scf::run_scf;
        let sim = fixture();
        let cfg = ScfConfig {
            max_iterations: 3,
            tolerance: 0.0,
            ..Default::default()
        };
        let collapsed = ElasticTiling::weighted(&sim.p, 1, 4, 4, &[0.0; 4]);
        assert_eq!(collapsed.units_of(0).len(), 4);
        let mut body = DistSse::new(collapsed, ElasticPolicy::default());
        let opts = ScfOptions {
            sse: Some(&mut body),
            ..Default::default()
        };
        let dist = run_scf_with(&sim, &cfg, opts).unwrap();
        assert!(body.tiling.units_of(0).len() < 4, "the idle ranks get work");
        assert!(body.deaths.is_empty());
        let serial = run_scf(&sim, &cfg).unwrap();
        assert_eq!(dist.current_history, serial.current_history);
        assert_eq!(dist.sigma.lesser.as_slice(), serial.sigma.lesser.as_slice());
        let rel = dist.pi.greater.max_abs_diff(&serial.pi.greater) / serial.pi.greater.norm();
        assert!(rel < 1e-12, "Π> rel {rel}");
    }

    #[test]
    fn energy_chunking_is_exact() {
        // The iteration must be bitwise-independent of how energies are
        // tiled: each (kz, E) point is solved in isolation.
        let p = SimParams {
            ne: 10,
            na: 8,
            ..params()
        };
        let sim = Simulation::new(p, -1.2, 1.2);
        let a = iterate(&sim, 1, 2);
        let b = iterate(&sim, 5, 2);
        let rel = a.sigma.lesser.max_abs_diff(&b.sigma.lesser) / a.sigma.lesser.norm().max(1e-30);
        assert!(rel < 1e-10, "chunking must not change results: {rel}");
    }
}
