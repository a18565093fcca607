//! Distributed GF+SSE iteration driver.
//!
//! One full iteration of the Fig. 2 loop executed on the thread world:
//! every rank *computes* the Green's functions for its own energy chunk
//! (momentum×energy parallelism of the GF phase), the DaCe all-to-all
//! redistributes them into the energy×atom tiling, each rank runs its local
//! SSE, and the results gather on root. Unlike [`crate::schemes`] (which
//! reads pre-computed tensors to isolate the communication pattern), this
//! driver owns the whole pipeline — the distributed analogue of
//! `qt_core::scf`'s single iteration.
//!
//! There is one iteration, [`supervised_iteration`]: the tiling says who
//! computes what (full world, weighted, mid-recovery), the
//! [`ElasticPolicy`] says how (failure detector, recovery bounds, and the
//! fault schedule — `faults: None` runs plan-less worlds, `Some(plan)` the
//! recovery protocol).

use crate::comm::run_world;
use crate::decomp::{ElasticTiling, OmenDecomp};
use crate::schemes::{ca_exchange, BalanceStats, CommStats, ElasticPolicy, SseDistContext};
use qt_core::device::Device;
use qt_core::gf::{self, ElectronSelfEnergy, GfConfig, PhononSelfEnergy};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::health::{CoverageReport, NumericalError, QuarantinedPoint};
use qt_core::params::SimParams;
use qt_core::scf::Simulation;
use qt_core::sse;
use qt_linalg::Tensor;
use qt_telemetry::counters::{self, Counter};
use std::collections::BTreeSet;

/// Borrowed inputs of one distributed iteration: the device and its
/// models, the grids, and the GF-phase configuration.
#[derive(Clone, Copy)]
pub struct DistContext<'a> {
    pub p: &'a SimParams,
    pub dev: &'a Device,
    pub em: &'a ElectronModel,
    pub pm: &'a PhononModel,
    pub grids: &'a Grids,
    pub gf: &'a GfConfig,
}

impl<'a> DistContext<'a> {
    /// The context of `sim` under GF configuration `gf`.
    pub fn of(sim: &'a Simulation, gf: &'a GfConfig) -> Self {
        DistContext {
            p: &sim.p,
            dev: &sim.dev,
            em: &sim.em,
            pm: &sim.pm,
            grids: &sim.grids,
            gf,
        }
    }
}

/// Result of one distributed iteration.
pub struct DistIterationResult {
    pub sigma: ElectronSelfEnergy,
    pub pi: PhononSelfEnergy,
    /// Electrical current accumulated across ranks.
    pub current: f64,
    /// Total bytes moved in the SSE exchange.
    pub sse_bytes: u64,
    /// Full per-rank communication statistics of the SSE exchange.
    pub comm: CommStats,
}

/// [`supervised_iteration`] on the full `te × ta` tiling under the default
/// policy, narrowed by [`ElasticIterationResult::complete`]. Kept for
/// `qt-perf`, which pins this signature.
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
    let ctx = DistContext {
        p,
        dev,
        em,
        pm,
        grids,
        gf: cfg,
    };
    let mut tiling = ElasticTiling::new(p, te, ta);
    supervised_iteration(&ctx, &mut tiling, &ElasticPolicy::default())?.complete()
}

/// Everything the GF phase produces: the inputs of the SSE exchange.
struct GfPhase {
    dh: Tensor,
    g_lesser: Tensor,
    g_greater: Tensor,
    d_lesser_pre: Tensor,
    d_greater_pre: Tensor,
    current: f64,
}

/// The GF phase: each rank computes its energy chunk. (Thread-world ranks
/// write disjoint slices; results are assembled into the global tensors
/// that seed the SSE exchange, mirroring how each MPI rank would hold its
/// slice in place.)
fn gf_phase(ctx: &DistContext<'_>, procs: usize) -> Result<GfPhase, NumericalError> {
    let DistContext {
        p,
        dev,
        em,
        pm,
        grids,
        gf: cfg,
    } = *ctx;
    let dh = em.dh_tensor(dev);
    let dec = OmenDecomp::new(p, procs);
    let chunks: Vec<Result<(usize, gf::ElectronGf), NumericalError>> =
        run_world(procs, None, |comm| {
            let rank = comm.rank();
            let my_e = dec.energy.range(rank);
            // Solve only this rank's energies: narrow the grid.
            let mut local = *p;
            local.ne = my_e.len();
            let local_grids = Grids {
                energies: grids.energies[my_e.clone()].to_vec(),
                omegas: grids.omegas.clone(),
                kz: grids.kz.clone(),
                qz: grids.qz.clone(),
                de: grids.de,
            };
            let zeros = ElectronSelfEnergy::zeros(&local);
            gf::electron_gf_phase(dev, em, &local, &local_grids, &zeros, cfg).map(|g| (rank, g))
        });
    let mut g_lesser = Tensor::zeros(&[p.nkz, p.ne, p.na, p.norb, p.norb]);
    let mut g_greater = Tensor::zeros(&[p.nkz, p.ne, p.na, p.norb, p.norb]);
    let mut current = 0.0;
    for c in chunks {
        let (rank, egf) = c?;
        let my_e = dec.energy.range(rank);
        for k in 0..p.nkz {
            for (el, e) in my_e.clone().enumerate() {
                for a in 0..p.na {
                    g_lesser
                        .inner_mut(&[k, e, a])
                        .copy_from_slice(egf.g_lesser.inner(&[k, el, a]));
                    g_greater
                        .inner_mut(&[k, e, a])
                        .copy_from_slice(egf.g_greater.inner(&[k, el, a]));
                }
            }
        }
        current += egf.current;
    }
    // Phonon GF phase (serial here; its grid is small and its
    // parallelization is identical in kind).
    let pgf = gf::phonon_gf_phase(dev, pm, p, grids, &PhononSelfEnergy::zeros(p), cfg)?;
    let (dl, dg) = sse::preprocess_d(dev, p, &pgf);
    Ok(GfPhase {
        dh,
        g_lesser,
        g_greater,
        d_lesser_pre: dl,
        d_greater_pre: dg,
        current,
    })
}

/// Result of one supervised distributed iteration.
pub struct ElasticIterationResult {
    pub result: DistIterationResult,
    /// Electron-grid coverage. Quarantined entries mark the `(kz, E)`
    /// points whose backing GF-chunk state sat on a rank that died —
    /// whether the point then rode recovery (recomputed on a survivor,
    /// bitwise exact) or was zero-filled in a degraded completion.
    pub coverage: CoverageReport,
    /// True when the run completed with abandoned tiles (zero-filled
    /// Σ≷/Π≷ slices) instead of full recovery.
    pub degraded: bool,
    /// Original ids of the ranks that died, in detection order.
    pub deaths: Vec<usize>,
    /// Number of detect→retile→retry rounds the supervisor ran.
    pub retiles: usize,
    /// Work units migrated onto survivors across all retiles.
    pub migrated_units: usize,
}

impl ElasticIterationResult {
    /// Narrow to the plain result for callers that take no degraded
    /// answer: a run with abandoned (zero-filled) tiles is a typed
    /// [`NumericalError::RankLoss`], never zeros reported as complete. The
    /// rank named is the last one to die — or the exchange root when the
    /// retry bound ran out on exonerated accusations alone.
    pub fn complete(self) -> Result<DistIterationResult, NumericalError> {
        if self.degraded {
            let rank = self.deaths.last().copied().unwrap_or(0);
            return Err(NumericalError::RankLoss { rank });
        }
        Ok(self.result)
    }
}

/// Run one GF+SSE iteration on `tiling` with elastic rank-failure
/// recovery.
///
/// The tiling may be the full world ([`ElasticTiling::new`]), uniform over
/// fewer ranks, weighted ([`ElasticTiling::weighted`]), or mid-recovery;
/// deaths shrink it in place so the caller's tiling stays current across
/// iterations. The GF phase runs on the full original world (it
/// communicates nothing). The SSE exchange runs under supervision: each
/// attempt executes [`ca_exchange`] over the current survivor set; a
/// detected death shrinks the tiling (only the dead rank's units migrate)
/// and the exchange retries on a fresh survivor world. A successful
/// recovery is *bitwise identical* to the fault-free run, as is any owner
/// map. When a death would push the quarantined fraction past
/// [`ElasticPolicy::max_bad_fraction`], its units are abandoned instead
/// and the iteration completes in degraded mode with those tiles
/// zero-filled and reported in the coverage. Per-rank busy times and
/// per-unit costs come back in `result.comm.balance`.
pub fn supervised_iteration(
    ctx: &DistContext<'_>,
    tiling: &mut ElasticTiling,
    policy: &ElasticPolicy,
) -> Result<ElasticIterationResult, NumericalError> {
    let _span = qt_telemetry::Span::enter_global("dist/iteration");
    let gfp = gf_phase(ctx, tiling.procs())?;
    let inputs = SseDistContext {
        p: ctx.p,
        dev: ctx.dev,
        grids: ctx.grids,
        dh: &gfp.dh,
        g_lesser: &gfp.g_lesser,
        g_greater: &gfp.g_greater,
        d_lesser_pre: &gfp.d_lesser_pre,
        d_greater_pre: &gfp.d_greater_pre,
    };
    Ok(supervise(&inputs, gfp.current, tiling, policy))
}

/// The supervision loop: [`ca_exchange`] until it succeeds, re-tiling
/// around each confirmed death; an empty suspect list (every accusation
/// exonerated) retries on the unchanged tiling. `current` is the GF
/// phase's, carried into the result.
pub(crate) fn supervise(
    inputs: &SseDistContext<'_>,
    current: f64,
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
            current,
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

    fn iterate(sim: &Simulation, te: usize, ta: usize) -> DistIterationResult {
        let cfg = GfConfig::default();
        distributed_iteration(&sim.p, &sim.dev, &sim.em, &sim.pm, &sim.grids, &cfg, te, ta).unwrap()
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
        let cfg = GfConfig::default();
        let ctx = DistContext::of(&sim, &cfg);
        let mut tiling = ElasticTiling::new(&sim.p, 2, 2);
        for rank in 0..4 {
            tiling.abandon_rank(rank);
        }
        let el = supervised_iteration(&ctx, &mut tiling, &ElasticPolicy::default()).unwrap();
        assert!(el.degraded);
        assert!(el
            .result
            .sigma
            .lesser
            .as_slice()
            .iter()
            .all(|z| *z == qt_linalg::Complex64::ZERO));
        assert_eq!(el.result.sse_bytes, 0);
        assert!(matches!(
            el.complete(),
            Err(NumericalError::RankLoss { .. })
        ));
    }

    #[test]
    fn tiled_iteration_rebalance_keeps_results_bitwise_stable() {
        let p = params();
        let (dev, em) = (Device::skewed(&p, 1, 1), ElectronModel::for_params(&p));
        let sim = Simulation::from_parts(p, dev, em, PhononModel::default(), -1.2, 1.2).unwrap();
        let cfg = GfConfig::default();
        let ctx = DistContext::of(&sim, &cfg);
        let policy = ElasticPolicy::default();
        let mut tiling = ElasticTiling::uniform(&p, 2, 2, 4);
        let first = supervised_iteration(&ctx, &mut tiling, &policy).unwrap();
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
        assert_eq!(bal.rank_busy_secs.len(), 4);
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
        let second = supervised_iteration(&ctx, &mut tiling, &policy).unwrap();
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
    fn energy_chunking_is_exact() {
        // The GF phase must be bitwise-independent of how energies are
        // chunked: each (kz, E) point is solved in isolation.
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
