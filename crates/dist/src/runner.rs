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
//! ranks it schedules). A rank death has one of two outcomes: recovery,
//! bitwise, or [`NumericalError::RankLoss`]. A caller that measures one
//! iteration runs the loop with `max_iterations: 1`.

use crate::decomp::{ElasticTiling, OmenDecomp};
use crate::schemes::{ca_exchange, BalanceStats, CommStats, ElasticPolicy, SseDistContext};
use qt_core::device::Device;
use qt_core::gf::{self, ElectronSelfEnergy, GfConfig, PhononSelfEnergy};
use qt_core::grids::Grids;
use qt_core::hamiltonian::{ElectronModel, PhononModel};
use qt_core::health::NumericalError;
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
/// GF phases, then one [`DistSse`] exchange. Kept for `qt-perf`, which
/// pins this signature; every other distributed run is [`DistSse`] in the
/// Born loop.
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
    let mut body = DistSse::new(ElasticTiling::new(p, te, ta), ElasticPolicy::default());
    let (sigma, pi, comm) = body.exchange(&inputs)?;
    // The current as the world reduces it: each rank's GF energy chunk
    // sums its points in `gf`'s order, then the partials add in rank order.
    let chunks = OmenDecomp::new(p, te * ta).energy;
    let point_current = |i: usize| egf.current_spectrum[i] * grids.de / p.nkz as f64;
    let current = (0..chunks.parts)
        .map(|rank| {
            (0..p.nkz)
                .flat_map(|k| chunks.range(rank).map(move |e| k * p.ne + e))
                .fold(0.0, |c, i| c + point_current(i))
        })
        .fold(0.0, |total, c| total + c);
    Ok(DistIterationResult {
        sigma,
        pi,
        current,
        sse_bytes: comm.world_bytes,
        comm,
    })
}

/// The busy-time imbalance ratio (max/mean) above which the distributed
/// Born loop ([`DistSse`]) re-tiles between iterations
/// ([`maybe_rebalance`]).
pub const REBALANCE_THRESHOLD: f64 = 1.5;

/// The distributed SSE phase of `qt_core::scf::run_scf_with`: every Born
/// iteration's Σ≷/Π≷ come from one supervised CA exchange on a `tiling`
/// that persists across iterations — recovered deaths shrink it, and
/// [`maybe_rebalance`] re-tiles it at [`REBALANCE_THRESHOLD`] after each
/// exchange. Mixing, convergence, checkpoints, cancellation and warm
/// starts stay in the one SCF loop. A death the exchange does not recover
/// fails the iteration with [`NumericalError::RankLoss`].
pub struct DistSse {
    pub tiling: ElasticTiling,
    pub policy: ElasticPolicy,
    /// Original ids of the ranks that died, across all iterations, in
    /// detection order — recovered or not.
    pub deaths: Vec<usize>,
    /// Detection rounds (failed exchange attempts) across all iterations.
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

    /// One supervised exchange: [`ca_exchange`] until it succeeds. A failed
    /// attempt names the confirmed-dead ranks; an empty list (every
    /// accusation exonerated) retries on the unchanged tiling. A death is
    /// recovered when the work units lost in this exchange stay within
    /// [`ElasticPolicy::max_bad_fraction`]: only the dead rank's units
    /// migrate, and the retry recomputes them from the caller's GF
    /// tensors, bitwise. Otherwise the exchange ends at once in
    /// [`NumericalError::RankLoss`] naming the dead rank, and the tiling
    /// keeps it. Running out of survivors or of `max_retiles` ends it the
    /// same way, naming this exchange's last death (rank 0 when the bound
    /// ran out on exonerated accusations alone).
    pub(crate) fn exchange(
        &mut self,
        inputs: &SseDistContext<'_>,
    ) -> Result<(ElectronSelfEnergy, PhononSelfEnergy, CommStats), NumericalError> {
        let units = self.tiling.procs();
        let first_death = self.deaths.len();
        // Deduplicated: a unit that migrates and loses its new host again
        // counts once.
        let mut lost: BTreeSet<usize> = BTreeSet::new();
        let mut attempts = 0;
        loop {
            if self.tiling.world_size() == 0 || attempts > self.policy.max_retiles {
                let rank = self.deaths[first_death..].last().copied().unwrap_or(0);
                return Err(NumericalError::RankLoss { rank });
            }
            let suspects = match ca_exchange(inputs, &self.tiling, &self.policy) {
                Ok(done) => return Ok(done),
                Err(suspects) => suspects,
            };
            attempts += 1;
            self.retiles += 1;
            counters::add(Counter::ElasticRetileEvents, 1);
            let mut moved: u64 = 0;
            let mut refused = None;
            for dead in suspects {
                self.deaths.push(dead);
                counters::add(Counter::ElasticRankDeaths, 1);
                qt_telemetry::journal::emit(qt_telemetry::EventKind::RankDeath {
                    rank: dead as u64,
                });
                lost.extend(self.tiling.units_of(dead));
                if lost.len() as f64 / units as f64 > self.policy.max_bad_fraction {
                    refused = Some(dead);
                } else {
                    let n = self.tiling.remove_rank(dead).len() as u64;
                    moved += n;
                    counters::add(Counter::ElasticMigratedTiles, n);
                }
            }
            qt_telemetry::journal::emit(qt_telemetry::EventKind::Retile { moved_units: moved });
            if let Some(rank) = refused {
                return Err(NumericalError::RankLoss { rank });
            }
        }
    }
}

impl SsePhase for DistSse {
    fn run(
        &mut self,
        inputs: &SseDistContext<'_>,
    ) -> Result<(ElectronSelfEnergy, PhononSelfEnergy), NumericalError> {
        let (sigma, pi, comm) = self.exchange(inputs)?;
        if let Some(balance) = &comm.balance {
            maybe_rebalance(&mut self.tiling, balance, REBALANCE_THRESHOLD);
        }
        self.comm = comm;
        Ok((sigma, pi))
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
    use qt_core::health::CoverageReport;
    use qt_core::scf::{run_scf_with, ScfConfig, ScfOptions, Simulation};

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

    type Exchanged = (ElectronSelfEnergy, PhononSelfEnergy, CommStats);

    /// `body`'s supervised exchange of an iteration from zero
    /// self-energies, and the work units it migrated meanwhile (the
    /// `elastic.migrated_tiles` counter, bumped on the calling thread).
    fn exchanged(sim: &Simulation, body: &mut DistSse) -> (Result<Exchanged, NumericalError>, u64) {
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
        let before = counters::local(Counter::ElasticMigratedTiles);
        let out = body.exchange(&inputs);
        (out, counters::local(Counter::ElasticMigratedTiles) - before)
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
        // Every rank removed before the first attempt: the supervisor has
        // nobody to run the exchange on and refuses without trying.
        let sim = fixture();
        let mut tiling = ElasticTiling::new(&sim.p, 2, 2);
        for rank in 0..4 {
            tiling.remove_rank(rank);
        }
        let mut body = DistSse::new(tiling, ElasticPolicy::default());
        let (out, _) = exchanged(&sim, &mut body);
        assert!(matches!(out, Err(NumericalError::RankLoss { .. })));
        assert_eq!(body.retiles, 0, "no exchange was attempted");
    }

    #[test]
    fn killed_rank_recovery_keeps_its_lost_points_on_record() {
        let sim = fixture();
        let (te, ta) = world_shape();
        let procs = te * ta;
        let victim = procs - 1;
        // One rank's death loses exactly 1/procs of the work units; the
        // ceiling admits exactly that one loss.
        let policy = ElasticPolicy {
            max_bad_fraction: 1.0 / procs as f64,
            faults: Some(FaultPlan::default().with_kill_at(victim, 3)),
            ..Default::default()
        };
        let mut body = DistSse::new(ElasticTiling::new(&sim.p, te, ta), policy);
        let (out, migrated) = exchanged(&sim, &mut body);
        // The death stays on record even though it recovered.
        assert_eq!(body.deaths, vec![victim], "exactly the scheduled rank dies");
        if let Err(e) = out {
            panic!("one death out of {procs} must ride recovery: {e}");
        }
        assert!(
            migrated >= 1,
            "only the dead rank's tiles migrate, but they do migrate"
        );
    }

    #[test]
    fn killed_owner_of_every_unit_migrates_all_its_units() {
        // Every unit collapsed onto rank 0, killed on its first send, with
        // a ceiling that admits losing every unit.
        let sim = fixture();
        let (te, ta) = world_shape();
        let procs = te * ta;
        let tiling = ElasticTiling::weighted(&sim.p, te, ta, procs, &vec![0.0; procs]);
        let policy = ElasticPolicy {
            max_bad_fraction: 1.0,
            faults: Some(FaultPlan::default().with_kill_at(0, 1)),
            ..Default::default()
        };
        let mut body = DistSse::new(tiling, policy);
        let (out, migrated) = exchanged(&sim, &mut body);
        assert_eq!(
            body.deaths,
            vec![0],
            "the collapsed owner dies, nobody else"
        );
        assert!(out.is_ok(), "recovery must complete");
        assert_eq!(
            migrated, procs as u64,
            "all of the dead owner's units migrate to survivors"
        );
    }

    #[test]
    fn tiled_iteration_rebalance_keeps_results_bitwise_stable() {
        let p = params();
        let (dev, em) = (Device::skewed(&p, 1, 1), ElectronModel::for_params(&p));
        let sim = Simulation::from_parts(p, dev, em, PhononModel::default(), -1.2, 1.2).unwrap();
        let policy = ElasticPolicy::default();
        // Two units per rank, so a re-partition can shorten the makespan.
        let mut body = DistSse::new(ElasticTiling::uniform(&p, 2, 2, 2), policy);
        let (first, migrated) = exchanged(&sim, &mut body);
        let first = first.unwrap();
        assert!(body.deaths.is_empty());
        assert_eq!(migrated, 0);
        let bal = first.2.balance.as_ref().expect("balance measured");
        assert_eq!(bal.rank_busy_secs.len(), body.tiling.world_size());
        // Drive the re-tiling decision off a deterministic skew instead of
        // wall-clock noise: one rank 4x busier, its unit 8x costlier.
        let skew = BalanceStats {
            rank_busy_secs: vec![4.0, 1.0, 1.0, 1.0],
            unit_secs: vec![1.0, 8.0, 1.0, 1.0],
        };
        let events0 = counters::total(Counter::BalanceRebalanceEvents);
        assert!(maybe_rebalance(&mut body.tiling, &skew, 10.0).is_empty());
        let moved = maybe_rebalance(&mut body.tiling, &skew, 1.5);
        assert!(!moved.is_empty(), "4.0/1.75 imbalance must trigger a move");
        assert!(counters::total(Counter::BalanceRebalanceEvents) > events0);
        // The re-tiled iteration must reproduce the observables bit for bit.
        let second = exchanged(&sim, &mut body).0.unwrap();
        assert_eq!(first.0.lesser.as_slice(), second.0.lesser.as_slice());
        assert_eq!(first.0.greater.as_slice(), second.0.greater.as_slice());
        assert_eq!(first.1.lesser.as_slice(), second.1.lesser.as_slice());
        assert_eq!(first.1.greater.as_slice(), second.1.greater.as_slice());
        assert!(second.2.balance.is_some());
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
