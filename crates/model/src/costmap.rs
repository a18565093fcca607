//! Per-work-unit cost model for the adaptive tiling (§4.1 extended).
//!
//! The tile search of §4.1 predicts *aggregate* runtime from machine
//! parameters; load balancing needs the cost of each individual `(energy,
//! atom)` tile. [`CostMap`] combines three sources, in increasing order of
//! authority:
//!
//! 1. **predicted flops** — the exact tile-restricted SSE count
//!    ([`qt_core::flops::sse_dace_flops_tile`]: what the tile's
//!    `sse::dace` call executes, less the `∇H·G` products it repeats on
//!    its halo energies) plus the unit's RGF energy
//!    chunk ([`qt_core::flops::rgf_flops_chunk`]); sums over all units
//!    reproduce the global exact models, so predicted shares partition the
//!    true total;
//! 2. **quarantine masks** — grid points excluded by the health layer
//!    ([`qt_core::health::CoverageReport`]) do no SSE work, so a unit's
//!    prediction is scaled by its live-point fraction;
//! 3. **measured seconds** — per-unit wall times reported back by the
//!    distributed runtime; once a unit has been measured, its weight is
//!    the measurement, and the measured units also fit a global flop rate
//!    that converts the remaining predictions into seconds.
//!
//! [`CostMap::weights`] therefore always returns *commensurable* per-unit
//! costs (seconds when any measurement exists, flops otherwise — the
//! weighted partitioner only cares about ratios).

use crate::machine::Machine;
use qt_core::device::Device;
use qt_core::flops::{rgf_flops_chunk, sse_dace_flops_tile};
use qt_core::health::CoverageReport;
use qt_core::params::SimParams;
use qt_dist::decomp::{BlockPartition, DaceDecomp};

/// Per-unit cost estimates for one `TE × TA` unit grid.
#[derive(Clone, Debug)]
pub struct CostMap {
    /// The unit grid the costs refer to (unit `u` = tile `(u/TA, u%TA)`).
    pub dec: DaceDecomp,
    /// Predicted flops per unit (SSE tile + RGF chunk), quarantine-scaled.
    pub predicted_flops: Vec<f64>,
    /// Fraction of each unit's electron grid points still live (1.0 until
    /// [`CostMap::apply_quarantine`] reports exclusions).
    pub live_fraction: Vec<f64>,
    /// Latest measured wall seconds per unit, `None` until observed.
    pub measured_secs: Vec<Option<f64>>,
    /// Seconds per flop seeded from a machine model, refined by
    /// observations. `None` until either source provides one.
    secs_per_flop: Option<f64>,
}

impl CostMap {
    /// Predict per-unit costs for a `te × ta` tiling of the device. The
    /// prediction covers the SSE tile work — the phase the weighted
    /// partitioner schedules; the GF phase keeps its own uniform energy
    /// split (see [`CostMap::predict_with_gf`] for the combined model).
    pub fn predict(p: &SimParams, dev: &Device, te: usize, ta: usize) -> Self {
        let dec = DaceDecomp::new(p, te, ta);
        let units = dec.procs();
        let mut predicted = Vec::with_capacity(units);
        for u in 0..units {
            let (i, j) = dec.coords(u);
            let e_range = dec.energy.range(i);
            let a_range = dec.atoms.range(j);
            predicted.push(sse_dace_flops_tile(p, dev, &e_range, &a_range) as f64);
        }
        CostMap {
            dec,
            predicted_flops: predicted,
            live_fraction: vec![1.0; units],
            measured_secs: vec![None; units],
            secs_per_flop: None,
        }
    }

    /// Like [`CostMap::predict`] but each unit also carries its GF-phase
    /// RGF energy chunk (`BlockPartition(NE, units)`), for whole-iteration
    /// cost accounting (e.g. the `reproduce profile` table).
    pub fn predict_with_gf(p: &SimParams, dev: &Device, te: usize, ta: usize) -> Self {
        Self::predict_with_gf_scaled(p, dev, te, ta, 1.0)
    }

    /// [`CostMap::predict_with_gf`] with a kernel-dependent scale on the
    /// RGF chunk: `rgf_scale` is the fraction of the all-dense RGF flops
    /// the configured multiply strategy actually performs (see
    /// [`rgf_flop_scale`]). The SSE share is untouched — kernel selection
    /// only affects the coupling products inside RGF.
    pub fn predict_with_gf_scaled(
        p: &SimParams,
        dev: &Device,
        te: usize,
        ta: usize,
        rgf_scale: f64,
    ) -> Self {
        let mut cm = Self::predict(p, dev, te, ta);
        let units = cm.predicted_flops.len();
        let gf = BlockPartition::new(p.ne, units);
        for (u, f) in cm.predicted_flops.iter_mut().enumerate() {
            *f += rgf_flops_chunk(p, gf.len(u)) * rgf_scale;
        }
        cm
    }

    /// Seed the flop→seconds conversion from a machine model (one GPU's
    /// effective SSE rate). Observations override this as they arrive.
    pub fn seed_rate_from(&mut self, m: &Machine) {
        let rate = m.gpu_peak_flops * m.eff_sse;
        if rate > 0.0 {
            self.secs_per_flop = Some(1.0 / rate);
        }
    }

    /// Scale each unit's prediction by the fraction of its electron grid
    /// points the health layer left live. `report` covers the flattened
    /// `Nkz × NE` electron grid (`grid_index = kz·NE + e`); a quarantined
    /// point removes that energy's share of the unit's SSE work for one
    /// momentum point.
    pub fn apply_quarantine(&mut self, p: &SimParams, report: &CoverageReport) {
        if report.quarantined.is_empty() {
            return;
        }
        let te = self.dec.te;
        // Quarantined energies per energy-tile row, over all kz.
        let mut dead_by_tile = vec![0usize; te];
        for q in &report.quarantined {
            let e = q.grid_index % p.ne;
            dead_by_tile[self.dec.energy.owner(e)] += 1;
        }
        for u in 0..self.predicted_flops.len() {
            let (i, _) = self.dec.coords(u);
            let points = self.dec.energy.len(i) * p.nkz;
            if points == 0 {
                continue;
            }
            let dead = dead_by_tile[i].min(points);
            let live = (points - dead) as f64 / points as f64;
            // Rescale relative to the previous mask so repeated
            // applications don't compound.
            let prev = self.live_fraction[u];
            if prev > 0.0 {
                self.predicted_flops[u] *= live / prev;
            }
            self.live_fraction[u] = live;
        }
    }

    /// Record a measured wall time for one unit and refresh the fitted
    /// flop rate from all measured units.
    pub fn observe(&mut self, unit: usize, secs: f64) {
        if secs.is_finite() && secs >= 0.0 {
            self.measured_secs[unit] = Some(secs);
            self.refit();
        }
    }

    fn refit(&mut self) {
        let mut flops = 0.0;
        let mut secs = 0.0;
        for (u, m) in self.measured_secs.iter().enumerate() {
            if let Some(s) = m {
                flops += self.predicted_flops[u];
                secs += s;
            }
        }
        if flops > 0.0 && secs > 0.0 {
            self.secs_per_flop = Some(secs / flops);
        }
    }

    /// Commensurable per-unit weights for the partitioner: measured
    /// seconds where available, predictions converted through the fitted
    /// (or seeded) rate otherwise. With no rate at all the raw flop
    /// counts are returned — only ratios matter downstream.
    pub fn weights(&self) -> Vec<f64> {
        (0..self.predicted_flops.len())
            .map(|u| match (self.measured_secs[u], self.secs_per_flop) {
                (Some(s), _) => s,
                (None, Some(spf)) => self.predicted_flops[u] * spf,
                (None, None) => self.predicted_flops[u],
            })
            .collect()
    }
}

/// Fraction of RGF's per-block flops spent in the off-diagonal coupling
/// products — the ops the Table 6 kernel selector can route to CSR. Per
/// interior block the solver performs 11 coupling GEMM-equivalents
/// (4 forward, 7 backward), ~9 dense-only GEMM-equivalents on the
/// Green's-function blocks (the two `·gᴿ†` updates of `G<` are fused
/// into one), and one LU inversion (~⅓ of a GEMM at the same order), so
/// the routable share is `11 / (20 + 1/3)`.
pub const RGF_COUPLING_FLOP_FRACTION: f64 = 11.0 / (20.0 + 1.0 / 3.0);

/// Fraction of the all-dense RGF flops performed when the coupling
/// products run sparse at the given structural `density`: the dense-only
/// share stays, the routable share shrinks linearly with the nonzeros.
/// `density = 1` (or anything above the crossover, where the selector
/// keeps GEMM) gives 1.0.
pub fn rgf_flop_scale(density: f64) -> f64 {
    let d = density.clamp(0.0, 1.0);
    1.0 - RGF_COUPLING_FLOP_FRACTION * (1.0 - d)
}

/// Busy-time imbalance ratio `max / mean` of per-rank loads — the metric
/// the adaptive layer reports and gates on. 1.0 is perfect balance; empty
/// or all-zero loads report 1.0 (nothing to balance).
pub fn imbalance_ratio(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let max = loads.iter().cloned().fold(0.0, f64::max);
    let mean = sum / loads.len() as f64;
    if mean <= 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_core::health::{NumericalError, QuarantinedPoint};

    fn small() -> (SimParams, Device) {
        let p = SimParams::test_small();
        let dev = Device::new(&p);
        (p, dev)
    }

    #[test]
    fn predictions_partition_the_exact_totals() {
        let (p, dev) = small();
        let cm = CostMap::predict(&p, &dev, 3, 4);
        let sse_total = qt_core::flops::sse_dace_flops_exact(&p, &dev) as f64;
        let sum: f64 = cm.predicted_flops.iter().sum();
        assert!(
            (sum - sse_total).abs() < 1e-6 * sse_total,
            "sum {sum} vs {sse_total}"
        );
        let cm_gf = CostMap::predict_with_gf(&p, &dev, 3, 4);
        let expect = sse_total + qt_core::flops::rgf_flops(&p);
        let sum_gf: f64 = cm_gf.predicted_flops.iter().sum();
        assert!(
            (sum_gf - expect).abs() < 1e-6 * expect,
            "sum {sum_gf} vs {expect}"
        );
    }

    #[test]
    fn gf_scaled_prediction_shrinks_only_the_rgf_share() {
        let (p, dev) = small();
        let sse_total = qt_core::flops::sse_dace_flops_exact(&p, &dev) as f64;
        let rgf_total = qt_core::flops::rgf_flops(&p);
        let scale = rgf_flop_scale(0.1);
        assert!(scale > 0.0 && scale < 1.0);
        let cm = CostMap::predict_with_gf_scaled(&p, &dev, 3, 4, scale);
        let sum: f64 = cm.predicted_flops.iter().sum();
        let expect = sse_total + scale * rgf_total;
        assert!(
            (sum - expect).abs() < 1e-6 * expect,
            "sum {sum} vs {expect}"
        );
        // scale = 1 reproduces predict_with_gf exactly.
        let full: f64 = CostMap::predict_with_gf(&p, &dev, 3, 4)
            .predicted_flops
            .iter()
            .sum();
        assert!((full - (sse_total + rgf_total)).abs() < 1e-6 * full);
        // Density-1 scaling is the identity; density-0 keeps the
        // dense-only share.
        assert_eq!(rgf_flop_scale(1.0), 1.0);
        assert!((rgf_flop_scale(0.0) - (1.0 - RGF_COUPLING_FLOP_FRACTION)).abs() < 1e-15);
    }

    #[test]
    fn skew_shows_up_in_predictions() {
        let p = SimParams::test_small();
        let dev = Device::skewed(&p, 1, 1);
        let cm = CostMap::predict(&p, &dev, 1, 4);
        // Atom tile 0 covers the heavy slab; the last tile is all light.
        assert!(
            cm.predicted_flops[0] > 1.5 * cm.predicted_flops[3],
            "{:?}",
            cm.predicted_flops
        );
    }

    #[test]
    fn quarantine_scales_only_the_hit_tiles() {
        let (p, dev) = small();
        let mut cm = CostMap::predict(&p, &dev, 3, 4);
        let before = cm.predicted_flops.clone();
        // Quarantine every energy of tile row 0 at kz = 0.
        let quarantined = cm
            .dec
            .energy
            .range(0)
            .map(|e| QuarantinedPoint {
                grid_index: e, // kz = 0
                error: NumericalError::singular("rgf", e),
            })
            .collect();
        let report = CoverageReport {
            total_points: p.nkz * p.ne,
            quarantined,
        };
        cm.apply_quarantine(&p, &report);
        for (u, &b) in before.iter().enumerate() {
            let (i, _) = cm.dec.coords(u);
            if i == 0 {
                assert!(cm.predicted_flops[u] < b);
                assert!(cm.live_fraction[u] < 1.0);
            } else {
                assert_eq!(cm.predicted_flops[u], b);
            }
        }
        // Idempotent: applying the same report again must not compound.
        let once = cm.predicted_flops.clone();
        cm.apply_quarantine(&p, &report);
        for (u, &o) in once.iter().enumerate() {
            assert!((cm.predicted_flops[u] - o).abs() <= 1e-9 * o.max(1.0));
        }
    }

    #[test]
    fn measurements_override_predictions() {
        let (p, dev) = small();
        let mut cm = CostMap::predict(&p, &dev, 2, 2);
        let w0 = cm.weights();
        assert_eq!(w0, cm.predicted_flops, "no rate: raw flops");
        cm.observe(0, 2.0);
        let w1 = cm.weights();
        assert_eq!(w1[0], 2.0);
        // Unmeasured units now go through the fitted rate: seconds scale.
        let spf = 2.0 / cm.predicted_flops[0];
        assert!((w1[1] - cm.predicted_flops[1] * spf).abs() < 1e-12);
    }

    #[test]
    fn machine_seed_gives_seconds_before_any_measurement() {
        let (p, dev) = small();
        let mut cm = CostMap::predict(&p, &dev, 2, 2);
        cm.seed_rate_from(&crate::machine::PIZ_DAINT);
        let w = cm.weights();
        assert!(w.iter().all(|&x| x > 0.0 && x < 1.0), "{w:?}");
    }

    #[test]
    fn imbalance_ratio_basics() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0.0, 0.0]), 1.0);
        assert_eq!(imbalance_ratio(&[1.0, 1.0, 1.0]), 1.0);
        let r = imbalance_ratio(&[3.0, 1.0]);
        assert!((r - 1.5).abs() < 1e-12);
    }
}
