//! Analytic flop models (§4.3, Table 3).
//!
//! The SSE formulas are the paper's own, exact:
//!
//! * OMEN:  `64·NA·NB·N3D·Nkz·Nqz·NE·Nω·Norb³`
//! * DaCe:  `32·NA·NB·N3D·Nkz·Nqz·NE·Nω·Norb³ + 32·NA·NB·N3D·Nkz·NE·Norb³`
//!
//! The GF-phase kernels (contour integral, RGF) mix dense and sparse work;
//! the paper measures them with `nvprof`. Our substitute: a block-cubed
//! model `8·Nkz·NE·bnum·κ·(NA/bnum·Norb)³` with κ calibrated once against
//! Table 3 (documented empirical constants, like the paper's measured
//! values).

use crate::device::Device;
use crate::params::{SimParams, N3D};
use std::ops::Range;

/// Calibrated RGF constant in `RGF_KAPPA·Nkz·NE·bnum·bs³` (fit to Table 3's
/// 52.95 Pflop at `Nkz = 3` for the 4,864-atom structure with `bnum = 152`).
pub const RGF_KAPPA: f64 = 2904.9;

/// Calibrated contour-integral constant in `CONTOUR_KAPPA·Nkz·NE·bs³`
/// (8.45 Pflop at the same calibration point).
pub const CONTOUR_KAPPA: f64 = 70459.0;

/// Table 3, "SSE (OMEN)": both small matrix products performed for every
/// point of the full 8-D iteration space.
pub fn sse_omen_flops(p: &SimParams) -> f64 {
    64.0 * (p.na * p.nb * N3D) as f64
        * (p.nkz * p.nqz) as f64
        * (p.ne * p.nw) as f64
        * (p.norb * p.norb * p.norb) as f64
}

/// Table 3, "SSE (DaCe)": redundancy removal makes the `∇H·G` stage
/// independent of `(Nqz, Nω)`.
pub fn sse_dace_flops(p: &SimParams) -> f64 {
    let norb3 = (p.norb * p.norb * p.norb) as f64;
    32.0 * (p.na * p.nb * N3D) as f64 * (p.nkz * p.nqz) as f64 * (p.ne * p.nw) as f64 * norb3
        + 32.0 * (p.na * p.nb * N3D) as f64 * p.nkz as f64 * p.ne as f64 * norb3
}

/// Number of `(a, slot)` neighbor pairs actually present in the device —
/// the exact count the SSE kernels iterate over. The Table 3 formulas use
/// the dense bound `NA·NB`; edge atoms are missing neighbors, so
/// `pair_count ≤ NA·NB` with equality only on a periodic device.
pub fn pair_count(dev: &Device, p: &SimParams) -> u64 {
    let mut n = 0u64;
    for a in 0..p.na {
        for slot in 0..p.nb {
            if dev.neighbor(a, slot).is_some() {
                n += 1;
            }
        }
    }
    n
}

/// Number of valid `(E, ±ω)` sideband pairs on the finite energy grid:
/// `Σ_{w=1..Nω} (NE−w)` for each direction, i.e. `Nω·(2NE − Nω − 1)`.
/// The Table 3 formulas use the unclamped bound `2·NE·Nω`.
pub fn sideband_count(p: &SimParams) -> u64 {
    (p.nw * (2 * p.ne - p.nw - 1)) as u64
}

/// *Exact* flop count of [`crate::sse::omen::sigma`] on a concrete device:
/// per lesser/greater (2), per `(qz, kz)` point, per present neighbor
/// pair, per valid sideband, per direction (3): two `Norb³` GEMMs at
/// 8 flop per complex FMA — `96·Nkz·Nqz·P_ab·S·Norb³`. Reduces to the
/// Table 3 form `64·NA·NB·N3D·Nkz·Nqz·NE·Nω·Norb³` when `P_ab = NA·NB`
/// and `S = 2·NE·Nω` (no grid clamping).
pub fn sse_omen_flops_exact(p: &SimParams, dev: &Device) -> u64 {
    let no3 = (p.norb * p.norb * p.norb) as u64;
    96 * (p.nkz * p.nqz) as u64 * pair_count(dev, p) * sideband_count(p) * no3
}

/// *Exact* flop count of [`crate::sse::dace::sigma`] on a concrete device:
/// the redundancy-removed `∇H·G` stage performs one wide
/// `(Nkz·NE·Norb) × Norb × Norb` GEMM per pair, direction and
/// lesser/greater (`48·P_ab·Nkz·NE·Norb³` — *half* the paper's second
/// term, because the shared `∇H·G` batch serves both sidebands), plus the
/// windowed stage (`48·P_ab·Nkz·Nqz·S·Norb³`).
pub fn sse_dace_flops_exact(p: &SimParams, dev: &Device) -> u64 {
    let no3 = (p.norb * p.norb * p.norb) as u64;
    let pab = pair_count(dev, p);
    48 * pab * p.nkz as u64 * no3 * (p.ne as u64 + p.nqz as u64 * sideband_count(p))
}

/// Neighbor pairs whose source atom lies in `a_range` — the restriction
/// of [`pair_count`] to one atom tile. Tile counts sum exactly to the
/// global count over any partition of the atom axis.
pub fn pair_count_tile(dev: &Device, p: &SimParams, a_range: &Range<usize>) -> u64 {
    let mut n = 0u64;
    for a in a_range.clone() {
        for slot in 0..p.nb {
            if dev.neighbor(a, slot).is_some() {
                n += 1;
            }
        }
    }
    n
}

/// Valid `(E, ±ω)` sideband pairs whose energy lies in `e_range`: for each
/// `E` the down-sidebands `min(E, Nω)` and up-sidebands `min(NE−1−E, Nω)`
/// exist on the grid. Sums to [`sideband_count`] over the full axis.
pub fn sideband_count_tile(p: &SimParams, e_range: &Range<usize>) -> u64 {
    e_range
        .clone()
        .map(|e| (e.min(p.nw) + (p.ne - 1 - e).min(p.nw)) as u64)
        .sum()
}

/// *Exact* flop count of the DaCe SSE work restricted to one
/// `(energy, atom)` tile — the per-unit predicted cost the adaptive
/// partitioner feeds on. Same structure as [`sse_dace_flops_exact`] with
/// both axes tile-restricted; summing over a full tile grid reproduces
/// the global count exactly, so predicted per-rank shares partition the
/// true total.
///
/// A tile's [`crate::sse::dace::sigma_atom`] calls execute exactly this
/// plus a halo term, `48·P_ab·Nkz·Norb³·(|e_halo| − |e_range|)`: the
/// redundancy-removed `∇H·G` batch spans the tile's energies *and* their
/// ±Nω sideband halo, which neighbouring energy tiles compute again. The
/// term is left out so that the tile counts keep partitioning the total.
pub fn sse_dace_flops_tile(
    p: &SimParams,
    dev: &Device,
    e_range: &Range<usize>,
    a_range: &Range<usize>,
) -> u64 {
    let no3 = (p.norb * p.norb * p.norb) as u64;
    let pab = pair_count_tile(dev, p, a_range);
    48 * pab
        * p.nkz as u64
        * no3
        * (e_range.len() as u64 + p.nqz as u64 * sideband_count_tile(p, e_range))
}

/// RGF flop model for one chunk of `n_e` energies (the GF-phase share of
/// a work unit): `κ·Nkz·n_e·bnum·bs³`.
pub fn rgf_flops_chunk(p: &SimParams, n_e: usize) -> f64 {
    let bs = p.e_block_size() as f64;
    RGF_KAPPA * (p.nkz * n_e * p.bnum) as f64 * bs * bs * bs
}

/// RGF flop model: `κ·Nkz·NE·bnum·bs³` with `bs = NA/bnum·Norb`.
pub fn rgf_flops(p: &SimParams) -> f64 {
    let bs = p.e_block_size() as f64;
    RGF_KAPPA * (p.nkz * p.ne * p.bnum) as f64 * bs * bs * bs
}

/// Contour-integral (boundary conditions) flop model.
pub fn contour_flops(p: &SimParams) -> f64 {
    let bs = p.e_block_size() as f64;
    CONTOUR_KAPPA * (p.nkz * p.ne) as f64 * bs * bs * bs
}

#[cfg(test)]
mod tests {
    use super::*;

    const PFLOP: f64 = 1e15;

    /// Table 3 row-by-row: SSE numbers are exact, GF-phase numbers are the
    /// calibrated fits.
    #[test]
    fn table3_sse_omen_exact() {
        // Paper: NA=4,864, NB=34, NE=706, Nω=70, Norb=12.
        for (nkz, expect) in [
            (3, 24.41),
            (5, 67.80),
            (7, 132.89),
            (9, 219.67),
            (11, 328.15),
        ] {
            let p = SimParams::paper_si_4864(nkz);
            let got = sse_omen_flops(&p) / PFLOP;
            assert!(
                (got - expect).abs() / expect < 0.005,
                "Nkz={nkz}: got {got:.2} Pflop, paper {expect}"
            );
        }
    }

    #[test]
    fn table3_sse_dace_matches_within_formula_tolerance() {
        // The paper's printed values deviate <2% from its own closed form
        // (extra bookkeeping in the measured kernel); we reproduce the
        // closed form.
        for (nkz, expect) in [
            (3, 12.38),
            (5, 34.19),
            (7, 66.85),
            (9, 110.36),
            (11, 164.71),
        ] {
            let p = SimParams::paper_si_4864(nkz);
            let got = sse_dace_flops(&p) / PFLOP;
            assert!(
                (got - expect).abs() / expect < 0.02,
                "Nkz={nkz}: got {got:.2} Pflop, paper {expect}"
            );
        }
    }

    #[test]
    fn sse_reduction_approaches_two() {
        let p = SimParams::paper_si_4864(11);
        let ratio = sse_omen_flops(&p) / sse_dace_flops(&p);
        assert!(ratio > 1.9 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn rgf_scales_linearly_in_nkz() {
        let f3 = rgf_flops(&SimParams::paper_si_4864(3));
        let f9 = rgf_flops(&SimParams::paper_si_4864(9));
        assert!((f9 / f3 - 3.0).abs() < 1e-12);
        // Calibration point: 52.95 Pflop at Nkz=3.
        assert!((f3 / PFLOP - 52.95).abs() / 52.95 < 0.02, "{}", f3 / PFLOP);
    }

    #[test]
    fn contour_calibration_point() {
        let f3 = contour_flops(&SimParams::paper_si_4864(3));
        assert!((f3 / PFLOP - 8.45).abs() / 8.45 < 0.02, "{}", f3 / PFLOP);
    }

    #[test]
    fn tile_flops_partition_the_exact_total() {
        // Any tiling of the (E, A) plane must sum to the global exact
        // count — the invariant that makes predicted per-rank shares
        // meaningful.
        let p = SimParams::test_small();
        for dev in [Device::new(&p), Device::skewed(&p, 1, 1)] {
            let total = sse_dace_flops_exact(&p, &dev);
            for (te, ta) in [(1, 1), (2, 2), (3, 4), (12, 16)] {
                let e_parts: Vec<Range<usize>> = split(p.ne, te);
                let a_parts: Vec<Range<usize>> = split(p.na, ta);
                let mut sum = 0u64;
                for er in &e_parts {
                    for ar in &a_parts {
                        sum += sse_dace_flops_tile(&p, &dev, er, ar);
                    }
                }
                assert_eq!(sum, total, "tiling {te}x{ta}");
            }
        }
        fn split(total: usize, parts: usize) -> Vec<Range<usize>> {
            (0..parts)
                .map(|i| {
                    let base = total / parts;
                    let extra = total % parts;
                    let start = i * base + i.min(extra);
                    start..start + base + usize::from(i < extra)
                })
                .collect()
        }
    }

    #[test]
    fn skewed_device_has_skewed_tile_costs() {
        let p = SimParams::test_small();
        let dev = Device::skewed(&p, 1, 1);
        let apb = p.na / p.bnum;
        let heavy = sse_dace_flops_tile(&p, &dev, &(0..p.ne), &(0..apb));
        let light = sse_dace_flops_tile(&p, &dev, &(0..p.ne), &(p.na - apb..p.na));
        assert!(
            heavy as f64 > 2.0 * light as f64,
            "heavy {heavy} vs light {light}"
        );
    }

    #[test]
    fn rgf_chunks_partition_the_total() {
        let p = SimParams::test_small();
        let sum: f64 = [5, 4, 3].iter().map(|&n| rgf_flops_chunk(&p, n)).sum();
        assert!((sum - rgf_flops(&p)).abs() < 1e-6 * rgf_flops(&p));
    }

    #[test]
    fn exact_models_approach_table3_at_paper_scale() {
        // At Table 3 scale the grid clamping is a small correction:
        // S/(2·NE·Nω) = 1 − (Nω+1)/(2·NE) ≈ 0.95 for NE=706, Nω=70, and
        // P_ab < NA·NB only through edge atoms.
        let p = SimParams::paper_si_4864(3);
        let dev = Device::new(&p);
        let omen_ratio = sse_omen_flops_exact(&p, &dev) as f64 / sse_omen_flops(&p);
        assert!(
            omen_ratio > 0.85 && omen_ratio < 1.0,
            "omen exact/asymptotic {omen_ratio}"
        );
        // The DaCe stage-1 term is half the paper's second term (shared
        // ∇H·G batch), so the total sits a little below the Table 3 value.
        let dace_ratio = sse_dace_flops_exact(&p, &dev) as f64 / sse_dace_flops(&p);
        assert!(
            dace_ratio > 0.8 && dace_ratio < 1.0,
            "dace exact/asymptotic {dace_ratio}"
        );
    }
}
