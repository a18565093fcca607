//! Scattering self-energies (SSE): Eqs. (3)–(5), the computational
//! bottleneck of the simulation (§2: up to 95% of total time before the
//! paper's transformations).
//!
//! Three implementations of the Σ≷ kernel coexist, all computing *exactly*
//! the same contraction (unit tests enforce bit-level agreement up to
//! floating-point reassociation):
//!
//! * [`mod@reference`] — the untransformed 8-D loop nest of Fig. 5/8, with a
//!   fresh allocation per small operation (the "Python" row of Table 7);
//! * [`omen`] — the production-OMEN structure: `(qz, ω)` rounds with
//!   preallocated work buffers but still one small GEMM per point;
//! * [`dace`] — the transformed kernel of Fig. 12: redundancy removal,
//!   `[a, kz, E]` data layout, and wide batched GEMMs over `(kz, E)` and
//!   the `ω` window; written over a view of the grid, so the distributed
//!   tiles of `qt-dist` run this same code.
//!
//! The Π≷ kernel (Eqs. 4–5) has reference and transformed variants as well.

pub mod dace;
pub mod omen;
pub mod reference;

use crate::device::Device;
use crate::gf::{ElectronSelfEnergy, PhononGf, PhononSelfEnergy};
use crate::grids::Grids;
use crate::params::{SimParams, N3D};
use qt_linalg::{par, Complex64, Tensor};

/// Which implementation of the SSE kernels to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SseVariant {
    /// Untransformed reference (Fig. 8).
    Reference,
    /// OMEN-style production loop structure.
    Omen,
    /// Data-centric transformed kernel (Fig. 12).
    Dace,
}

/// Inputs shared by all SSE kernels.
pub struct SseInputs<'a> {
    pub dev: &'a Device,
    pub p: &'a SimParams,
    pub grids: &'a Grids,
    /// Hamiltonian derivatives `∇H[a, slot, i, :, :]`.
    pub dh: &'a Tensor,
    /// Electron Green's functions `[Nkz, NE, NA, Norb, Norb]`.
    pub g_lesser: &'a Tensor,
    pub g_greater: &'a Tensor,
    /// Preprocessed phonon combination `D̃≷[qz, ω, a, slot, i, j]`
    /// (see [`preprocess_d`]).
    pub d_lesser_pre: &'a Tensor,
    pub d_greater_pre: &'a Tensor,
}

/// Energy-integration prefactor of the Σ kernel (`∫dω/2π` discretized, with
/// the momentum average over `Nqz`).
pub fn sigma_scale(p: &SimParams, grids: &Grids) -> f64 {
    grids.de / (2.0 * std::f64::consts::PI * p.nqz as f64)
}

/// Energy-integration prefactor of the Π kernel.
pub fn pi_scale(p: &SimParams, grids: &Grids) -> f64 {
    grids.de / (2.0 * std::f64::consts::PI * p.nkz as f64)
}

/// Build the phonon tensor combination entering Eq. (3):
/// `D̃_ab^{ij} = D_ba^{ij} − D_bb^{ij} − D_aa^{ij} + D_ab^{ij}`,
/// for every neighbor slot. Pairs whose reverse slot is missing use the
/// anti-Hermitian image `D_ba = −(D_ab)†`.
pub fn preprocess_d(dev: &Device, p: &SimParams, ph: &PhononGf) -> (Tensor, Tensor) {
    let _span = qt_telemetry::Span::enter_global("sse/preprocess_d");
    let shape = [p.nqz, p.nw, p.na, p.nb, N3D, N3D];
    let mut out_l = Tensor::zeros(&shape);
    let mut out_g = Tensor::zeros(&shape);
    for (src, dst) in [(&ph.d_lesser, &mut out_l), (&ph.d_greater, &mut out_g)] {
        for q in 0..p.nqz {
            for w in 0..p.nw {
                for a in 0..p.na {
                    for slot in 0..p.nb {
                        let Some(b) = dev.neighbor(a, slot) else {
                            continue;
                        };
                        let d_ab = src.inner(&[q, w, a, slot]);
                        let d_aa = src.inner(&[q, w, a, p.nb]);
                        let d_bb = src.inner(&[q, w, b, p.nb]);
                        let back = (0..p.nb).find(|&s| dev.neighbor(b, s) == Some(a));
                        let mut d_ba = [Complex64::ZERO; N3D * N3D];
                        match back {
                            Some(s) => d_ba.copy_from_slice(src.inner(&[q, w, b, s])),
                            None => {
                                // Anti-Hermitian image of the pair block:
                                // −(d_ab)†, built without heap temporaries.
                                for i in 0..N3D {
                                    for j in 0..N3D {
                                        d_ba[i * N3D + j] = -d_ab[j * N3D + i].conj();
                                    }
                                }
                            }
                        };
                        let dst_slice = dst.inner_mut(&[q, w, a, slot]);
                        for idx in 0..N3D * N3D {
                            dst_slice[idx] = d_ba[idx] - d_bb[idx] - d_aa[idx] + d_ab[idx];
                        }
                    }
                }
            }
        }
    }
    (out_l, out_g)
}

/// Enforce the dissipative structure of the electron self-energies:
/// exact lesser/greater functions satisfy `−iΣ< ⪰ 0` and `iΣ> ⪰ 0`
/// (which makes `Γ = i(Σᴿ − Σᴬ) = i(Σ< − Σ>) ⪰ 0` under the paper's
/// `Σᴿ ≈ (Σ> − Σ<)/2`). The truncated kernel (diagonal blocks only,
/// finite grids) can leak small negative eigenvalues that act as *gain*
/// and destabilize the Born iteration; each atom block is therefore
/// projected onto the PSD cone — the standard positivity enforcement of
/// self-consistent Born solvers.
pub fn stabilize_sigma(sigma: &mut ElectronSelfEnergy, p: &SimParams) {
    use qt_linalg::psd_project_scaled_in_place;
    let nn = p.norb * p.norb;
    // (tensor, factor ζ): block = ζ · PSD(ζ̄·block) with ζ = i for lesser
    // (−iΣ< PSD) and ζ = −i for greater (iΣ> PSD). The projection runs in
    // place on each atom block with pooled temporaries, so the stabilizer
    // stays off the allocator in steady state. Blocks are independent;
    // one task per (kz, E) row of `na` of them.
    for (t, zeta) in [
        (&mut sigma.lesser, Complex64::I),
        (&mut sigma.greater, -Complex64::I),
    ] {
        par::for_each_chunk_mut(t.as_mut_slice(), p.na * nn, |_, row| {
            for block in row.chunks_mut(nn) {
                psd_project_scaled_in_place(p.norb, zeta, block);
            }
        });
    }
}

/// Same positivity enforcement for the phonon self-energies
/// (`iΠ< ⪰ 0`, `iΠ> ⪰ 0` with the boson sign convention of
/// [`crate::boundary::phonon_lesser_greater`]). Applied to the diagonal
/// slots, the ones injected into the phonon RGF.
pub fn stabilize_pi(pi: &mut PhononSelfEnergy, p: &SimParams) {
    use qt_linalg::psd_project_scaled_in_place;
    let nn = N3D * N3D;
    let atom = (p.nb + 1) * nn;
    for t in [&mut pi.lesser, &mut pi.greater] {
        // One task per (qz, ω) row; the diagonal slot is each atom's last.
        par::for_each_chunk_mut(t.as_mut_slice(), p.na * atom, |_, row| {
            for slots in row.chunks_mut(atom) {
                psd_project_scaled_in_place(N3D, Complex64::I, &mut slots[p.nb * nn..]);
            }
        });
    }
}

/// Compute Σ≷ with the selected variant.
pub fn sigma(inputs: &SseInputs<'_>, variant: SseVariant) -> ElectronSelfEnergy {
    let _span = qt_telemetry::Span::enter_global(match variant {
        SseVariant::Reference => "sse/sigma/reference",
        SseVariant::Omen => "sse/sigma/omen",
        SseVariant::Dace => "sse/sigma/dace",
    });
    match variant {
        SseVariant::Reference => reference::sigma(inputs),
        SseVariant::Omen => omen::sigma(inputs),
        SseVariant::Dace => dace::sigma(inputs),
    }
}

/// Compute Π≷ with the selected variant (`Omen` aliases `Reference`; the
/// paper's production code restructures only its communication, which lives
/// in `qt-dist`).
pub fn pi(inputs: &SseInputs<'_>, variant: SseVariant) -> PhononSelfEnergy {
    let _span = qt_telemetry::Span::enter_global(match variant {
        SseVariant::Reference | SseVariant::Omen => "sse/pi/reference",
        SseVariant::Dace => "sse/pi/dace",
    });
    match variant {
        SseVariant::Reference | SseVariant::Omen => reference::pi(inputs),
        SseVariant::Dace => dace::pi(inputs),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::gf::{self, GfConfig};
    use crate::hamiltonian::{ElectronModel, PhononModel};

    pub struct Fixture {
        pub p: SimParams,
        pub dev: Device,
        pub grids: Grids,
        pub dh: Tensor,
        pub g_lesser: Tensor,
        pub g_greater: Tensor,
        pub d_lesser_pre: Tensor,
        pub d_greater_pre: Tensor,
    }

    impl Fixture {
        pub fn inputs(&self) -> SseInputs<'_> {
            SseInputs {
                dev: &self.dev,
                p: &self.p,
                grids: &self.grids,
                dh: &self.dh,
                g_lesser: &self.g_lesser,
                g_greater: &self.g_greater,
                d_lesser_pre: &self.d_lesser_pre,
                d_greater_pre: &self.d_greater_pre,
            }
        }
    }

    /// The grid and device sizes of [`fixture`].
    pub const PARAMS: SimParams = SimParams {
        nkz: 2,
        nqz: 2,
        ne: 8,
        nw: 2,
        na: 8,
        nb: 3,
        norb: 2,
        bnum: 4,
    };

    /// Build a small but fully physical fixture by running one GF phase.
    pub fn fixture() -> Fixture {
        fixture_with(PARAMS, Device::new)
    }

    /// [`fixture`] at sizes `p` on the device `make_dev` builds.
    pub fn fixture_with(p: SimParams, make_dev: impl Fn(&SimParams) -> Device) -> Fixture {
        let dev = make_dev(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        let esse = gf::ElectronSelfEnergy::zeros(&p);
        let psse = gf::PhononSelfEnergy::zeros(&p);
        let egf = gf::electron_gf_phase(&dev, &em, &p, &grids, &esse, &cfg).unwrap();
        let pgf = gf::phonon_gf_phase(&dev, &pm, &p, &grids, &psse, &cfg).unwrap();
        let (dl, dg) = preprocess_d(&dev, &p, &pgf);
        Fixture {
            dh: em.dh_tensor(&dev),
            g_lesser: egf.g_lesser,
            g_greater: egf.g_greater,
            d_lesser_pre: dl,
            d_greater_pre: dg,
            p,
            dev,
            grids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::fixture;
    use super::*;
    use qt_linalg::Matrix;

    #[test]
    fn variants_agree_on_sigma() {
        let fx = fixture();
        let inputs = fx.inputs();
        let r = sigma(&inputs, SseVariant::Reference);
        let o = sigma(&inputs, SseVariant::Omen);
        let d = sigma(&inputs, SseVariant::Dace);
        let ls = r.lesser.norm().max(1e-30);
        let gs = r.greater.norm().max(1e-30);
        assert!(
            r.lesser.max_abs_diff(&o.lesser) / ls < 1e-12,
            "omen vs reference (lesser)"
        );
        assert!(
            r.lesser.max_abs_diff(&d.lesser) / ls < 1e-12,
            "dace vs reference (lesser): {}",
            r.lesser.max_abs_diff(&d.lesser) / ls
        );
        assert!(r.greater.max_abs_diff(&o.greater) / gs < 1e-12);
        assert!(r.greater.max_abs_diff(&d.greater) / gs < 1e-12);
        // The kernel actually produces something.
        assert!(r.lesser.norm() > 1e-20, "Σ< must be non-zero");
    }

    #[test]
    fn variants_agree_on_pi() {
        let fx = fixture();
        let inputs = fx.inputs();
        let r = pi(&inputs, SseVariant::Reference);
        let d = pi(&inputs, SseVariant::Dace);
        let ls = r.lesser.norm().max(1e-30);
        let gs = r.greater.norm().max(1e-30);
        assert!(r.lesser.max_abs_diff(&d.lesser) / ls < 1e-12);
        assert!(r.greater.max_abs_diff(&d.greater) / gs < 1e-12);
        assert!(r.lesser.norm() > 1e-20);
    }

    #[test]
    fn zero_phonons_give_zero_sigma() {
        let mut fx = fixture();
        fx.d_lesser_pre.fill_zero();
        fx.d_greater_pre.fill_zero();
        let inputs = fx.inputs();
        for v in [SseVariant::Reference, SseVariant::Omen, SseVariant::Dace] {
            let s = sigma(&inputs, v);
            assert!(s.lesser.norm() < 1e-30);
            assert!(s.greater.norm() < 1e-30);
        }
    }

    #[test]
    fn stabilization_makes_blocks_anti_hermitian() {
        let fx = fixture();
        let inputs = fx.inputs();
        let mut s = sigma(&inputs, SseVariant::Dace);
        stabilize_sigma(&mut s, &fx.p);
        for k in 0..fx.p.nkz {
            for e in 0..fx.p.ne {
                for a in 0..fx.p.na {
                    let blk =
                        Matrix::from_vec(fx.p.norb, fx.p.norb, s.lesser.inner(&[k, e, a]).to_vec());
                    let mut sum = blk.clone();
                    sum += &blk.dagger();
                    assert!(sum.max_abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn preprocess_d_antisymmetry_structure() {
        // D̃ vanishes when all four D blocks are equal (uniform field).
        let fx = fixture();
        let mut ph = crate::gf::PhononGf {
            d_lesser: Tensor::zeros(&[fx.p.nqz, fx.p.nw, fx.p.na, fx.p.nb + 1, N3D, N3D]),
            d_greater: Tensor::zeros(&[fx.p.nqz, fx.p.nw, fx.p.na, fx.p.nb + 1, N3D, N3D]),
            energy_current: 0.0,
            coverage: crate::health::CoverageReport::full(fx.p.nqz * fx.p.nw),
        };
        // Fill every block with the same anti-Hermitian matrix.
        let blk = [
            qt_linalg::c64(0.0, 1.0),
            qt_linalg::c64(0.5, 0.25),
            qt_linalg::c64(0.1, -0.3),
            qt_linalg::c64(-0.5, 0.25),
            qt_linalg::c64(0.0, 2.0),
            qt_linalg::c64(0.2, 0.1),
            qt_linalg::c64(-0.1, -0.3),
            qt_linalg::c64(-0.2, 0.1),
            qt_linalg::c64(0.0, 0.7),
        ];
        for t in [&mut ph.d_lesser, &mut ph.d_greater] {
            for q in 0..fx.p.nqz {
                for w in 0..fx.p.nw {
                    for a in 0..fx.p.na {
                        for s in 0..=fx.p.nb {
                            t.inner_mut(&[q, w, a, s]).copy_from_slice(&blk);
                        }
                    }
                }
            }
        }
        let (dl, _) = preprocess_d(&fx.dev, &fx.p, &ph);
        // D_ba − D_bb − D_aa + D_ab = M − M − M + M = 0 wherever the
        // reverse slot exists.
        for a in 0..fx.p.na {
            for s in 0..fx.p.nb {
                let Some(b) = fx.dev.neighbor(a, s) else {
                    continue;
                };
                if (0..fx.p.nb).any(|r| fx.dev.neighbor(b, r) == Some(a)) {
                    let v = dl.inner(&[0, 0, a, s]);
                    assert!(v.iter().all(|z| z.abs() < 1e-14));
                }
            }
        }
    }
}
