//! Untransformed reference SSE kernels (Fig. 5 / Fig. 8).
//!
//! A literal transcription of the paper's Python: one 8-D loop nest, every
//! small operation allocating its operands — the "Python" column of
//! Table 7. Correct, readable, slow; the other variants are checked against
//! it.

use super::SseInputs;
use crate::gf::{ElectronSelfEnergy, PhononSelfEnergy};
use crate::params::N3D;
use qt_linalg::{c64, Matrix, Tensor};

/// Fetch the `Norb × Norb` matrix at `G[kz, E, a]` as a fresh allocation.
fn g_block(g: &Tensor, k: usize, e: usize, a: usize, no: usize) -> Matrix {
    Matrix::from_vec(no, no, g.inner(&[k, e, a]).to_vec())
}

/// Fetch `∇H[a, slot, i]`.
fn dh_block(dh: &Tensor, a: usize, slot: usize, i: usize, no: usize) -> Matrix {
    Matrix::from_vec(no, no, dh.inner(&[a, slot, i]).to_vec())
}

/// `∇H_ba,i` via the reverse neighbor slot, falling back to the
/// antisymmetry `∇H_ba = −(∇H_ab)†`.
pub fn dh_reverse(inputs: &SseInputs<'_>, a: usize, slot: usize, b: usize, i: usize) -> Matrix {
    let no = inputs.p.norb;
    match (0..inputs.p.nb).find(|&s| inputs.dev.neighbor(b, s) == Some(a)) {
        Some(s) => dh_block(inputs.dh, b, s, i, no),
        None => dh_block(inputs.dh, a, slot, i, no)
            .dagger()
            .scale(c64(-1.0, 0.0)),
    }
}

/// Σ≷ via the untransformed loop nest.
pub fn sigma(inputs: &SseInputs<'_>) -> ElectronSelfEnergy {
    let p = inputs.p;
    let no = p.norb;
    let mut out = ElectronSelfEnergy::zeros(p);
    let scale = c64(super::sigma_scale(p, inputs.grids), 0.0);
    for (g, d, d_other, sig) in [
        (
            inputs.g_lesser,
            inputs.d_lesser_pre,
            inputs.d_greater_pre,
            &mut out.lesser,
        ),
        (
            inputs.g_greater,
            inputs.d_greater_pre,
            inputs.d_lesser_pre,
            &mut out.greater,
        ),
    ] {
        for k in 0..p.nkz {
            for e in 0..p.ne {
                for q in 0..p.nqz {
                    for w in 0..p.nw {
                        let kq = inputs.grids.k_minus_q(k, q);
                        // Emission (E − ħω, weight D̃≷(ω)) and absorption
                        // (E + ħω, weight conj D̃≶(ω) with (i, j) swapped —
                        // the bosonic identity D≷(−ω) = D≶(ω)ᵀ*): the
                        // "G≷(E ± ħω)" the production code communicates.
                        let sidebands = [inputs.grids.e_minus_w(e, w), inputs.grids.e_plus_w(e, w)];
                        for i in 0..N3D {
                            for j in 0..N3D {
                                for a in 0..p.na {
                                    for slot in 0..p.nb {
                                        let Some(f) = inputs.dev.neighbor(a, slot) else {
                                            continue;
                                        };
                                        for (side, eshift) in sidebands.iter().enumerate() {
                                            let Some(es) = *eshift else {
                                                continue;
                                            };
                                            // dHG = G[k−q, E∓ω, f] @ ∇H[a, b, i]
                                            let dhg = g_block(g, kq, es, f, no)
                                                .matmul(&dh_block(inputs.dh, a, slot, i, no));
                                            let dval = if side == 0 {
                                                d.get(&[q, w, a, slot, i, j])
                                            } else {
                                                d_other.get(&[q, w, a, slot, j, i]).conj()
                                            };
                                            let dhd =
                                                dh_block(inputs.dh, a, slot, j, no).scale(dval);
                                            // Σ[k, E, a] += dHG @ dHD
                                            let prod = dhg.matmul(&dhd).scale(scale);
                                            let dst = sig.inner_mut(&[k, e, a]);
                                            for (o, v) in dst.iter_mut().zip(prod.as_slice()) {
                                                *o += *v;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Π≷ via the untransformed loop nest (Eqs. 4–5): for every neighbor pair
/// `(a, b)` and `(qz, ω)`,
/// `T_ij = Σ_{kz} ∫dE tr{∇H_ba,i · G≷_aa(E+ω, k+q) · ∇H_ab,j · G≶_bb(E, k)}`
/// contributes `+T` to the off-diagonal slot (Eq. 5) and `−T` to the
/// diagonal slot (Eq. 4).
pub fn pi(inputs: &SseInputs<'_>) -> PhononSelfEnergy {
    let p = inputs.p;
    let no = p.norb;
    let mut out = PhononSelfEnergy::zeros(p);
    let scale = c64(super::pi_scale(p, inputs.grids), 0.0);
    // Π< pairs G<(E+ω) with G>(E); Π> pairs G>(E+ω) with G<(E).
    for (g_hi, g_lo, pi_t) in [
        (inputs.g_lesser, inputs.g_greater, &mut out.lesser),
        (inputs.g_greater, inputs.g_lesser, &mut out.greater),
    ] {
        for q in 0..p.nqz {
            for w in 0..p.nw {
                for a in 0..p.na {
                    for slot in 0..p.nb {
                        let Some(b) = inputs.dev.neighbor(a, slot) else {
                            continue;
                        };
                        let mut t_ij = Matrix::zeros(N3D, N3D);
                        for k in 0..p.nkz {
                            let kq = inputs.grids.k_plus_q(k, q);
                            for e in 0..p.ne {
                                let Some(ep) = inputs.grids.e_plus_w(e, w) else {
                                    continue;
                                };
                                let g1 = g_block(g_hi, kq, ep, a, no);
                                let g2 = g_block(g_lo, k, e, b, no);
                                for i in 0..N3D {
                                    let dh_ba = dh_reverse(inputs, a, slot, b, i);
                                    for j in 0..N3D {
                                        let dh_ab = dh_block(inputs.dh, a, slot, j, no);
                                        let tr =
                                            dh_ba.matmul(&g1).matmul(&dh_ab).matmul(&g2).trace();
                                        t_ij[(i, j)] += tr;
                                    }
                                }
                            }
                        }
                        let t_ij = t_ij.scale(scale);
                        // Off-diagonal slot (Eq. 5, +i prefactor).
                        let dst = pi_t.inner_mut(&[q, w, a, slot]);
                        for (o, v) in dst.iter_mut().zip(t_ij.as_slice()) {
                            *o += *v;
                        }
                        // Diagonal slot (Eq. 4, −i prefactor).
                        let dst = pi_t.inner_mut(&[q, w, a, p.nb]);
                        for (o, v) in dst.iter_mut().zip(t_ij.as_slice()) {
                            *o -= *v;
                        }
                    }
                }
            }
        }
    }
    out
}
