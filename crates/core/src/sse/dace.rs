//! Data-centric transformed SSE kernels (Fig. 12) — the one DaCe SSE
//! implementation, serial and distributed.
//!
//! The kernels run over an [`SseView`]: one `(energy, atom)` window of the
//! SSE map with its `G≷`/`D̃≷` halos already in the kernel's layout. The
//! §4.1 tiling is a map-tiling of the *same* map (Fig. 8), so a rank of
//! `qt_dist::ca_exchange` calls [`sigma_atom`]/[`pi_pair`] on its tile and
//! the serial [`sigma`]/[`pi`] are the one-view case: permute once, fan out
//! over atoms, scale and scatter.
//!
//! The Σ≷ kernel applies the full §4.2 pipeline:
//!
//! 1. **Redundancy removal** — `∇H·G` is computed once per `(a, b, i, kz, E)`
//!    instead of once per `(a, b, i, j, kz, E, qz, ω)`: the `(qz, ω)`
//!    dimensions only offset the `(kz, E)` indices, which already span the
//!    full grid (Fig. 10b). This halves the flop count (Table 3).
//! 2. **Data layout** — `G≷` is permuted to `[NA, Nkz, NE, Norb, Norb]` so
//!    the per-atom `(kz, E)` batch is contiguous (Fig. 10c).
//! 3. **Multiplication fusion** — the `Nkz·NE` small products collapse into
//!    one shared-B batch per `(a, b, i)` (Fig. 10d).
//! 4. **Batched GEMM over E** — flipping the `(E, ω)` loops makes every
//!    energy of a sideband multiply the *same* `D̃(qz, ω)` block, so each
//!    `(kz, qz, ω)` emits one shared-B batch over the whole contiguous
//!    energy run instead of `NE` windowed products (Fig. 11).
//! 5. **Map fusion over `(a, b)`** — all transients are per-`(a, b)` work
//!    buffers of rank 3, not global 7-D tensors (Fig. 12), checked out of
//!    the per-thread [`workspace`] pool so warm SCF iterations touch the
//!    allocator only for the escaping per-atom partial sums, and the outer
//!    atom loop fans out over [`qt_linalg::par`].
//!
//! Every product of both kernels is a shared-B batch of `Norb × Norb`
//! items, which `gemm` runs through SBSMM in its naive summation order at
//! every batch length. A window's Σ≷ is therefore the matching slice of the
//! full call bit for bit, however short its energy runs.

use super::SseInputs;
use crate::gf::{ElectronSelfEnergy, PhononSelfEnergy};
use crate::params::N3D;
use qt_linalg::{c64, gemm, par, workspace, Complex64, Matrix, Tensor};
use std::ops::Range;

/// One `(energy, atom)` window of the SSE map. The kernels read `G≷`/`D̃≷`
/// from here and only `dev`, `p`, `grids` and `dh` from [`SseInputs`]; the
/// output atoms are the caller's loop, one [`sigma_atom`]/[`pi_pair`] call
/// each.
pub struct SseView<'a> {
    /// Energies the window produces.
    pub e_out: Range<usize>,
    /// `e_out` widened by the ±Nω sidebands, clamped to the grid: the
    /// energies `g` holds.
    pub e_halo: Range<usize>,
    /// Atoms `g` and `d` hold: the output atoms and all their neighbours.
    pub a_win: Range<usize>,
    /// `G≷` as `[a_win][kz][e_halo][Norb²]`, lesser then greater.
    pub g: [&'a [Complex64]; 2],
    /// `D̃≷` as `[qz][ω][a_win][Nb·9]`, lesser then greater.
    pub d: [&'a [Complex64]; 2],
}

/// Data-layout transformation `G≷ -> [NA, Nkz, NE, No, No]`, staged in
/// pooled storage; the caller recycles both once its partials are in.
fn permuted_g(inputs: &SseInputs<'_>) -> [Tensor; 2] {
    let perm = [2usize, 0, 1, 3, 4];
    [
        inputs.g_lesser.permuted_pooled(&perm),
        inputs.g_greater.permuted_pooled(&perm),
    ]
}

/// The whole grid as one view over the permuted `G≷`.
fn full_view<'a>(inputs: &SseInputs<'a>, g: &'a [Tensor; 2]) -> SseView<'a> {
    SseView {
        e_out: 0..inputs.p.ne,
        e_halo: 0..inputs.p.ne,
        a_win: 0..inputs.p.na,
        g: [g[0].as_slice(), g[1].as_slice()],
        d: [
            inputs.d_lesser_pre.as_slice(),
            inputs.d_greater_pre.as_slice(),
        ],
    }
}

/// Σ≷ via the transformed kernel.
pub fn sigma(inputs: &SseInputs<'_>) -> ElectronSelfEnergy {
    let p = inputs.p;
    let nn = p.norb * p.norb;
    let ke = p.nkz * p.ne;
    let g = permuted_g(inputs);
    let view = full_view(inputs, &g);
    // Per-atom partial results, joined at the end (atoms are independent).
    // The partials escape the worker, so they stay on the regular heap.
    let partials: Vec<[Vec<Complex64>; 2]> = par::map(p.na, |a| {
        let mut sig = [
            vec![Complex64::ZERO; ke * nn],
            vec![Complex64::ZERO; ke * nn],
        ];
        let [sig_l, sig_g] = &mut sig;
        sigma_atom(inputs, &view, a, [sig_l, sig_g]);
        sig
    });
    g.into_iter().for_each(Tensor::recycle);
    // Scatter per-atom results into the output tensors.
    let mut out = ElectronSelfEnergy::zeros(p);
    for (a, [sl, sg]) in partials.into_iter().enumerate() {
        for k in 0..p.nkz {
            for e in 0..p.ne {
                let src = (k * p.ne + e) * nn;
                out.lesser
                    .inner_mut(&[k, e, a])
                    .copy_from_slice(&sl[src..src + nn]);
                out.greater
                    .inner_mut(&[k, e, a])
                    .copy_from_slice(&sg[src..src + nn]);
            }
        }
    }
    out
}

/// Accumulate atom `a`'s scaled Σ≷ over the view's output energies into
/// `sig` (lesser, greater), each `[kz][e_out][Norb²]`.
pub fn sigma_atom(
    inputs: &SseInputs<'_>,
    view: &SseView<'_>,
    a: usize,
    mut sig: [&mut [Complex64]; 2],
) {
    let p = inputs.p;
    let no = p.norb;
    let nn = no * no;
    let scale = c64(super::sigma_scale(p, inputs.grids), 0.0);
    let (eo, eh) = (&view.e_out, &view.e_halo);
    debug_assert!(eh.start <= eo.start.saturating_sub(p.nw));
    debug_assert!(eh.end >= (eo.end + p.nw).min(p.ne));
    let ke = p.nkz * eh.len();
    let nqw = p.nqz * p.nw;
    // Rank-3 transients of the fused kernel (Fig. 12): one (kz, E) batch
    // plus emission/absorption (qz, ω) operand stacks per direction, all
    // from the calling thread's workspace pool.
    let scratch =
        |len| -> Vec<Vec<Complex64>> { (0..N3D).map(|_| workspace::take_scratch(len)).collect() };
    let (mut dhg, mut dhd_em, mut dhd_abs) =
        (scratch(ke * nn), scratch(nqw * nn), scratch(nqw * nn));
    for slot in 0..p.nb {
        let Some(f) = inputs.dev.neighbor(a, slot) else {
            continue;
        };
        debug_assert!(view.a_win.contains(&a) && view.a_win.contains(&f));
        let g_off = (f - view.a_win.start) * ke * nn;
        for (t, sig) in sig.iter_mut().enumerate() {
            // (1 + 3) ∇H·G: one wide GEMM per direction over the
            // contiguous (kz, E) batch of atom f.
            let g_batch = &view.g[t][g_off..g_off + ke * nn]; // [Nkz*NE*no, no]
            for (i, dhg_i) in dhg.iter_mut().enumerate() {
                let dh_i = inputs.dh.inner(&[a, slot, i]);
                dhg_i.fill(Complex64::ZERO);
                gemm::batched_gemm_shared_b_acc(no, no, no, ke, g_batch, dh_i, dhg_i);
            }
            // ∇H·D̃ stacks in natural (qz, ω) order — the batched (E, ω)
            // loop flip below removes the need for the old ω-reversed
            // emission layout. Emission contracts D̃≶, absorption its
            // bosonic image conj D̃≷ᵀ.
            let (d, d_other) = (view.d[t], view.d[1 - t]);
            for i in 0..N3D {
                let (em, ab) = (&mut dhd_em[i], &mut dhd_abs[i]);
                em.fill(Complex64::ZERO);
                ab.fill(Complex64::ZERO);
                for qw in 0..nqw {
                    let base = qw * nn;
                    let d_off =
                        ((qw * view.a_win.len() + a - view.a_win.start) * p.nb + slot) * N3D * N3D;
                    for j in 0..N3D {
                        let dval = d[d_off + i * N3D + j];
                        let dval_abs = d_other[d_off + j * N3D + i].conj();
                        let dh_j = inputs.dh.inner(&[a, slot, j]);
                        if dval != Complex64::ZERO {
                            for (t, &s) in em[base..base + nn].iter_mut().zip(dh_j) {
                                *t += s * dval;
                            }
                        }
                        if dval_abs != Complex64::ZERO {
                            for (t, &s) in ab[base..base + nn].iter_mut().zip(dh_j) {
                                *t += s * dval_abs;
                            }
                        }
                    }
                }
            }
            // (4) Batched-GEMM schedule (Fig. 11): for every (kz, qz, ω)
            // the whole energy run multiplies one shared D̃ block —
            //   emission    Σ[k, E] += dHG[k−q, E−ω−1] · D̃(q, ω)
            //               for E ∈ e_out with E ≥ ω+1,
            //   absorption  Σ[k, E] += dHG[k−q, E+ω+1] · D̃*(q, ω)
            //               for E ∈ e_out with E < NE−ω−1,
            // each a contiguous `cnt`-item shared-B batch.
            for k in 0..p.nkz {
                for q in 0..p.nqz {
                    let kq = inputs.grids.k_minus_q(k, q);
                    for w in 0..p.nw {
                        let bbase = (q * p.nw + w) * nn;
                        let em_first = eo.start.max(w + 1);
                        let abs_end = eo.end.min(p.ne.saturating_sub(w + 1));
                        // (operand stack, first output E, end, first source E)
                        for (dhd, first, end, src) in [
                            (&dhd_em, em_first, eo.end, em_first - (w + 1)),
                            (&dhd_abs, eo.start, abs_end, eo.start + w + 1),
                        ] {
                            let cnt = end.saturating_sub(first);
                            if cnt == 0 {
                                continue;
                            }
                            let a_off = (kq * eh.len() + src - eh.start) * nn;
                            let o_off = (k * eo.len() + first - eo.start) * nn;
                            for (dhg_i, dhd_i) in dhg.iter().zip(dhd) {
                                gemm::batched_gemm_shared_b_scaled_acc(
                                    no,
                                    no,
                                    no,
                                    cnt,
                                    &dhg_i[a_off..a_off + cnt * nn],
                                    &dhd_i[bbase..bbase + nn],
                                    &mut sig[o_off..o_off + cnt * nn],
                                    scale,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    for buf in dhg.into_iter().chain(dhd_em).chain(dhd_abs) {
        workspace::give_scratch(buf);
    }
}

/// Π≷ via the transformed kernel: same contraction as
/// [`super::reference::pi`], rescheduled through batched GEMM. By the
/// cyclic trace identity
/// `tr(∇H_ba,i·G1·∇H_ab,j·G2) = tr((G1·∇H_ab,j)·(G2·∇H_ba,i))`
/// both factors become *shared-B* products, so the per-point `(i, j)`
/// matmuls hoist into 12 wide batched GEMMs per `(a, slot)` — one per
/// direction, operand side and lesser/greater — over the contiguous
/// permuted `(kz, E)` batch, each staged once into trace planes
/// ([`gemm::StagedRuns`]); the inner loops reduce to trace dots over energy
/// windows of those planes ([`gemm::trace_windows_acc`]).
pub fn pi(inputs: &SseInputs<'_>) -> PhononSelfEnergy {
    let p = inputs.p;
    let scale = c64(super::pi_scale(p, inputs.grids), 0.0);
    let g = permuted_g(inputs);
    let view = full_view(inputs, &g);
    let mut out = PhononSelfEnergy::zeros(p);
    // Per (a, slot) pair, computed in parallel and scattered.
    let pairs: Vec<(usize, usize)> = (0..p.na)
        .flat_map(|a| (0..p.nb).map(move |s| (a, s)))
        .collect();
    let results: Vec<Option<(usize, usize, Matrix, Matrix)>> = par::map(pairs.len(), |i| {
        let (a, slot) = pairs[i];
        let (mut t_l, mut t_g) = pi_pair(inputs, &view, a, slot)?;
        for z in t_l.as_mut_slice() {
            *z *= scale;
        }
        for z in t_g.as_mut_slice() {
            *z *= scale;
        }
        Some((a, slot, t_l, t_g))
    });
    g.into_iter().for_each(Tensor::recycle);
    for r in results.into_iter().flatten() {
        let (a, slot, t_l, t_g) = r;
        for (t, tensor_pair) in [(&t_l, &mut out.lesser), (&t_g, &mut out.greater)] {
            for q in 0..p.nqz {
                for w in 0..p.nw {
                    for i in 0..N3D {
                        for j in 0..N3D {
                            let v = t[(i * p.nqz + q, j * p.nw + w)];
                            tensor_pair.add_assign_at(&[q, w, a, slot, i, j], v);
                            let nbslot = p.nb;
                            tensor_pair.add_assign_at(&[q, w, a, nbslot, i, j], -v);
                        }
                    }
                }
            }
        }
    }
    out
}

/// *Unscaled* Π≷ partials of the pair `(a, slot)` over the view's output
/// energies, for every `(qz, ω)` at once: `(T<, T>)` indexed
/// `(i·Nqz + q, j·Nω + ω)`, to be added at `slot` and subtracted at the
/// diagonal slot (Eqs. 4–5). `None` for a vacant slot.
pub fn pi_pair(
    inputs: &SseInputs<'_>,
    view: &SseView<'_>,
    a: usize,
    slot: usize,
) -> Option<(Matrix, Matrix)> {
    let p = inputs.p;
    let no = p.norb;
    let nn = no * no;
    let (eo, eh) = (&view.e_out, &view.e_halo);
    let ke = p.nkz * eh.len();
    let b = inputs.dev.neighbor(a, slot)?;
    debug_assert!(view.a_win.contains(&a) && view.a_win.contains(&b));
    // ∇H_ba,i once per pair (tiny, escapes nothing).
    let dh_ba: Vec<Matrix> = (0..N3D)
        .map(|i| super::reference::dh_reverse(inputs, a, slot, b, i))
        .collect();
    let mut t_l = Matrix::zeros(N3D * p.nqz, N3D * p.nw); // (i·q, j·w) layout
    let mut t_g = Matrix::zeros(N3D * p.nqz, N3D * p.nw);
    // Pooled hoisted products: U_j[k,e] = G_hi[k,e,a]·∇H_ab,j and
    // V_i[k,e] = G_lo[k,e,b]·∇H_ba,i over the view's (kz, E) batch.
    let mut u: Vec<Vec<Complex64>> = (0..N3D).map(|_| workspace::take_scratch(ke * nn)).collect();
    let mut v: Vec<Vec<Complex64>> = (0..N3D).map(|_| workspace::take_scratch(ke * nn)).collect();
    let batch = |t: usize, atom: usize| {
        let off = (atom - view.a_win.start) * ke * nn;
        &view.g[t][off..off + ke * nn]
    };
    // Π<: G<(E+ω) × G>(E); Π>: G>(E+ω) × G<(E). The trace flops are
    // counted once for the pair.
    let mut flops = 0;
    for (hi, t_out) in [(0, &mut t_l), (1, &mut t_g)] {
        let g_hi_batch = batch(hi, a);
        let g_lo_batch = batch(1 - hi, b);
        for (j, u_j) in u.iter_mut().enumerate() {
            u_j.fill(Complex64::ZERO);
            gemm::batched_gemm_shared_b_acc(
                no,
                no,
                no,
                ke,
                g_hi_batch,
                inputs.dh.inner(&[a, slot, j]),
                u_j,
            );
        }
        for (i, v_i) in v.iter_mut().enumerate() {
            v_i.fill(Complex64::ZERO);
            gemm::batched_gemm_shared_b_acc(no, no, no, ke, g_lo_batch, dh_ba[i].as_slice(), v_i);
        }
        // Staged once for every (qz, ω, kz) window below.
        let su = gemm::StagedRuns::new(no, &u, false);
        let sv = gemm::StagedRuns::new(no, &v, true);
        for q in 0..p.nqz {
            for w in 0..p.nw {
                // The output energies whose E + ω is on the grid: one run of
                // U blocks at E + ω against V blocks at E.
                let run = eo.start..eo.end.min(p.ne.saturating_sub(w + 1));
                if run.is_empty() {
                    continue;
                }
                // tr(U·V) without forming U·V, summed over (kz, E) from zero.
                let mut t = [Complex64::ZERO; N3D * N3D];
                for k in 0..p.nkz {
                    let kq = inputs.grids.k_plus_q(k, q);
                    let u_at = kq * eh.len() + run.start + w + 1 - eh.start;
                    let v_at = k * eh.len() + run.start - eh.start;
                    gemm::trace_windows_acc(&su, u_at, &sv, v_at, run.len(), &mut t);
                    flops += N3D * N3D * 8 * run.len() * nn;
                }
                for (ij, &z) in t.iter().enumerate() {
                    t_out[((ij / N3D) * p.nqz + q, (ij % N3D) * p.nw + w)] = z;
                }
            }
        }
    }
    qt_linalg::add_flops(flops as u64);
    for buf in u.into_iter().chain(v) {
        workspace::give_scratch(buf);
    }
    Some((t_l, t_g))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{fixture_with, Fixture, PARAMS};
    use super::super::{pi_scale, reference};
    use super::*;
    use crate::device::Device;
    use crate::params::SimParams;

    /// `(TE, TA)` window grids every fixture is cut into.
    const TILINGS: [(usize, usize); 5] = [(2, 2), (1, 3), (3, 1), (2, 1), (1, 2)];

    /// The uniform fixture, then a skewed device with an interior vacancy.
    fn fixtures(p: SimParams) -> [Fixture; 2] {
        let vacancy = |p: &_| {
            let mut dev = Device::skewed(p, 1, 1);
            dev.delete_sites(&[5]);
            dev
        };
        [fixture_with(p, Device::new), fixture_with(p, vacancy)]
    }

    /// Sizes at which a route chosen by batch length would show: a third of
    /// 12 energies makes batches of fewer than 8 `Norb = 4` items, the
    /// whole grid batches of more (the stacked shape's packed crossover).
    const WIDE: SimParams = SimParams {
        nkz: 1,
        nqz: 1,
        ne: 12,
        norb: 4,
        ..PARAMS
    };

    fn split(total: usize, parts: usize) -> Vec<Range<usize>> {
        (0..parts)
            .map(|i| i * total / parts..(i + 1) * total / parts)
            .collect()
    }

    /// Owned storage of one window in the kernel's layout, cut out of the
    /// global tensors the way a rank's halo unpack fills it.
    struct Window {
        e_out: Range<usize>,
        e_halo: Range<usize>,
        a_out: Range<usize>,
        a_win: Range<usize>,
        g: [Vec<Complex64>; 2],
        d: [Vec<Complex64>; 2],
    }

    impl Window {
        fn cut(fx: &Fixture, e_out: Range<usize>, a_out: Range<usize>) -> Self {
            let p = &fx.p;
            let reach = fx.dev.max_neighbor_index_distance();
            let e_halo = e_out.start.saturating_sub(p.nw)..(e_out.end + p.nw).min(p.ne);
            let a_win = a_out.start.saturating_sub(reach)..(a_out.end + reach).min(p.na);
            let g = [&fx.g_lesser, &fx.g_greater].map(|t| {
                let mut v = Vec::new();
                for a in a_win.clone() {
                    for k in 0..p.nkz {
                        for e in e_halo.clone() {
                            v.extend_from_slice(t.inner(&[k, e, a]));
                        }
                    }
                }
                v
            });
            let d = [&fx.d_lesser_pre, &fx.d_greater_pre].map(|t| {
                let mut v = Vec::new();
                for qw in 0..p.nqz * p.nw {
                    for a in a_win.clone() {
                        v.extend_from_slice(t.inner(&[qw / p.nw, qw % p.nw, a]));
                    }
                }
                v
            });
            Window {
                e_out,
                e_halo,
                a_out,
                a_win,
                g,
                d,
            }
        }

        fn view(&self) -> SseView<'_> {
            SseView {
                e_out: self.e_out.clone(),
                e_halo: self.e_halo.clone(),
                a_win: self.a_win.clone(),
                g: [&self.g[0], &self.g[1]],
                d: [&self.d[0], &self.d[1]],
            }
        }
    }

    /// Σ≷ of every window of every tiling against the matching slice of the
    /// full call (`check` sees both blocks) and, to 1e-10 of the tensor
    /// norm, of the untransformed reference.
    fn check_sigma_windows(fx: &Fixture, check: impl Fn(&[Complex64], &[Complex64], &str)) {
        let inputs = fx.inputs();
        let (p, nn) = (&fx.p, fx.p.norb * fx.p.norb);
        let full = sigma(&inputs);
        let oracle = reference::sigma(&inputs);
        for (te, ta) in TILINGS {
            for e_out in split(p.ne, te) {
                for a_out in split(p.na, ta) {
                    let win = Window::cut(fx, e_out.clone(), a_out);
                    for a in win.a_out.clone() {
                        let mut sig =
                            [0, 1].map(|_| vec![Complex64::ZERO; p.nkz * e_out.len() * nn]);
                        let [sig_l, sig_g] = &mut sig;
                        sigma_atom(&inputs, &win.view(), a, [sig_l, sig_g]);
                        let tensors = [
                            (&full.lesser, &oracle.lesser),
                            (&full.greater, &oracle.greater),
                        ];
                        for (got, (full, oracle)) in sig.iter().zip(tensors) {
                            for k in 0..p.nkz {
                                for (el, e) in e_out.clone().enumerate() {
                                    let off = (k * e_out.len() + el) * nn;
                                    let got = &got[off..off + nn];
                                    let what = format!("{te}x{ta} k={k} e={e} a={a}");
                                    check(got, full.inner(&[k, e, a]), &what);
                                    let tol = 1e-10 * oracle.norm();
                                    for (x, y) in got.iter().zip(oracle.inner(&[k, e, a])) {
                                        assert!((*x - *y).abs() <= tol, "{what} vs reference");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every product is a shared-B batch of square items, summed in one
    /// order whatever its length, so a window's shorter energy runs
    /// reproduce the full call bit for bit.
    fn check_sigma_windows_bitwise(fx: &Fixture) {
        check_sigma_windows(fx, |got, full, what| {
            for (x, y) in got.iter().zip(full) {
                let same = x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits();
                assert!(same, "{what}: {x:?} vs {y:?}");
            }
        });
    }

    #[test]
    fn sigma_windows_have_the_full_calls_bits_at_two_orbitals() {
        for fx in fixtures(PARAMS) {
            check_sigma_windows_bitwise(&fx);
        }
    }

    #[test]
    fn sigma_windows_match_the_full_call_when_gemm_dispatch_differs() {
        // At Norb = 4 a window's batches fall below the packed crossover and
        // the full grid's do not; the shared-B route ignores batch length,
        // so the bits still agree.
        for fx in fixtures(WIDE) {
            check_sigma_windows_bitwise(&fx);
        }
    }

    #[test]
    fn pi_window_partials_summed_in_unit_order_reproduce_serial_pi() {
        for fx in fixtures(PARAMS) {
            let inputs = fx.inputs();
            let p = &fx.p;
            let full = pi(&inputs);
            let oracle = reference::pi(&inputs);
            for (te, ta) in TILINGS {
                let mut sum = PhononSelfEnergy::zeros(p);
                for e_out in split(p.ne, te) {
                    for a_out in split(p.na, ta) {
                        let win = Window::cut(&fx, e_out.clone(), a_out);
                        for a in win.a_out.clone() {
                            for slot in 0..p.nb {
                                let Some((t_l, t_g)) = pi_pair(&inputs, &win.view(), a, slot)
                                else {
                                    continue;
                                };
                                for (t, out) in [(&t_l, &mut sum.lesser), (&t_g, &mut sum.greater)]
                                {
                                    for (q, w, i, j) in qwij(p.nqz, p.nw) {
                                        let v = t[(i * p.nqz + q, j * p.nw + w)];
                                        out.add_assign_at(&[q, w, a, slot, i, j], v);
                                        out.add_assign_at(&[q, w, a, p.nb, i, j], -v);
                                    }
                                }
                            }
                        }
                    }
                }
                let scale = pi_scale(p, &fx.grids);
                for (sum, full, oracle) in [
                    (&sum.lesser, &full.lesser, &oracle.lesser),
                    (&sum.greater, &full.greater, &oracle.greater),
                ] {
                    let mut scaled = sum.clone();
                    scaled.as_mut_slice().iter_mut().for_each(|z| *z *= scale);
                    for reference in [full, oracle] {
                        let rel = reference.max_abs_diff(&scaled) / reference.norm();
                        assert!(rel <= 1e-10, "{te}x{ta}: rel {rel}");
                    }
                }
            }
        }
    }

    /// Every `(q, ω, i, j)` index of a [`pi_pair`] partial.
    fn qwij(nqz: usize, nw: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        (0..nqz * nw * N3D * N3D).map(move |n| {
            let (qw, ij) = (n / (N3D * N3D), n % (N3D * N3D));
            (qw / nw, qw % nw, ij / N3D, ij % N3D)
        })
    }
}
