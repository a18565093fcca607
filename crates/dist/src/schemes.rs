//! Runnable SSE communication schemes (§4.1), executed on the thread world.
//!
//! Both schemes compute the *same* Σ≷ as the serial kernels in
//! `qt_core::sse` (unit tests enforce it); they differ in data movement
//! and in the kernel behind it — the OMEN scheme keeps the paper's
//! per-point small products (and serves as the independent oracle):
//!
//! * [`omen_scheme`] — `Nqz·Nω` rounds; each round broadcasts `D̃≷(qz, ω)`
//!   to every process and replicates the needed `G≷(E−ω, ·)` slices by
//!   point-to-point messages. The `G` traffic repeats every round — the
//!   `2·Nqz·Nω` replication factor of §4.1.
//! * [`ca_exchange`] — the DaCe communication-avoiding scheme: one
//!   all-to-all redistribution from the GF layout (energy-split) to the
//!   `(TE, TA)` energy×atom tiling with an `Nω` energy halo and a
//!   neighbor-window atom halo; the SSE is then entirely local — the
//!   serial [`sse::dace`] kernels on the tile's [`sse::dace::SseView`],
//!   whose layout the halo unpack writes directly. It runs over whatever
//!   survivor set its [`ElasticTiling`] names — the paper's fault-free
//!   scheme is the case where every rank survives.
//!
//! The measured byte counts follow the closed forms in [`crate::volume`].

use crate::comm::{run_elastic_world, run_world, CommError, LivenessConfig, ThreadComm};
use crate::decomp::{DaceDecomp, ElasticTiling, OmenDecomp};
use qt_core::gf::{ElectronSelfEnergy, PhononSelfEnergy};
use qt_core::params::{SimParams, N3D};
use qt_core::sse;
use qt_linalg::{c64, gemm, Complex64, Tensor};

/// Π≷ slices a rank owns round-robin: `((q, ω), lesser, greater)` buffers.
type PiOwned = Vec<((usize, usize), Vec<Complex64>, Vec<Complex64>)>;

/// Read-only global inputs — the serial kernels' own input struct; each
/// rank touches only the slices its initial data distribution owns (the
/// world is simulated, the discipline is real).
pub type SseDistContext<'a> = sse::SseInputs<'a>;

/// How the CA exchange and the supervision loop around it run.
#[derive(Clone, Debug)]
pub struct ElasticPolicy {
    /// Failure-detector configuration for the survivor worlds.
    pub live: LivenessConfig,
    /// Ceiling on the fraction of work units one exchange may lose to
    /// deaths and still recover (a unit lost twice counts once). A death
    /// that would push past it is *not* recovered: the exchange ends at
    /// once in [`qt_core::health::NumericalError::RankLoss`].
    pub max_bad_fraction: f64,
    /// Hard bound on detect→retile→retry rounds (hang-proofing; a world
    /// can die at most once per original rank, so the default is ample).
    pub max_retiles: usize,
    /// Deterministic kill schedule for the exchange worlds. Kills are
    /// matched by original identity, so a rank dies at most once across
    /// the supervisor's retries and a recovery replays identically on
    /// every run. `None` — the default — kills nobody. Frames are never
    /// lost, so the traffic up to a kill is exactly the volume model's.
    pub faults: Option<crate::fault::FaultPlan>,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            live: LivenessConfig::default(),
            max_bad_fraction: qt_core::health::HealthPolicy::default().max_bad_fraction,
            max_retiles: 64,
            faults: None,
        }
    }
}

/// Measured communication of a distributed run.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Total bytes moved across the network (sum over ranks of sends).
    pub world_bytes: u64,
    /// Largest per-rank receive volume.
    pub max_rank_recv: u64,
    /// Bytes sent by each rank during the SSE exchange (self-sends free).
    pub rank_sent: Vec<u64>,
    /// Bytes received by each rank during the SSE exchange.
    pub rank_recv: Vec<u64>,
    /// Per-rank compute-load measurements; `Some` for the CA exchange
    /// (which times every work unit), `None` for the OMEN scheme.
    pub balance: Option<BalanceStats>,
}

/// Per-rank compute-load measurements of one elastic SSE exchange — the
/// raw input of the adaptive tiling layer.
#[derive(Clone, Debug, Default)]
pub struct BalanceStats {
    /// Thread CPU seconds each survivor slot spent computing its tiles.
    pub rank_busy_secs: Vec<f64>,
    /// Measured compute seconds per work unit, indexed by unit id.
    pub unit_secs: Vec<f64>,
}

impl BalanceStats {
    /// Busy-time imbalance ratio `max / mean` across ranks; 1.0 for an
    /// empty or idle world (nothing to balance).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.rank_busy_secs.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.rank_busy_secs.iter().sum();
        let max = self.rank_busy_secs.iter().cloned().fold(0.0, f64::max);
        let mean = sum / self.rank_busy_secs.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Append `G[:, e, a_range, :, :]` (all kz) to `out`, packed `[kz][a][Norb²]`.
fn pack_g_slice(
    out: &mut Vec<Complex64>,
    g: &Tensor,
    nkz: usize,
    e: usize,
    atoms: std::ops::Range<usize>,
) {
    for k in 0..nkz {
        for a in atoms.clone() {
            out.extend_from_slice(g.inner(&[k, e, a]));
        }
    }
}

/// The Σ contribution of one `(qz, ω)` round for one owned energy, shared by
/// the OMEN scheme. `g_slice` holds `G≷[:, e∓(ω+1), :, :]` packed as
/// `[kz][a][Norb²]`; output accumulates into `sig[k][a]` blocks.
/// `absorption` selects the `E + ħω` sideband, which weights with the
/// bosonic image `conj D̃≶ᵀ` (the caller passes the *other* D̃ tensor).
#[allow(clippy::too_many_arguments)]
fn sigma_round_increment(
    ctx: &SseDistContext<'_>,
    q: usize,
    _w: usize,
    g_slice: &[Complex64],
    d_slice: &[Complex64], // D̃[q, w, :, :, :, :] packed [a][slot][3][3]
    absorption: bool,
    k_out: usize,
    sig_out: &mut [Complex64], // [na][Norb²] for this (k, e)
    scale: Complex64,
) {
    let p = ctx.p;
    let no = p.norb;
    let nn = no * no;
    let kq = ctx.grids.k_minus_q(k_out, q);
    let mut dhg = vec![Complex64::ZERO; nn];
    let mut dhd = vec![Complex64::ZERO; nn];
    let mut prod = vec![Complex64::ZERO; nn];
    for a in 0..p.na {
        for slot in 0..p.nb {
            let Some(f) = ctx.dev.neighbor(a, slot) else {
                continue;
            };
            let gblk = &g_slice[(kq * p.na + f) * nn..(kq * p.na + f + 1) * nn];
            for i in 0..N3D {
                let dh_i = ctx.dh.inner(&[a, slot, i]);
                dhg.fill(Complex64::ZERO);
                gemm::gemm_raw_acc(no, no, no, gblk, dh_i, &mut dhg);
                dhd.fill(Complex64::ZERO);
                for j in 0..N3D {
                    let dval = if absorption {
                        d_slice[((a * p.nb + slot) * N3D + j) * N3D + i].conj()
                    } else {
                        d_slice[((a * p.nb + slot) * N3D + i) * N3D + j]
                    };
                    if dval == Complex64::ZERO {
                        continue;
                    }
                    let dh_j = ctx.dh.inner(&[a, slot, j]);
                    for (t, &s) in dhd.iter_mut().zip(dh_j) {
                        *t += s * dval;
                    }
                }
                prod.fill(Complex64::ZERO);
                gemm::gemm_raw_acc(no, no, no, &dhg, &dhd, &mut prod);
                let dst = &mut sig_out[a * nn..(a + 1) * nn];
                for (o, v) in dst.iter_mut().zip(prod.iter()) {
                    *o += *v * scale;
                }
            }
        }
    }
}

/// A summed Π≷ partial (tiles ship them unscaled) times the prefactor.
fn scaled(mut v: Vec<Complex64>, scale: Complex64) -> Vec<Complex64> {
    for z in v.iter_mut() {
        *z *= scale;
    }
    v
}

/// Trace `tr(M1 · G1 · M2 · G2)` over `no × no` row-major blocks.
fn trace4(
    no: usize,
    m1: &[Complex64],
    g1: &[Complex64],
    m2: &[Complex64],
    g2: &[Complex64],
) -> Complex64 {
    // P = M1·G1, Q = M2·G2, tr(P·Q).
    let mut p_ = vec![Complex64::ZERO; no * no];
    let mut q_ = vec![Complex64::ZERO; no * no];
    gemm::gemm_raw_acc(no, no, no, m1, g1, &mut p_);
    gemm::gemm_raw_acc(no, no, no, m2, g2, &mut q_);
    let mut tr = Complex64::ZERO;
    for m in 0..no {
        for n in 0..no {
            tr = tr.mul_add(p_[m * no + n], q_[n * no + m]);
        }
    }
    tr
}

/// Accumulate one energy's contribution to the Π≷(q, ω) partial:
/// `T_ab,ij += Σ_k tr{∇H_ba,i · G≷_hi[k+q, E+ω, a] · ∇H_ab,j · G≶_lo[k, E, b]}`
/// with `+T` on the neighbor slot and `−T` on the diagonal slot (Eqs. 4–5).
/// `g_hi` is packed `[kz][a][Norb²]` for energy `E+ω+1`; `g_lo` is the
/// rank's own `G≶`, read at energy `e`.
fn pi_round_accumulate(
    ctx: &SseDistContext<'_>,
    q: usize,
    e: usize,
    g_hi: &[Complex64],
    g_lo: &Tensor,
    out: &mut [Complex64], // [na][nb+1][9]
) {
    let p = ctx.p;
    let no = p.norb;
    let nn = no * no;
    let d_len = (p.nb + 1) * N3D * N3D;
    for k in 0..p.nkz {
        let kq = ctx.grids.k_plus_q(k, q);
        for a in 0..p.na {
            let g1 = &g_hi[(kq * p.na + a) * nn..(kq * p.na + a + 1) * nn];
            for slot in 0..p.nb {
                let Some(b) = ctx.dev.neighbor(a, slot) else {
                    continue;
                };
                let g2 = g_lo.inner(&[k, e, b]);
                for i in 0..N3D {
                    let m1 = sse::reference::dh_reverse(ctx, a, slot, b, i);
                    for j in 0..N3D {
                        let m2 = ctx.dh.inner(&[a, slot, j]);
                        let tr = trace4(no, m1.as_slice(), g1, m2, g2);
                        out[a * d_len + (slot * N3D + i) * N3D + j] += tr;
                        out[a * d_len + (p.nb * N3D + i) * N3D + j] -= tr;
                    }
                }
            }
        }
    }
}

/// Run the OMEN communication scheme on `procs` ranks. Returns the
/// assembled Σ≷ (identical to the serial kernels) and the measured traffic.
pub fn omen_scheme(
    ctx: &SseDistContext<'_>,
    procs: usize,
) -> (ElectronSelfEnergy, PhononSelfEnergy, CommStats) {
    let _span = qt_telemetry::Span::enter_global("comm/omen_scheme");
    let p = ctx.p;
    let nn = p.norb * p.norb;
    let scale = c64(sse::sigma_scale(p, ctx.grids), 0.0);
    let results = run_world(procs, |comm: ThreadComm| {
        let rank = comm.rank();
        let dec = OmenDecomp::new(p, procs);
        let my_e = dec.energy.range(rank);
        let ne_local = my_e.len();
        // Local Σ accumulators: [tensor][k][e_local][a][nn].
        let mut sig = [
            vec![Complex64::ZERO; p.nkz * ne_local * p.na * nn],
            vec![Complex64::ZERO; p.nkz * ne_local * p.na * nn],
        ];
        // Owned Π≷(q, ω) slices (this rank is the round-robin owner of a
        // subset of phonon points): [owned slice idx][na·(nb+1)·9].
        let d_len = (p.nb + 1) * qt_core::params::N3D * qt_core::params::N3D;
        let mut pi_owned: PiOwned = Vec::new();
        let pi_scale = c64(sse::pi_scale(p, ctx.grids), 0.0);
        for q in 0..p.nqz {
            for w in 0..p.nw {
                let round = (q * p.nw + w) as u64;
                let owner = dec.d_owner(p, q, w);
                // Broadcast both D̃ tensors for this round.
                let d_slices: Vec<Vec<Complex64>> = [ctx.d_lesser_pre, ctx.d_greater_pre]
                    .iter()
                    .enumerate()
                    .map(|(t, d)| {
                        comm.bcast(
                            owner,
                            (rank == owner).then(|| d.inner(&[q, w]).to_vec()),
                            (1 << 40) | (round * 2 + t as u64),
                        )
                    })
                    .collect();
                // Send my G slices to whoever consumes them this round —
                // each consumer energy e needs the emission sideband
                // e − ω − 1 and the absorption sideband e + ω + 1 (the
                // "G≷(E ± ħω)" exchange of §4.1). Iterate in the consumer's
                // order so per-pair FIFO delivery matches the receive loop.
                for e_dst in 0..p.ne {
                    for side in 0u64..2 {
                        let e_src = if side == 0 {
                            e_dst.checked_sub(w + 1)
                        } else {
                            let up = e_dst + w + 1;
                            (up < p.ne).then_some(up)
                        };
                        let Some(e_src) = e_src else { continue };
                        if !my_e.contains(&e_src) {
                            continue;
                        }
                        let dst = dec.energy.owner(e_dst);
                        for (t, g) in [ctx.g_lesser, ctx.g_greater].iter().enumerate() {
                            let mut buf = Vec::with_capacity(p.nkz * p.na * nn);
                            pack_g_slice(&mut buf, g, p.nkz, e_src, 0..p.na);
                            let tag =
                                ((round * p.ne as u64 + e_dst as u64) * 2 + side) * 2 + t as u64;
                            comm.send(dst, tag, buf);
                        }
                    }
                }
                // Receive and consume the slices for my energies; keep the
                // absorption-side (E+ω) slices — they double as the
                // G≷(E+ω, k+q) inputs of the Π kernel (Eqs. 4–5).
                let mut hi_slices: Vec<(usize, Vec<Complex64>, Vec<Complex64>)> = Vec::new();
                for e in my_e.clone() {
                    for side in 0u64..2 {
                        let e_src = if side == 0 {
                            e.checked_sub(w + 1)
                        } else {
                            let up = e + w + 1;
                            (up < p.ne).then_some(up)
                        };
                        let Some(e_src) = e_src else { continue };
                        let src = dec.energy.owner(e_src);
                        let tag = ((round * p.ne as u64 + e as u64) * 2 + side) * 2;
                        let gl = comm.recv(src, tag);
                        let gg = comm.recv(src, tag + 1);
                        if side == 1 {
                            hi_slices.push((e, gl.clone(), gg.clone()));
                        }
                        let e_local = e - my_e.start;
                        for (tensor, g_slice) in [(0usize, &gl), (1, &gg)] {
                            // Absorption weights with the other D̃ tensor.
                            let d_idx = if side == 0 { tensor } else { 1 - tensor };
                            for k in 0..p.nkz {
                                let off = (k * ne_local + e_local) * p.na * nn;
                                sigma_round_increment(
                                    ctx,
                                    q,
                                    w,
                                    g_slice,
                                    &d_slices[d_idx],
                                    side == 1,
                                    k,
                                    &mut sig[tensor][off..off + p.na * nn],
                                    scale,
                                );
                            }
                        }
                    }
                }
                // Partial Π≷(q, ω) over the rank's energies, reduced to the
                // round owner ("the partial phonon self-energies produced by
                // each process are reduced", §4.1).
                let mut part_l = vec![Complex64::ZERO; p.na * d_len];
                let mut part_g = vec![Complex64::ZERO; p.na * d_len];
                for (e, hi_l, hi_g) in &hi_slices {
                    // Π<: G<(E+ω) × G>(E); Π>: G>(E+ω) × G<(E).
                    pi_round_accumulate(ctx, q, *e, hi_l, ctx.g_greater, &mut part_l);
                    pi_round_accumulate(ctx, q, *e, hi_g, ctx.g_lesser, &mut part_g);
                }
                let tag = (1 << 45) | (round * 2);
                let red_l = comm.reduce_sum(owner, part_l, tag);
                let red_g = comm.reduce_sum(owner, part_g, tag + 1);
                if rank == owner {
                    let fin = |v: Option<Vec<Complex64>>| scaled(v.unwrap(), pi_scale);
                    pi_owned.push(((q, w), fin(red_l), fin(red_g)));
                }
            }
        }
        comm.barrier();
        // Capture SSE-phase traffic before the result gather adds its own
        // bytes; the second barrier keeps the snapshot consistent.
        let stats = (comm.bytes_sent(), comm.bytes_received());
        comm.barrier();
        // Gather Σ and Π to root.
        if rank == 0 {
            let mut out = ElectronSelfEnergy::zeros(p);
            for src in 0..procs {
                let src_e = dec.energy.range(src);
                let bufs = if src == 0 {
                    [sig[0].clone(), sig[1].clone()]
                } else {
                    [comm.recv(src, 1 << 50), comm.recv(src, (1 << 50) + 1)]
                };
                for (t, buf) in bufs.iter().enumerate() {
                    let tensor = if t == 0 {
                        &mut out.lesser
                    } else {
                        &mut out.greater
                    };
                    for k in 0..p.nkz {
                        for (e_local, e) in src_e.clone().enumerate() {
                            for a in 0..p.na {
                                let off = ((k * src_e.len() + e_local) * p.na + a) * nn;
                                tensor
                                    .inner_mut(&[k, e, a])
                                    .copy_from_slice(&buf[off..off + nn]);
                            }
                        }
                    }
                }
            }
            let mut pi_out = PhononSelfEnergy::zeros(p);
            let store =
                |pi_out: &mut PhononSelfEnergy,
                 (qw, l, g): ((usize, usize), Vec<Complex64>, Vec<Complex64>)| {
                    let (q, w) = qw;
                    pi_out.lesser.inner_mut(&[q, w]).copy_from_slice(&l);
                    pi_out.greater.inner_mut(&[q, w]).copy_from_slice(&g);
                };
            for entry in pi_owned {
                store(&mut pi_out, entry);
            }
            for src in 1..procs {
                let count = comm.recv(src, 1 << 52)[0].re as usize;
                for _ in 0..count {
                    let head = comm.recv(src, (1 << 52) + 1);
                    let (q, w) = (head[0].re as usize, head[1].re as usize);
                    let l = comm.recv(src, (1 << 52) + 2);
                    let g = comm.recv(src, (1 << 52) + 3);
                    store(&mut pi_out, ((q, w), l, g));
                }
            }
            (Some((out, pi_out)), stats)
        } else {
            comm.send(0, 1 << 50, sig[0].clone());
            comm.send(0, (1 << 50) + 1, sig[1].clone());
            comm.send(0, 1 << 52, vec![c64(pi_owned.len() as f64, 0.0)]);
            for ((q, w), l, g) in pi_owned {
                comm.send(
                    0,
                    (1 << 52) + 1,
                    vec![c64(q as f64, 0.0), c64(w as f64, 0.0)],
                );
                comm.send(0, (1 << 52) + 2, l);
                comm.send(0, (1 << 52) + 3, g);
            }
            (None, stats)
        }
    });
    collect_results(results)
}

/// Atom window using the device's exact neighbor-index halo.
fn atom_window_exact(dec: &DaceDecomp, j: usize, halo: usize, na: usize) -> std::ops::Range<usize> {
    let r = dec.atoms.range(j);
    r.start.saturating_sub(halo)..(r.end + halo).min(na)
}

/// The geometry of one `(TE, TA)` tile: a pure function of the tiling
/// and the unit id, never of who owns the unit.
#[derive(Clone)]
struct TileGeom {
    /// Energy rows including the ±Nω sideband halo.
    e_halo: std::ops::Range<usize>,
    /// Atom columns including the neighbor-index window.
    a_win: std::ops::Range<usize>,
    /// Owned energy rows (no halo).
    my_e: std::ops::Range<usize>,
    /// Owned atom columns (no halo).
    my_a: std::ops::Range<usize>,
}

impl TileGeom {
    /// Elements of one halo'd `G≷` tensor, `[a_win][k][e_halo][nn]`.
    fn g_len(&self, p: &SimParams) -> usize {
        self.a_win.len() * p.nkz * self.e_halo.len() * p.norb * p.norb
    }
    /// Elements of one `D̃≷` window, `[q][ω][a_win][nb·9]`.
    fn d_len(&self, p: &SimParams) -> usize {
        p.nqz * p.nw * self.a_win.len() * p.nb * N3D * N3D
    }
}

fn tile_geom(dec: &DaceDecomp, p: &SimParams, halo: usize, unit: usize) -> TileGeom {
    let (ti, tj) = dec.coords(unit);
    TileGeom {
        e_halo: dec.energy_halo(ti, p.nw),
        a_win: atom_window_exact(dec, tj, halo, p.na),
        my_e: dec.energy.range(ti),
        my_a: dec.atoms.range(tj),
    }
}

/// The energies of a GF-layout chunk that fall inside a tile's energy halo.
fn halo_energies(chunk: &std::ops::Range<usize>, geom: &TileGeom) -> std::ops::Range<usize> {
    chunk.start.max(geom.e_halo.start)..chunk.end.min(geom.e_halo.end)
}

/// Pack a GF-layout energy chunk's share of a tile's energy halo, over the
/// tile's atom window: `[tensor][e][kz][a][nn]`.
fn pack_g_halo(
    ctx: &SseDistContext<'_>,
    chunk: std::ops::Range<usize>,
    dst: &TileGeom,
    nn: usize,
) -> Vec<Complex64> {
    let es = halo_energies(&chunk, dst);
    let mut buf = Vec::with_capacity(2 * es.len() * ctx.p.nkz * dst.a_win.len() * nn);
    for g in [ctx.g_lesser, ctx.g_greater] {
        for e in es.clone() {
            pack_g_slice(&mut buf, g, ctx.p.nkz, e, dst.a_win.clone());
        }
    }
    buf
}

/// Unpack one [`pack_g_halo`] message straight into the SSE kernel's
/// layout `[tensor][a_win][k][e_halo][nn]` (the `g` of an
/// [`sse::dace::SseView`]): the data-layout transformation of Fig. 10c
/// happens here, once per message, not as a per-tile permute.
fn unpack_g_halo(
    p: &SimParams,
    chunk: std::ops::Range<usize>,
    geom: &TileGeom,
    buf: &[Complex64],
    g_local: &mut [Vec<Complex64>; 2],
    nn: usize,
) {
    let eh_len = geom.e_halo.len();
    let aw_len = geom.a_win.len();
    let mut pos = 0;
    for tensor in g_local.iter_mut() {
        for e in halo_energies(&chunk, geom) {
            let el = e - geom.e_halo.start;
            for k in 0..p.nkz {
                for al in 0..aw_len {
                    let off = ((al * p.nkz + k) * eh_len + el) * nn;
                    tensor[off..off + nn].copy_from_slice(&buf[pos..pos + nn]);
                    pos += nn;
                }
            }
        }
    }
    assert_eq!(pos, buf.len(), "unpack must consume the message");
}

// ---------------------------------------------------------------------------
// The DaCe CA scheme: the (TE, TA) tiling over an arbitrary survivor set.
// ---------------------------------------------------------------------------

/// Message tags for the unrolled elastic collectives. Each logical channel
/// gets its own tag namespace so the strict tag-equality assert in
/// [`crate::comm`] doubles as a protocol-order checker.
fn tag_a2a1(procs: usize, u_src: usize, u_dst: usize) -> u64 {
    (1 << 34) | (u_src * procs + u_dst) as u64
}
fn tag_a2a2(u_dst: usize) -> u64 {
    (1 << 35) | u_dst as u64
}
fn tag_pi(procs: usize, qw: usize, u: usize) -> u64 {
    (1 << 45) | ((qw * procs + u) as u64 * 2)
}
fn tag_gather(u: usize) -> u64 {
    (1 << 50) | (u as u64 * 2)
}

/// Everything one work unit's compute produces: the Σ≷ tile plus the Π≷
/// partial slices for every `(q, ω)` round, and the measured times.
struct UnitOut {
    /// Σ≷ as `[a_local][k][e_local][nn]`, lesser then greater.
    sig: [Vec<Complex64>; 2],
    /// Per `q·Nω + ω`, ascending: the `my_a` rows the round's Π owner
    /// accumulates.
    pi_slices: Vec<(Vec<Complex64>, Vec<Complex64>)>,
    /// Thread CPU seconds of the compute (wall seconds where the thread
    /// clock is unavailable).
    secs: f64,
    /// Start and wall duration (ns) of the compute, for the trace span.
    t0: std::time::Instant,
    wall_ns: u64,
}

/// One survivor's return from the elastic rank body.
struct ElasticRankOut {
    assembled: Option<(ElectronSelfEnergy, PhononSelfEnergy)>,
    /// (bytes sent, bytes received) during the SSE exchange proper.
    bytes: (u64, u64),
    /// Thread CPU seconds spent computing tiles.
    busy_secs: f64,
    /// `(unit, measured seconds)` for every unit this rank owns.
    unit_secs: Vec<(usize, f64)>,
}

/// Compute one tile end to end with the serial DaCe kernels on the tile's
/// view: Σ≷ per owned atom and the Π≷ partial of every `(a, slot)` pair,
/// spread over the slices of the `(q, ω)` rounds; timed. `hb` is
/// ticked before every kernel call so a long compute keeps announcing
/// liveness to the failure detector. Pure in its inputs, so the results do
/// not depend on which rank computes the unit.
fn compute_unit_tile(
    ctx: &SseDistContext<'_>,
    geom: &TileGeom,
    g: &[Vec<Complex64>; 2],
    d: &[Vec<Complex64>; 2],
    unit: usize,
    hb: &dyn Fn(),
) -> UnitOut {
    let p = ctx.p;
    let pi_len = (p.nb + 1) * N3D * N3D;
    // Unit attribution for journal events emitted while this tile
    // computes (heartbeat timeouts, quarantines).
    qt_telemetry::recorder::set_unit(unit as i64);
    let t0 = std::time::Instant::now();
    let cpu0 = qt_telemetry::cputime::thread_cpu_secs();
    let view = sse::dace::SseView {
        e_out: geom.my_e.clone(),
        e_halo: geom.e_halo.clone(),
        a_win: geom.a_win.clone(),
        g: [&g[0], &g[1]],
        d: [&d[0], &d[1]],
    };
    let sig_len = p.nkz * geom.my_e.len() * p.norb * p.norb;
    let mut sig = [0, 1].map(|_| vec![Complex64::ZERO; geom.my_a.len() * sig_len]);
    let slice = vec![Complex64::ZERO; geom.my_a.len() * pi_len];
    let mut pi_slices = vec![(slice.clone(), slice); p.nqz * p.nw];
    for (al, a) in geom.my_a.clone().enumerate() {
        hb();
        let [sig_l, sig_g] = &mut sig;
        let rows = al * sig_len..(al + 1) * sig_len;
        sse::dace::sigma_atom(ctx, &view, a, [&mut sig_l[rows.clone()], &mut sig_g[rows]]);
        for slot in 0..p.nb {
            hb();
            let Some((t_l, t_g)) = sse::dace::pi_pair(ctx, &view, a, slot) else {
                continue;
            };
            for (qw, (out_l, out_g)) in pi_slices.iter_mut().enumerate() {
                let (q, w) = (qw / p.nw, qw % p.nw);
                for (t, out) in [(&t_l, out_l), (&t_g, out_g)] {
                    for i in 0..N3D {
                        for j in 0..N3D {
                            let v = t[(i * p.nqz + q, j * p.nw + w)];
                            out[al * pi_len + (slot * N3D + i) * N3D + j] += v;
                            out[al * pi_len + (p.nb * N3D + i) * N3D + j] -= v;
                        }
                    }
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    // Cost in thread CPU time: immune to preemption on oversubscribed
    // hosts, so the cost model and the imbalance metric stay honest even
    // when the thread world time-slices on few cores. The trace keeps the
    // wall span (that is what a trace viewer lays out).
    let secs = qt_telemetry::cputime::thread_cpu_since(cpu0, wall);
    qt_telemetry::recorder::set_unit(-1);
    UnitOut {
        sig,
        pi_slices,
        secs,
        t0,
        wall_ns: (wall * 1e9) as u64,
    }
}

/// Success: the assembled Σ≷/Π≷ plus the survivor world's measured traffic
/// (indexed by survivor slot). Failure: the *original* ids of ranks newly
/// confirmed dead — the supervisor re-tiles around them and retries. The
/// list can be empty when every accusation was exonerated (survivors that
/// exited early after detecting a death look dead to peers mid-send); the
/// supervisor then simply retries on the unchanged tiling.
pub type ElasticExchange = Result<(ElectronSelfEnergy, PhononSelfEnergy, CommStats), Vec<usize>>;

/// Run the DaCe communication-avoiding scheme once over the survivors of
/// `tiling`. Each survivor executes every work unit the tiling assigns to
/// it, so Σ≷/Π≷ are bitwise stable across any survivor set or owner map.
/// Under every policy whose world carries no fault plan, each survivor
/// slot sends exactly [`crate::volume::dace_elastic_rank_sent_bytes`]
/// ([`crate::volume::dace_rank_sent_bytes`] on the full tiling). One
/// attempt, no recovery: a death comes back as `Err` for the supervision
/// loop of [`crate::DistSse`] to re-tile around.
pub fn ca_exchange(
    ctx: &SseDistContext<'_>,
    tiling: &ElasticTiling,
    policy: &ElasticPolicy,
) -> ElasticExchange {
    let _span = qt_telemetry::Span::enter_global("comm/dace_scheme");
    let body = |comm: ThreadComm| elastic_rank_body(ctx, tiling, policy, comm);
    let results = run_elastic_world(tiling.survivors.clone(), policy.faults.clone(), body);
    collect_elastic(tiling, results)
}

/// [`ca_exchange`] on the full `te × ta` tiling under the default policy,
/// supervised: a false accusation on an oversubscribed host costs a retry,
/// as it does in [`crate::DistSse`]. Kept for `qt-perf`, which pins this
/// name.
pub fn dace_scheme(
    ctx: &SseDistContext<'_>,
    te: usize,
    ta: usize,
) -> (ElectronSelfEnergy, PhononSelfEnergy, CommStats) {
    let tiling = ElasticTiling::new(ctx.p, te, ta);
    crate::DistSse::new(tiling, ElasticPolicy::default())
        .exchange(ctx)
        .expect("a fault-free world completes the exchange")
}

/// [`ca_exchange`] with only the failure detector chosen. Kept for
/// `qt-perf`, which pins this name.
pub fn elastic_sse_exchange(
    ctx: &SseDistContext<'_>,
    tiling: &ElasticTiling,
    live: &LivenessConfig,
) -> ElasticExchange {
    let policy = ElasticPolicy {
        live: *live,
        ..Default::default()
    };
    ca_exchange(ctx, tiling, &policy)
}

fn collect_elastic(
    tiling: &ElasticTiling,
    results: Vec<Result<ElasticRankOut, CommError>>,
) -> ElasticExchange {
    let survivors = &tiling.survivors;
    if results.iter().all(|r| r.is_ok()) {
        let ok: Vec<ElasticRankOut> = results.into_iter().map(|r| r.expect("no errors")).collect();
        let mut unit_secs = vec![0.0; tiling.procs()];
        for r in &ok {
            for &(u, s) in &r.unit_secs {
                unit_secs[u] = s;
            }
        }
        let balance = BalanceStats {
            rank_busy_secs: ok.iter().map(|r| r.busy_secs).collect(),
            unit_secs,
        };
        let stats = CommStats::from_rank_bytes(ok.iter().map(|r| r.bytes), Some(balance));
        let (sigma, pi) = ok
            .into_iter()
            .find_map(|r| r.assembled)
            .expect("root produced the assembled Σ and Π");
        return Ok((sigma, pi, stats));
    }
    // Cross-check the accusations against who actually reported back. A
    // slot that returned at all — Ok or a typed detection error — is
    // alive: its endpoint may have vanished because it *exited early*
    // after detecting a death, and peers' failed sends to it must not
    // convict it. Only a rank silenced by the fault schedule (`Killed`)
    // is really gone. An all-exonerated round yields an empty suspect
    // list: the supervisor retries on the unchanged tiling (bounded by
    // its retile budget).
    let exonerated: Vec<usize> = survivors
        .iter()
        .zip(&results)
        .filter(|(_, r)| !matches!(r, Err(CommError::Killed { .. })))
        .map(|(&id, _)| id)
        .collect();
    let mut suspects: Vec<usize> = results
        .iter()
        .filter_map(|r| r.as_ref().err().map(|e| e.suspect()))
        .filter(|s| !exonerated.contains(s))
        .collect();
    suspects.sort_unstable();
    suspects.dedup();
    Err(suspects)
}

/// One survivor's share of the CA scheme. The rank executes every work
/// unit `tiling` assigns to its original identity, running the per-tile
/// protocol once per unit; the collectives are unrolled into
/// explicit point-to-point messages walked in one canonical global order
/// (lexicographic in the unit ids), so any subset of survivors agrees on
/// per-pair FIFO delivery and the strict tag asserts hold. Every wait goes
/// through the `try_*` primitives: a dead peer surfaces as a typed
/// [`CommError`] instead of a hang.
fn elastic_rank_body(
    ctx: &SseDistContext<'_>,
    tiling: &ElasticTiling,
    policy: &ElasticPolicy,
    comm: ThreadComm,
) -> Result<ElasticRankOut, CommError> {
    let live = &policy.live;
    let p = ctx.p;
    let nn = p.norb * p.norb;
    let dec = &tiling.dec;
    let procs = tiling.procs();
    let halo = ctx.dev.max_neighbor_index_distance();
    let gf_dec = OmenDecomp::new(p, procs); // initial GF-phase layout (per unit)
    let me = comm.identity();
    let my_units = tiling.units_of(me);
    let slot = |u: usize| tiling.owner_slot(u);
    let geoms: Vec<TileGeom> = (0..procs).map(|u| tile_geom(dec, p, halo, u)).collect();
    let hb = || comm.heartbeat();
    // ---- Exchange #1 (unrolled all-to-all): G≷ halos per (src GF chunk,
    // dst tile) pair. Self-sends ride the self-channel for free, like an
    // alltoallv's.
    for &u_src in &my_units {
        let chunk = gf_dec.energy.range(u_src);
        for (u_dst, geom) in geoms.iter().enumerate() {
            let buf = pack_g_halo(ctx, chunk.clone(), geom, nn);
            comm.try_send(slot(u_dst), tag_a2a1(procs, u_src, u_dst), buf)?;
        }
    }
    let mut g_local: Vec<[Vec<Complex64>; 2]> = my_units
        .iter()
        .map(|&u| [0, 1].map(|_| vec![Complex64::ZERO; geoms[u].g_len(p)]))
        .collect();
    for u_src in 0..procs {
        let chunk = gf_dec.energy.range(u_src);
        for (mi, &u_dst) in my_units.iter().enumerate() {
            let buf = comm.try_recv(slot(u_src), tag_a2a1(procs, u_src, u_dst), live)?;
            unpack_g_halo(p, chunk.clone(), &geoms[u_dst], &buf, &mut g_local[mi], nn);
        }
    }
    // ---- Exchange #2: D̃≷ windows. One message per (src slot, dst tile):
    // all the (q, ω) points whose owning unit belongs to the source, over
    // the destination tile's atom window, in ascending (q, ω) order.
    let d_len = p.nb * N3D * N3D;
    let my_qw: Vec<(usize, usize)> = (0..p.nqz)
        .flat_map(|q| (0..p.nw).map(move |w| (q, w)))
        .filter(|&(q, w)| tiling.owner[(q * p.nw + w) % procs] == me)
        .collect();
    for (u_dst, geom) in geoms.iter().enumerate() {
        let aw = geom.a_win.clone();
        let mut buf = Vec::new();
        for d in [ctx.d_lesser_pre, ctx.d_greater_pre] {
            for &(q, w) in &my_qw {
                for a in aw.clone() {
                    buf.extend_from_slice(d.inner(&[q, w, a]));
                }
            }
        }
        comm.try_send(slot(u_dst), tag_a2a2(u_dst), buf)?;
    }
    let mut d_local: Vec<[Vec<Complex64>; 2]> = my_units
        .iter()
        .map(|&u| [0, 1].map(|_| vec![Complex64::ZERO; geoms[u].d_len(p)]))
        .collect();
    for (mi, &u_dst) in my_units.iter().enumerate() {
        let aw_len = geoms[u_dst].a_win.len();
        for src_slot in 0..comm.size() {
            let buf = comm.try_recv(src_slot, tag_a2a2(u_dst), live)?;
            let src_id = comm.identity_of(src_slot);
            let mut pos = 0;
            for tensor in d_local[mi].iter_mut() {
                for q in 0..p.nqz {
                    for w in 0..p.nw {
                        if tiling.owner[(q * p.nw + w) % procs] != src_id {
                            continue;
                        }
                        for al in 0..aw_len {
                            let off = ((q * p.nw + w) * aw_len + al) * d_len;
                            tensor[off..off + d_len].copy_from_slice(&buf[pos..pos + d_len]);
                            pos += d_len;
                        }
                    }
                }
            }
            assert_eq!(pos, buf.len());
        }
    }
    // ---- Compute phase: Σ≷ tile + Π≷ partial slices per owned unit,
    // timed per unit and traced on this rank's lane. ----
    let mut outs = Vec::with_capacity(my_units.len());
    let mut busy_secs = 0.0;
    for (mi, &u) in my_units.iter().enumerate() {
        let out = compute_unit_tile(ctx, &geoms[u], &g_local[mi], &d_local[mi], u, &hb);
        qt_telemetry::trace::record_slice("sse/unit", Some((me, u)), out.t0, out.wall_ns);
        busy_secs += out.secs;
        outs.push(out);
    }
    let unit_secs: Vec<(usize, f64)> = my_units
        .iter()
        .zip(&outs)
        .map(|(&u, o)| (u, o.secs))
        .collect();
    // ---- Π≷ partials, reduced to each (q, ω) owner. The owner accumulates
    // in ascending *unit* order whoever holds the units, so the totals are
    // bitwise identical across survivor sets and owner maps. ----
    let pi_len = (p.nb + 1) * N3D * N3D;
    let pi_scale = c64(sse::pi_scale(p, ctx.grids), 0.0);
    let mut pi_owned: PiOwned = Vec::new();
    for q in 0..p.nqz {
        for w in 0..p.nw {
            let qw = q * p.nw + w;
            let owner_id = tiling.owner[qw % procs];
            for (out, &u) in outs.iter_mut().zip(&my_units) {
                let (sl_l, sl_g) = std::mem::take(&mut out.pi_slices[qw]);
                let tag = tag_pi(procs, qw, u);
                comm.try_send(tiling.slot_of(owner_id), tag, sl_l)?;
                comm.try_send(tiling.slot_of(owner_id), tag + 1, sl_g)?;
            }
            if owner_id == me {
                let mut tot_l = vec![Complex64::ZERO; p.na * pi_len];
                let mut tot_g = vec![Complex64::ZERO; p.na * pi_len];
                for u in 0..procs {
                    let src_a = dec.atoms.range(dec.coords(u).1);
                    let tag = tag_pi(procs, qw, u);
                    let rl = comm.try_recv(slot(u), tag, live)?;
                    let rg = comm.try_recv(slot(u), tag + 1, live)?;
                    for (dst, part) in [(&mut tot_l, rl), (&mut tot_g, rg)] {
                        for (o, v) in dst[src_a.start * pi_len..src_a.end * pi_len]
                            .iter_mut()
                            .zip(part)
                        {
                            *o += v;
                        }
                    }
                }
                pi_owned.push(((q, w), scaled(tot_l, pi_scale), scaled(tot_g, pi_scale)));
            }
        }
    }
    comm.try_barrier(live)?;
    // Capture SSE-phase traffic before the result gather adds its own
    // bytes; the second barrier keeps the snapshot consistent.
    let stats = (comm.bytes_sent(), comm.bytes_received());
    comm.try_barrier(live)?;
    // ---- Gather tiles to the root (survivor slot 0). ----
    for (out, &u) in outs.into_iter().zip(&my_units) {
        let [sig_l, sig_g] = out.sig;
        comm.try_send(0, tag_gather(u), sig_l)?;
        comm.try_send(0, tag_gather(u) + 1, sig_g)?;
    }
    let assembled = if comm.rank() == 0 {
        let mut out = ElectronSelfEnergy::zeros(p);
        for (u, geom) in geoms.iter().enumerate() {
            let bufs = [
                comm.try_recv(slot(u), tag_gather(u), live)?,
                comm.try_recv(slot(u), tag_gather(u) + 1, live)?,
            ];
            for (t, buf) in bufs.iter().enumerate() {
                let tensor = if t == 0 {
                    &mut out.lesser
                } else {
                    &mut out.greater
                };
                for (al, a) in geom.my_a.clone().enumerate() {
                    for k in 0..p.nkz {
                        for (el, e) in geom.my_e.clone().enumerate() {
                            let off = ((al * p.nkz + k) * geom.my_e.len() + el) * nn;
                            tensor
                                .inner_mut(&[k, e, a])
                                .copy_from_slice(&buf[off..off + nn]);
                        }
                    }
                }
            }
        }
        let mut pi_out = PhononSelfEnergy::zeros(p);
        let mut store = |(q, w): (usize, usize), l: Vec<Complex64>, g: Vec<Complex64>| {
            pi_out.lesser.inner_mut(&[q, w]).copy_from_slice(&l);
            pi_out.greater.inner_mut(&[q, w]).copy_from_slice(&g);
        };
        for ((q, w), l, g) in pi_owned {
            store((q, w), l, g);
        }
        for src in 1..comm.size() {
            let count = comm.try_recv(src, 1 << 52, live)?[0].re as usize;
            for _ in 0..count {
                let head = comm.try_recv(src, (1 << 52) + 1, live)?;
                let (q, w) = (head[0].re as usize, head[1].re as usize);
                let l = comm.try_recv(src, (1 << 52) + 2, live)?;
                let g = comm.try_recv(src, (1 << 52) + 3, live)?;
                store((q, w), l, g);
            }
        }
        Some((out, pi_out))
    } else {
        comm.try_send(0, 1 << 52, vec![c64(pi_owned.len() as f64, 0.0)])?;
        for ((q, w), l, g) in pi_owned {
            comm.try_send(
                0,
                (1 << 52) + 1,
                vec![c64(q as f64, 0.0), c64(w as f64, 0.0)],
            )?;
            comm.try_send(0, (1 << 52) + 2, l)?;
            comm.try_send(0, (1 << 52) + 3, g)?;
        }
        None
    };
    Ok(ElasticRankOut {
        assembled,
        bytes: stats,
        busy_secs,
        unit_secs,
    })
}

type RankResult = (Option<(ElectronSelfEnergy, PhononSelfEnergy)>, (u64, u64));

impl CommStats {
    /// Totals from each rank's `(sent, received)` bytes of the SSE phase.
    fn from_rank_bytes(
        bytes: impl Iterator<Item = (u64, u64)>,
        balance: Option<BalanceStats>,
    ) -> Self {
        let (rank_sent, rank_recv): (Vec<u64>, Vec<u64>) = bytes.unzip();
        CommStats {
            world_bytes: rank_sent.iter().sum(),
            max_rank_recv: rank_recv.iter().copied().max().unwrap_or(0),
            rank_sent,
            rank_recv,
            balance,
        }
    }
}

fn collect_results(results: Vec<RankResult>) -> (ElectronSelfEnergy, PhononSelfEnergy, CommStats) {
    let stats = CommStats::from_rank_bytes(results.iter().map(|r| r.1), None);
    let (sigma, pi) = results
        .into_iter()
        .find_map(|(s, _)| s)
        .expect("root produced the assembled Σ and Π");
    (sigma, pi, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_core::device::Device;
    use qt_core::gf::{self, GfConfig};
    use qt_core::grids::Grids;
    use qt_core::hamiltonian::{ElectronModel, PhononModel};
    use qt_core::sse::SseVariant;

    struct Fx {
        p: SimParams,
        dev: Device,
        grids: Grids,
        dh: Tensor,
        gl: Tensor,
        gg: Tensor,
        dl: Tensor,
        dg: Tensor,
    }

    fn fixture() -> Fx {
        fixture_with(Device::new)
    }

    /// A device with one heavy contact slab and a sparse channel: the
    /// per-tile SSE cost is strongly atom-skewed.
    fn skewed_fixture() -> Fx {
        fixture_with(|p| Device::skewed(p, 1, 1))
    }

    fn fixture_with(make_dev: impl Fn(&SimParams) -> Device) -> Fx {
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 12,
            nw: 2,
            na: 12,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        let dev = make_dev(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        let cfg = GfConfig::default();
        let egf = gf::electron_gf_phase(
            &dev,
            &em,
            &p,
            &grids,
            &gf::ElectronSelfEnergy::zeros(&p),
            &cfg,
        )
        .unwrap();
        let pgf = gf::phonon_gf_phase(
            &dev,
            &pm,
            &p,
            &grids,
            &gf::PhononSelfEnergy::zeros(&p),
            &cfg,
        )
        .unwrap();
        let (dl, dg) = sse::preprocess_d(&dev, &p, &pgf);
        Fx {
            dh: em.dh_tensor(&dev),
            gl: egf.g_lesser,
            gg: egf.g_greater,
            dl,
            dg,
            p,
            dev,
            grids,
        }
    }

    fn ctx(fx: &Fx) -> SseDistContext<'_> {
        SseDistContext {
            p: &fx.p,
            dev: &fx.dev,
            grids: &fx.grids,
            dh: &fx.dh,
            g_lesser: &fx.gl,
            g_greater: &fx.gg,
            d_lesser_pre: &fx.dl,
            d_greater_pre: &fx.dg,
        }
    }

    fn serial_results(fx: &Fx) -> (ElectronSelfEnergy, PhononSelfEnergy) {
        let inputs = ctx(fx);
        (
            sse::sigma(&inputs, SseVariant::Omen),
            sse::pi(&inputs, SseVariant::Reference),
        )
    }

    fn assert_close(name: &str, serial: &qt_linalg::Tensor, dist: &qt_linalg::Tensor) {
        let rel = serial.max_abs_diff(dist) / serial.norm().max(1e-30);
        assert!(rel < 1e-10, "{name}: rel {rel}");
    }

    #[test]
    fn omen_scheme_matches_serial() {
        let fx = fixture();
        let (serial, serial_pi) = serial_results(&fx);
        for procs in [1usize, 2, 4] {
            let (dist, dist_pi, stats) = omen_scheme(&ctx(&fx), procs);
            assert_close("sigma lesser", &serial.lesser, &dist.lesser);
            assert_close("sigma greater", &serial.greater, &dist.greater);
            assert_close("pi lesser", &serial_pi.lesser, &dist_pi.lesser);
            assert_close("pi greater", &serial_pi.greater, &dist_pi.greater);
            if procs > 1 {
                assert!(stats.world_bytes > 0, "must actually communicate");
            }
        }
    }

    /// The tilings with a committed fingerprint, then two 6-rank worlds.
    const TILINGS: [(usize, usize); 5] = [(2, 2), (1, 3), (3, 1), (3, 2), (2, 3)];

    #[test]
    fn dace_scheme_matches_serial() {
        for fx in [fixture(), skewed_fixture()] {
            // The independent oracle, then the serial call of the very
            // kernel the tiles run.
            let dace = (
                sse::sigma(&ctx(&fx), SseVariant::Dace),
                sse::pi(&ctx(&fx), SseVariant::Dace),
            );
            let serials = [serial_results(&fx), dace];
            for (te, ta) in TILINGS {
                let (dist, dist_pi, stats) = dace_scheme(&ctx(&fx), te, ta);
                for (serial, serial_pi) in &serials {
                    assert_close("sigma lesser", &serial.lesser, &dist.lesser);
                    assert_close("sigma greater", &serial.greater, &dist.greater);
                    assert_close("pi lesser", &serial_pi.lesser, &dist_pi.lesser);
                    assert_close("pi greater", &serial_pi.greater, &dist_pi.greater);
                }
                assert!(stats.world_bytes > 0);
            }
        }
    }

    #[test]
    fn dace_moves_less_data() {
        let fx = fixture();
        let (_, _, omen_stats) = omen_scheme(&ctx(&fx), 4);
        let (_, _, dace_stats) = dace_scheme(&ctx(&fx), 2, 2);
        // Even at this tiny scale the all-to-all redistribution must beat
        // the per-round replication of G.
        assert!(
            dace_stats.world_bytes < omen_stats.world_bytes,
            "dace {} vs omen {}",
            dace_stats.world_bytes,
            omen_stats.world_bytes
        );
    }

    #[test]
    fn omen_rank_volumes_match_closed_form_exactly() {
        // The per-rank byte model in `volume` must reproduce the measured
        // sends *to the byte* for every world size.
        let fx = fixture();
        for procs in [2usize, 3, 4, 6] {
            let (_, _, stats) = omen_scheme(&ctx(&fx), procs);
            let model = crate::volume::omen_rank_sent_bytes(&fx.p, procs);
            assert_eq!(stats.rank_sent, model, "procs={procs}");
            assert_eq!(
                stats.rank_sent.iter().sum::<u64>(),
                stats.world_bytes,
                "world total must be the sum of per-rank sends"
            );
            assert_eq!(
                stats.world_bytes,
                crate::volume::omen_measured_bytes(&fx.p, procs)
            );
        }
    }

    #[test]
    fn dace_rank_volumes_match_closed_form_exactly() {
        for fx in [fixture(), skewed_fixture()] {
            let halo = fx.dev.max_neighbor_index_distance();
            for (te, ta) in TILINGS {
                let (_, _, stats) = dace_scheme(&ctx(&fx), te, ta);
                let model = crate::volume::dace_rank_sent_bytes(&fx.p, te, ta, halo);
                assert_eq!(stats.rank_sent, model, "te={te} ta={ta}");
                assert_eq!(stats.rank_sent.iter().sum::<u64>(), stats.world_bytes);
                assert_eq!(
                    stats.world_bytes,
                    crate::volume::dace_measured_bytes(&fx.p, te, ta, halo)
                );
            }
        }
    }

    fn assert_bitwise(name: &str, a: &qt_linalg::Tensor, b: &qt_linalg::Tensor) {
        assert_eq!(a.as_slice().len(), b.as_slice().len(), "{name}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{name}: element {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    /// FNV-1a over the IEEE bits of every element, in storage order.
    fn fingerprint(t: &qt_linalg::Tensor) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for z in t.as_slice() {
            for w in [z.re.to_bits(), z.im.to_bits()] {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// One row of [`PARENT`]: `[Σ<, Σ>, Π<, Π>]` as element fingerprints
    /// and as each tensor's norm (compared by its bits; the shortest
    /// decimal that round-trips), plus the per-rank traffic.
    struct Golden {
        skewed: bool,
        tiling: (usize, usize),
        fp: [u64; 4],
        norm: [f64; 4],
        rank_sent: &'static [u64],
        rank_recv: &'static [u64],
    }

    /// `rank_sent`/`rank_recv`: what `dace_scheme` returned at commit
    /// 048c86a, the last one to run the classic rank body (collective
    /// `alltoallv`s, one tile per rank) — untouched since, the proof that
    /// the exchange still moves the same bytes. `fp`/`norm`: re-recorded
    /// once, at the commit that made a tile a view of `sse::dace` (batched
    /// summation order). Π≷ depends on the tiling: the owner sums tile
    /// partials in unit order. Σ≷ does not: every product of the tile
    /// kernel is a shared-B batch that `gemm` sums in one order at every
    /// batch length, so every row has the Σ≷ bits of the serial
    /// `sse::dace::sigma`, at any `Norb`.
    #[rustfmt::skip]
    const PARENT: [Golden; 6] = [
        Golden { skewed: false, tiling: (2, 2),
            fp: [0xd68092ffc4bb9deb, 0x009c3cbcc31291b2, 0x48dc4628cb966ea0, 0xea7b26834f0de3b6],
            norm: [3.140495315565784, 2.431307388823674, 2.896858010307181e-4, 1.802198094486058e-1],
            rank_sent: &[54336, 64576, 64576, 54336], rank_recv: &[59456, 59456, 59456, 59456] },
        Golden { skewed: false, tiling: (1, 3),
            fp: [0xd68092ffc4bb9deb, 0x009c3cbcc31291b2, 0xcc216f48de038c3e, 0x185cb11381ec6e1b],
            norm: [3.140495315565784, 2.431307388823674, 2.89685801030718e-4, 1.802198094486058e-1],
            rank_sent: &[64256, 44032, 51584], rank_recv: &[48640, 64896, 46336] },
        Golden { skewed: false, tiling: (3, 1),
            fp: [0xd68092ffc4bb9deb, 0x009c3cbcc31291b2, 0x0e44af739ac3f607, 0x9ba1a54b480ec274],
            norm: [3.140495315565784, 2.431307388823674, 2.896858010307181e-4, 1.802198094486058e-1],
            rank_sent: &[75264, 74496, 68352], rank_recv: &[82176, 71040, 64896] },
        Golden { skewed: true, tiling: (2, 2),
            fp: [0x25b3b50c25405e81, 0xa1a4425be9f64eb1, 0xcdbd03db0a84237d, 0x13849c730321b4a2],
            norm: [1.1183246648792402, 9.15196737886865e-1, 6.652497859098003e-6, 4.953303754054951e-2],
            rank_sent: &[50976, 60192, 60192, 50976], rank_recv: &[55584, 55584, 55584, 55584] },
        Golden { skewed: true, tiling: (1, 3),
            fp: [0x25b3b50c25405e81, 0xa1a4425be9f64eb1, 0x3304eb2f6771519a, 0xa6deae3509c057a2],
            norm: [1.1183246648792402, 9.15196737886865e-1, 6.652497859098002e-6, 4.953303754054952e-2],
            rank_sent: &[56000, 40256, 45920], rank_recv: &[44864, 55616, 41696] },
        Golden { skewed: true, tiling: (3, 1),
            fp: [0x25b3b50c25405e81, 0xa1a4425be9f64eb1, 0xb79f98a88636041a, 0x237db084d5a1fc12],
            norm: [1.1183246648792402, 9.15196737886865e-1, 6.652497859098003e-6, 4.953303754054952e-2],
            rank_sent: &[75264, 74496, 68352], rank_recv: &[82176, 71040, 64896] },
    ];

    /// The parent's `distributed_iteration` on the uniform fixture's device:
    /// `current` 4.164068333555769e-2 at every tiling, `sse_bytes` the
    /// row's world total.
    const PARENT_CURRENT_BITS: u64 = 0x3fa551ed7a37f7ce;

    #[test]
    fn ca_exchange_moves_the_parents_bytes_and_keeps_its_pinned_bits() {
        let fixtures = [fixture(), skewed_fixture()];
        for row in &PARENT {
            let fx = &fixtures[row.skewed as usize];
            let (te, ta) = row.tiling;
            let what = format!("skewed={} tiling={:?}", row.skewed, row.tiling);
            let (sigma, pi, stats) = dace_scheme(&ctx(fx), te, ta);
            let got = [&sigma.lesser, &sigma.greater, &pi.lesser, &pi.greater];
            assert_eq!(got.map(fingerprint), row.fp, "{what}: elements");
            let serial = sse::sigma(&ctx(fx), SseVariant::Dace);
            assert_bitwise("serial dace sigma lesser", &serial.lesser, &sigma.lesser);
            assert_bitwise("serial dace sigma greater", &serial.greater, &sigma.greater);
            assert_eq!(
                got.map(|t| t.norm().to_bits()),
                row.norm.map(f64::to_bits),
                "{what}: norms"
            );
            assert_eq!(stats.rank_sent, row.rank_sent, "{what}: sent");
            assert_eq!(stats.rank_recv, row.rank_recv, "{what}: received");
            let world: u64 = row.rank_sent.iter().sum();
            assert_eq!(stats.world_bytes, world, "{what}: world");
            if !row.skewed {
                let dist = crate::runner::distributed_iteration(
                    &fx.p,
                    &fx.dev,
                    &ElectronModel::for_params(&fx.p),
                    &PhononModel::default(),
                    &fx.grids,
                    &GfConfig::default(),
                    te,
                    ta,
                )
                .unwrap();
                assert_eq!(dist.current.to_bits(), PARENT_CURRENT_BITS, "{what}");
                assert_eq!(dist.sse_bytes, world, "{what}: iteration bytes");
            }
        }
    }

    #[test]
    fn tile_compute_ticks_the_heartbeat_for_every_owned_atom() {
        // The skewed device's last tile: atoms with a single pair each.
        let fx = skewed_fixture();
        let (p, tiling, unit) = (&fx.p, ElasticTiling::new(&fx.p, 2, 2), 3);
        let geom = tile_geom(&tiling.dec, p, fx.dev.max_neighbor_index_distance(), unit);
        // Liveness does not depend on the data: zero halos will do.
        let g = [0, 1].map(|_| vec![Complex64::ZERO; geom.g_len(p)]);
        let d = [0, 1].map(|_| vec![Complex64::ZERO; geom.d_len(p)]);
        let ticks = std::cell::Cell::new(0);
        let hb = || ticks.set(ticks.get() + 1);
        compute_unit_tile(&ctx(&fx), &geom, &g, &d, unit, &hb);
        assert!(ticks.get() >= geom.my_a.len(), "{} ticks", ticks.get());
    }

    #[test]
    fn elastic_shrunken_worlds_still_match_serial() {
        let fx = fixture();
        let (serial, serial_pi) = serial_results(&fx);
        let policy = ElasticPolicy::default();
        // Kill ranks out of a 2×2 tiling and re-run on the survivors: the
        // answer must not move, all the way down to a single survivor.
        let mut tiling = ElasticTiling::new(&fx.p, 2, 2);
        let full = ca_exchange(&ctx(&fx), &tiling, &policy).unwrap();
        for dead in [1usize, 3, 0] {
            tiling.remove_rank(dead);
            let (dist, dist_pi, _) = ca_exchange(&ctx(&fx), &tiling, &policy).unwrap();
            assert_close("sigma lesser", &serial.lesser, &dist.lesser);
            assert_close("sigma greater", &serial.greater, &dist.greater);
            assert_close("pi lesser", &serial_pi.lesser, &dist_pi.lesser);
            assert_close("pi greater", &serial_pi.greater, &dist_pi.greater);
            // Stronger: shrinking the world must not perturb a single bit.
            assert_bitwise("sigma lesser", &full.0.lesser, &dist.lesser);
            assert_bitwise("pi greater", &full.1.greater, &dist_pi.greater);
        }
        assert_eq!(tiling.world_size(), 1);
    }

    #[test]
    fn weighted_tiling_is_bitwise_identical_and_reports_balance() {
        let fx = skewed_fixture();
        let policy = ElasticPolicy::default();
        let (te, ta) = (2usize, 2usize);
        let uniform = ElasticTiling::uniform(&fx.p, te, ta, te * ta);
        let (base, base_pi, _) = ca_exchange(&ctx(&fx), &uniform, &policy).unwrap();
        // A lopsided weight vector must move owners, not tile geometry —
        // and the observables must not move a single bit with them.
        let weighted = ElasticTiling::weighted(&fx.p, te, ta, te * ta, &[1.0, 10.0, 1.0, 1.0]);
        assert_ne!(weighted.owner, uniform.owner, "weights must move owners");
        let (dist, dist_pi, stats) = ca_exchange(&ctx(&fx), &weighted, &policy).unwrap();
        assert_bitwise("sigma lesser", &base.lesser, &dist.lesser);
        assert_bitwise("sigma greater", &base.greater, &dist.greater);
        assert_bitwise("pi lesser", &base_pi.lesser, &dist_pi.lesser);
        assert_bitwise("pi greater", &base_pi.greater, &dist_pi.greater);
        let bal = stats.balance.expect("elastic exchange measures balance");
        assert_eq!(bal.rank_busy_secs.len(), te * ta);
        assert_eq!(bal.unit_secs.len(), te * ta);
        assert!(
            bal.unit_secs.iter().all(|&s| s > 0.0),
            "{:?}",
            bal.unit_secs
        );
        assert!(bal.imbalance_ratio() >= 1.0);
    }

    #[test]
    fn elastic_measured_bytes_match_elastic_model_exactly() {
        let fx = fixture();
        let halo = fx.dev.max_neighbor_index_distance();
        let policy = ElasticPolicy::default();
        let mut tiling = ElasticTiling::new(&fx.p, 2, 2);
        for dead in [2usize, 0] {
            tiling.remove_rank(dead);
            let (_, _, stats) = ca_exchange(&ctx(&fx), &tiling, &policy).unwrap();
            let model = crate::volume::dace_elastic_rank_sent_bytes(&fx.p, halo, &tiling);
            assert_eq!(stats.rank_sent, model, "dead={dead}");
            assert_eq!(stats.rank_sent.iter().sum::<u64>(), stats.world_bytes);
        }
    }

    #[test]
    fn measured_omen_bytes_track_formula_shape() {
        // The G-replication term scales with Nqz·Nω: doubling the rounds
        // must roughly double the measured traffic.
        let fx = fixture();
        let mut p2 = fx.p;
        p2.nw = 4; // double the frequency count
        let fx2 = Fx {
            p: p2,
            dev: Device::new(&p2),
            grids: Grids::new(&p2, -1.2, 1.2),
            dh: fx.dh.clone(),
            gl: fx.gl.clone(),
            gg: fx.gg.clone(),
            dl: Tensor::zeros(&[p2.nqz, p2.nw, p2.na, p2.nb, N3D, N3D]),
            dg: Tensor::zeros(&[p2.nqz, p2.nw, p2.na, p2.nb, N3D, N3D]),
        };
        let (_, _, s1) = omen_scheme(&ctx(&fx), 4);
        let (_, _, s2) = omen_scheme(&ctx(&fx2), 4);
        let ratio = s2.world_bytes as f64 / s1.world_bytes as f64;
        assert!(
            ratio > 1.5 && ratio < 2.5,
            "doubling Nω should ~double OMEN traffic: {ratio}"
        );
    }
}
