//! The GF phase (Fig. 6, left state): solve Eq. (1) for electrons over all
//! `(kz, E)` and Eq. (2) for phonons over all `(qz, ω)`.
//!
//! Each grid point is independent (embarrassingly parallel — the paper's
//! momentum+energy MPI decomposition); here the points fan out over
//! [`qt_linalg::par`] while their block products are too small to split, and
//! run in sequence with band-split GEMMs once they are not (see
//! [`solve_points`]). The outputs are exactly the tensors the SSE phase
//! consumes:
//! `G≷[Nkz, NE, NA, Norb, Norb]` and `D≷[Nqz, Nω, NA, NB+1, 3, 3]`
//! (slot `NB` holds the diagonal `D_aa`, slots `0..NB` the neighbor pairs).

use crate::boundary::{self, BoundaryCache, BoundaryConfig, Filled, KeyHasher, Side, Slot};
use crate::device::Device;
use crate::grids::{bose, fermi, Grids};
use crate::hamiltonian::{ElectronModel, PhononModel};
use crate::health::{CoverageReport, HealthPolicy, NumericalError, QuarantinedPoint};
use crate::params::{SimParams, N3D};
use crate::rgf;
use qt_linalg::gemm::PAR_THRESHOLD;
use qt_linalg::{c64, par, workspace, BlockTridiag, Complex64, Matrix, Tensor};
use qt_telemetry::counters::{self, Counter};

/// Contact electrochemical potentials and temperature.
#[derive(Clone, Copy, Debug)]
pub struct Contacts {
    /// Left contact chemical potential (eV).
    pub mu_left: f64,
    /// Right contact chemical potential (eV).
    pub mu_right: f64,
    /// Lattice/contact temperature (K).
    pub temperature: f64,
    /// Rigid band offset of the left lead (eV): the lead surface Green's
    /// function is evaluated at `E − shift_left`, modelling a gate- or
    /// workfunction-induced band-edge shift of the contact material.
    /// Unlike `mu_*`/`temperature` (occupations, applied outside the
    /// boundary cache) this changes the memoized Σᴿ itself, so it is part
    /// of the cache identity key.
    pub shift_left: f64,
    /// Rigid band offset of the right lead (eV).
    pub shift_right: f64,
}

impl Default for Contacts {
    fn default() -> Self {
        Contacts {
            mu_left: 0.05,
            mu_right: -0.05,
            temperature: 300.0,
            shift_left: 0.0,
            shift_right: 0.0,
        }
    }
}

/// Configuration of the GF phase.
#[derive(Clone, Copy, Debug)]
pub struct GfConfig {
    /// Contact broadening η (eV): imaginary part used when solving the
    /// lead surface Green's functions.
    pub eta: f64,
    /// Broadening inside the device. Defaults to 0 so that the only
    /// dissipation channels are the contacts and the scattering
    /// self-energies — this makes the equilibrium current vanish exactly
    /// (current conservation).
    pub device_eta: f64,
    /// Broadening inside the device for the *phonon* system (relative to
    /// ω·de). Interior vibrational modes decouple from the contacts almost
    /// completely, so a small damping is needed to bound `D` at resonance
    /// and keep the Born iteration stable.
    pub phonon_device_eta: f64,
    pub boundary: BoundaryConfig,
    pub contacts: Contacts,
    /// Containment policy for per-point numerical failures (quarantine vs
    /// fail-fast, and the tolerated bad fraction).
    pub health: HealthPolicy,
    /// How RGF evaluates the off-diagonal coupling products (Table 6):
    /// all-dense GEMM or CSRMM. Defaults to `Csrmm`, the fastest on
    /// Hamiltonian couplings; both strategies give the same bits.
    pub strategy: rgf::MultiplyStrategy,
}

impl Default for GfConfig {
    fn default() -> Self {
        GfConfig {
            eta: 1e-3,
            device_eta: 0.0,
            phonon_device_eta: 5e-2,
            boundary: BoundaryConfig::default(),
            contacts: Contacts::default(),
            health: HealthPolicy::default(),
            strategy: rgf::MultiplyStrategy::Csrmm,
        }
    }
}

/// Electron scattering self-energies (diagonal per-atom blocks, §2:
/// "only the diagonal blocks of Σ are retained").
/// Shape `[Nkz, NE, NA, Norb, Norb]`.
#[derive(Clone, Debug)]
pub struct ElectronSelfEnergy {
    pub lesser: Tensor,
    pub greater: Tensor,
}

impl ElectronSelfEnergy {
    pub fn zeros(p: &SimParams) -> Self {
        let shape = [p.nkz, p.ne, p.na, p.norb, p.norb];
        ElectronSelfEnergy {
            lesser: Tensor::zeros(&shape),
            greater: Tensor::zeros(&shape),
        }
    }
}

/// Phonon scattering self-energies. Shape `[Nqz, Nω, NA, NB+1, 3, 3]`;
/// slot `NB` is the diagonal `Π_aa`, slots `0..NB` the neighbor connections
/// (§2: "NB non-diagonal connections are kept for Π").
#[derive(Clone, Debug)]
pub struct PhononSelfEnergy {
    pub lesser: Tensor,
    pub greater: Tensor,
}

impl PhononSelfEnergy {
    pub fn zeros(p: &SimParams) -> Self {
        let shape = [p.nqz, p.nw, p.na, p.nb + 1, N3D, N3D];
        PhononSelfEnergy {
            lesser: Tensor::zeros(&shape),
            greater: Tensor::zeros(&shape),
        }
    }
}

/// Output of the electron GF phase.
#[derive(Clone, Debug)]
pub struct ElectronGf {
    /// `G<[kz, E, a, :, :]` diagonal atom blocks.
    pub g_lesser: Tensor,
    /// `G>[kz, E, a, :, :]`.
    pub g_greater: Tensor,
    /// Left-contact current spectrum per `(kz, E)` (Meir–Wingreen trace).
    pub current_spectrum: Vec<f64>,
    /// Integrated electrical current (arbitrary units: e/ħ per 2π).
    pub current: f64,
    /// Energy-integrated bond current through every slab interface
    /// (`j_n = 2·Re tr[(−A_{n,n+1})·G<_{n+1,n}]`, length `bnum − 1`).
    /// In the ballistic limit these equal the contact current exactly —
    /// the current-conservation check of the whole RGF + boundary stack.
    pub bond_currents: Vec<f64>,
    /// Which `(kz, E)` points were actually covered; quarantined points
    /// are zero-filled in `g_lesser`/`g_greater` and excluded from the
    /// currents.
    pub coverage: CoverageReport,
}

/// Output of the phonon GF phase.
#[derive(Clone, Debug)]
pub struct PhononGf {
    /// `D<[qz, ω, a, slot, :, :]` with slot `NB` diagonal.
    pub d_lesser: Tensor,
    /// `D>[qz, ω, a, slot, :, :]`.
    pub d_greater: Tensor,
    /// Integrated phonon energy current at the left contact.
    pub energy_current: f64,
    /// Which `(qz, ω)` points were actually covered.
    pub coverage: CoverageReport,
}

/// `tr(A·B)` without forming the product: `Σ_i Σ_j A[i,j]·B[j,i]`. The
/// Meir–Wingreen and bond-current traces only need the product's diagonal,
/// so this replaces an `O(n³)` GEMM (plus its temporary) with an `O(n²)`
/// reduction.
fn trace_of_product(a: &Matrix, b: &Matrix) -> Complex64 {
    let n = a.rows();
    let k = a.cols();
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(b.cols(), n);
    qt_linalg::add_flops(8 * (n * k) as u64);
    let mut acc = Complex64::ZERO;
    for i in 0..n {
        for j in 0..k {
            acc = acc.mul_add(a[(i, j)], b[(j, i)]);
        }
    }
    acc
}

/// `out ← i·(sig − sig†)` — [`boundary::gamma`] into an existing buffer.
fn gamma_into(sig: &Matrix, out: &mut Matrix) {
    let n = sig.rows();
    for i in 0..n {
        for j in 0..n {
            out[(i, j)] = (sig[(i, j)] - sig[(j, i)].conj()) * Complex64::I;
        }
    }
}

/// `out ← src · z` elementwise, overwriting `out`.
fn scale_into(src: &Matrix, z: Complex64, out: &mut Matrix) {
    for (o, s) in out.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *o = *s * z;
    }
}

/// Recycle a block tri-diagonal whose blocks came from the workspace pool.
fn recycle_tridiag(a: BlockTridiag) {
    let (d, u, l) = a.into_parts();
    for m in d.into_iter().chain(u).chain(l) {
        workspace::give(m);
    }
}

/// Solve every grid point of a phase, results in grid order.
///
/// The level rule (DESIGN.md "Parallelism"): a point whose `bs³` block
/// products sit below the GEMM layer's [`PAR_THRESHOLD`] would run them
/// serially anyway, so the *points* fan out over [`par`]. At or above it
/// the points run in sequence and each product band-splits instead — a
/// fan-out there would hold one full RGF working set per thread (12.8 MiB
/// at 128-wide blocks: +56 % peak RSS on two threads).
fn solve_points<T: Send>(
    bs: usize,
    points: &[(usize, usize)],
    solve: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    if bs * bs * bs < PAR_THRESHOLD {
        par::map(points.len(), |i| solve(points[i].0, points[i].1))
    } else {
        points.iter().map(|&(a, b)| solve(a, b)).collect()
    }
}

/// Fold per-point worker results into a [`CoverageReport`] under `policy`:
/// successes flow into `keep`, failures are either fatal (fail-fast mode)
/// or quarantined — counted, recorded with their flattened `grid_index`,
/// and simply *absent* from the output tensors (which start zeroed, so a
/// quarantined point contributes nothing rather than garbage). Exceeding
/// `max_bad_fraction` makes the whole phase fail with the first recorded
/// error as the representative root cause.
fn apply_health_policy<T>(
    results: Vec<Result<T, NumericalError>>,
    grid_index: impl Fn(usize) -> usize,
    policy: &HealthPolicy,
    mut keep: impl FnMut(T),
) -> Result<CoverageReport, NumericalError> {
    let mut coverage = CoverageReport::full(results.len());
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => keep(v),
            Err(error) => {
                if !policy.quarantine {
                    return Err(error);
                }
                counters::add(Counter::HealthQuarantinedPoints, 1);
                let gi = grid_index(i);
                qt_telemetry::journal::emit(qt_telemetry::EventKind::QuarantinePoint {
                    grid_index: gi as u64,
                });
                coverage.quarantined.push(QuarantinedPoint {
                    grid_index: gi,
                    error,
                });
            }
        }
    }
    if coverage.bad_fraction() > policy.max_bad_fraction {
        return Err(coverage.quarantined[0].error.clone());
    }
    Ok(coverage)
}

/// The arguments of one lead's decimation: `z` and the lead blocks
/// `(h00, h01, s00, s01)`.
type Lead<'a> = (Complex64, &'a Matrix, &'a Matrix, &'a Matrix, &'a Matrix);

/// The phase's one boundary fill pass ([`boundary::fill`]): the
/// Sancho–Rubio decimation of both leads of every grid point whose slot is
/// empty, fanned out over `(point, side)` before the point loop, which
/// then only reads Σᴿ. Counted for a [`BoundaryCache`]'s slots, not for a
/// phase-local store.
fn fill_boundary<'s, 'l>(
    slots: &'s [Slot],
    counted: bool,
    cfg: &BoundaryConfig,
    lead: impl Fn(usize, Side) -> Lead<'l> + Sync,
) -> Filled<'s> {
    boundary::fill(slots, counted, |idx, side| {
        let (z, h00, h01, s00, s01) = lead(idx, side);
        boundary::surface_self_energy(z, h00, h01, s00, s01, side, cfg).map(|out| out.sigma)
    })
}

/// Identity key of everything the electron contact self-energies depend
/// on: the lead blocks of `H(kz)`/`S(kz)`, the energy grid and the
/// broadening configuration.
fn electron_boundary_key(
    hs: &[(BlockTridiag, BlockTridiag)],
    grids: &Grids,
    cfg: &GfConfig,
) -> u64 {
    let mut kh = KeyHasher::new();
    kh.u64(0xe1ec);
    for (h, s) in hs {
        let nbk = h.num_blocks();
        kh.matrix(h.diag(0))
            .matrix(h.upper(0))
            .matrix(s.diag(0))
            .matrix(s.upper(0))
            .matrix(h.diag(nbk - 1))
            .matrix(h.upper(nbk - 2))
            .matrix(s.diag(nbk - 1))
            .matrix(s.upper(nbk - 2));
    }
    for &e in &grids.energies {
        kh.f64(e);
    }
    // The lead band offsets shift the energy the decimation runs at, so
    // they are part of the Σᴿ identity. The occupations (mu_*,
    // temperature) deliberately stay OUT of the key: they are applied
    // outside the cache, which is what lets one memoized Σᴿ serve every
    // bias point of a sweep.
    kh.f64(cfg.contacts.shift_left)
        .f64(cfg.contacts.shift_right);
    kh.f64(cfg.eta)
        .f64(cfg.boundary.eta)
        .u64(cfg.boundary.max_iter as u64)
        .f64(cfg.boundary.tol)
        .f64(cfg.boundary.eta_bump);
    kh.finish()
}

/// Identity key of the phonon contact self-energies: lead blocks of
/// `Φ(qz)`, the frequency grid (and its spacing, which enters the
/// broadening) and the configuration.
fn phonon_boundary_key(phis: &[BlockTridiag], grids: &Grids, cfg: &GfConfig) -> u64 {
    let mut kh = KeyHasher::new();
    kh.u64(0x9409);
    for phi in phis {
        let nbk = phi.num_blocks();
        kh.matrix(phi.diag(0))
            .matrix(phi.upper(0))
            .matrix(phi.diag(nbk - 1))
            .matrix(phi.upper(nbk - 2));
    }
    for &w in &grids.omegas {
        kh.f64(w);
    }
    kh.f64(grids.de)
        .f64(cfg.eta)
        .f64(cfg.boundary.eta)
        .u64(cfg.boundary.max_iter as u64)
        .f64(cfg.boundary.tol)
        .f64(cfg.boundary.eta_bump);
    kh.finish()
}

/// Solve the electron Green's functions for every `(kz, E)` point.
pub fn electron_gf_phase(
    dev: &Device,
    em: &ElectronModel,
    p: &SimParams,
    grids: &Grids,
    sse: &ElectronSelfEnergy,
    cfg: &GfConfig,
) -> Result<ElectronGf, NumericalError> {
    electron_gf_phase_cached(dev, em, p, grids, sse, cfg, None, None)
}

/// [`electron_gf_phase`] with optional contact self-energy memoization:
/// when `cache` is given it is (re-)bound to the current `H`/`S`/grid
/// identity and the Sancho–Rubio decimation runs at most once per
/// `(kz, E)` point across every Born iteration. The last argument is
/// ignored: [`rgf::KernelSelector`] holds nothing, and `qt-perf` pins it.
#[allow(clippy::too_many_arguments)]
pub fn electron_gf_phase_cached(
    dev: &Device,
    em: &ElectronModel,
    p: &SimParams,
    grids: &Grids,
    sse: &ElectronSelfEnergy,
    cfg: &GfConfig,
    cache: Option<&BoundaryCache>,
    _selector: Option<&rgf::KernelSelector>,
) -> Result<ElectronGf, NumericalError> {
    let _span = qt_telemetry::Span::enter_global("gf/electron");
    let no = p.norb;
    let apb = dev.atoms_per_slab;
    // Hoist H(kz), S(kz) per momentum point.
    let hs: Vec<(BlockTridiag, BlockTridiag)> = grids
        .kz
        .iter()
        .map(|&kz| (em.hamiltonian(dev, kz), em.overlap_matrix(dev, kz)))
        .collect();
    let n_points = p.nkz * p.ne;
    let view = cache.map(|c| c.bind_electron(electron_boundary_key(&hs, grids, cfg), n_points));
    let local: Vec<Slot>;
    let slots = match &view {
        Some(v) => v.electron(),
        None => {
            local = boundary::slots(n_points);
            &local
        }
    };
    // Each lead sees the energy relative to its own band offset, at the
    // contact broadening.
    let filled = fill_boundary(slots, view.is_some(), &cfg.boundary, |idx, side| {
        let (h, s) = &hs[idx / p.ne];
        let energy = grids.energies[idx % p.ne];
        let nbk = h.num_blocks();
        match side {
            Side::Left => (
                c64(energy - cfg.contacts.shift_left, cfg.eta),
                h.diag(0),
                h.upper(0),
                s.diag(0),
                s.upper(0),
            ),
            Side::Right => (
                c64(energy - cfg.contacts.shift_right, cfg.eta),
                h.diag(nbk - 1),
                h.upper(nbk - 2),
                s.diag(nbk - 1),
                s.upper(nbk - 2),
            ),
        }
    });
    let points: Vec<(usize, usize)> = (0..p.nkz)
        .flat_map(|k| (0..p.ne).map(move |e| (k, e)))
        .collect();
    let bs = hs[0].0.block_size();
    type EPoint = (usize, usize, Vec<Complex64>, Vec<Complex64>, f64, Vec<f64>);
    let results: Vec<Result<EPoint, NumericalError>> = solve_points(bs, &points, |k, e| {
        let point_idx = k * p.ne + e;
        // Boundary self-energies from the fill pass — the decimation
        // depends on neither the occupations nor the Born iterate, so a
        // cached phase replays the stored Σᴿ from iteration 2 on.
        let (sig_l, sig_r) = filled
            .get(point_idx)
            .map(|pair| (&pair.0, &pair.1))
            .map_err(|err| err.at("gf/electron", point_idx))?;
        let (h, s) = &hs[k];
        let energy = grids.energies[e];
        // Device interior at (near-)real energy so the contacts are the
        // only implicit bath.
        let z_dev = c64(energy, cfg.device_eta);
        let nbk = h.num_blocks();
        // A = z·S − H assembled into workspace-pooled blocks.
        let fill = |sb: &Matrix, hb: &Matrix| {
            let mut m = workspace::take(bs, bs);
            for (o, (sv, hv)) in m
                .as_mut_slice()
                .iter_mut()
                .zip(sb.as_slice().iter().zip(hb.as_slice()))
            {
                *o = *sv * z_dev - *hv;
            }
            m
        };
        let a_diag = (0..nbk).map(|n| fill(s.diag(n), h.diag(n))).collect();
        let a_upper = (0..nbk - 1).map(|n| fill(s.upper(n), h.upper(n))).collect();
        let a_lower = (0..nbk - 1).map(|n| fill(s.lower(n), h.lower(n))).collect();
        let mut a = BlockTridiag::from_blocks(a_diag, a_upper, a_lower);
        *a.diag_mut(0) -= sig_l;
        *a.diag_mut(nbk - 1) -= sig_r;
        let f_l = fermi(energy, cfg.contacts.mu_left, cfg.contacts.temperature);
        let f_r = fermi(energy, cfg.contacts.mu_right, cfg.contacts.temperature);
        // Γ and the occupation-scaled boundary Σ≷ in pooled buffers
        // (the occupations are applied outside the cache, so the same
        // memoized Σᴿ serves any bias).
        let mut gam = workspace::take(bs, bs);
        gamma_into(sig_l, &mut gam);
        let mut bl_l = workspace::take(bs, bs);
        scale_into(&gam, c64(0.0, f_l), &mut bl_l);
        let mut bg_l = workspace::take(bs, bs);
        scale_into(&gam, c64(0.0, f_l - 1.0), &mut bg_l);
        gamma_into(sig_r, &mut gam);
        let mut bl_r = workspace::take(bs, bs);
        scale_into(&gam, c64(0.0, f_r), &mut bl_r);
        workspace::give(gam);
        let mut sig_lesser: Vec<Matrix> = (0..nbk).map(|_| workspace::take(bs, bs)).collect();
        sig_lesser[0] += &bl_l;
        sig_lesser[nbk - 1] += &bl_r;
        // Scattering self-energies (diagonal atom blocks), injected
        // straight from the SSE tensors — no temporaries.
        for atom in 0..p.na {
            let slab = dev.slab_of(atom);
            let row = (atom % apb) * no;
            let g_blk = sse.greater.inner(&[k, e, atom]);
            let l_blk = sse.lesser.inner(&[k, e, atom]);
            for i in 0..no {
                for j in 0..no {
                    // Σᴿ ≈ (Σ> − Σ<)/2; A -= Σᴿ_scatt.
                    let sr = (g_blk[i * no + j] - l_blk[i * no + j]).scale(0.5);
                    let cur = a.diag(slab)[(row + i, row + j)];
                    a.diag_mut(slab)[(row + i, row + j)] = cur - sr;
                    let cur = sig_lesser[slab][(row + i, row + j)];
                    sig_lesser[slab][(row + i, row + j)] = cur + l_blk[i * no + j];
                }
            }
        }
        let out = rgf::rgf_with(&a, &sig_lesser, cfg.strategy)
            .map_err(|_| NumericalError::singular("rgf", point_idx))?;
        // Gather per-atom diagonal blocks (these escape the worker, so
        // they stay on the regular heap).
        let mut gl = Vec::with_capacity(p.na * no * no);
        let mut gg = Vec::with_capacity(p.na * no * no);
        for atom in 0..p.na {
            let slab = dev.slab_of(atom);
            let row = (atom % apb) * no;
            for i in 0..no {
                for j in 0..no {
                    gl.push(out.gl_diag[slab][(row + i, row + j)]);
                    gg.push(out.gg_diag[slab][(row + i, row + j)]);
                }
            }
        }
        // Meir–Wingreen current trace at the left contact:
        // i(E) = Re tr[Σ<_L G> − Σ>_L G<].
        let t1 = trace_of_product(&bl_l, &out.gg_diag[0]);
        let t2 = trace_of_product(&bg_l, &out.gl_diag[0]);
        let ispec = (t1 - t2).re;
        // Bond currents through every slab interface.
        let bonds: Vec<f64> = (0..nbk - 1)
            .map(|n| -2.0 * trace_of_product(a.upper(n), &out.gl_lower[n]).re)
            .collect();
        for m in [bl_l, bg_l, bl_r] {
            workspace::give(m);
        }
        for m in sig_lesser {
            workspace::give(m);
        }
        out.recycle();
        recycle_tridiag(a);
        // Phase-boundary health check: everything escaping the worker
        // must be finite, or downstream SSE convolutions smear the
        // poison across the whole spectrum.
        let finite = gl
            .iter()
            .chain(&gg)
            .all(|v| v.re.is_finite() && v.im.is_finite())
            && ispec.is_finite()
            && bonds.iter().all(|j| j.is_finite());
        if !finite {
            return Err(NumericalError::NonFiniteTensor {
                phase: "gf/electron",
                index: point_idx,
            });
        }
        Ok((k, e, gl, gg, ispec, bonds))
    });
    let mut g_lesser = Tensor::zeros(&[p.nkz, p.ne, p.na, no, no]);
    let mut g_greater = Tensor::zeros(&[p.nkz, p.ne, p.na, no, no]);
    let mut current_spectrum = vec![0.0; p.nkz * p.ne];
    let mut current = 0.0;
    let mut bond_currents = vec![0.0; p.bnum - 1];
    let coverage = apply_health_policy(
        results,
        |i| {
            let (k, e) = points[i];
            k * p.ne + e
        },
        &cfg.health,
        |(k, e, gl, gg, ispec, bonds)| {
            g_lesser.inner_mut(&[k, e]).copy_from_slice(&gl);
            g_greater.inner_mut(&[k, e]).copy_from_slice(&gg);
            current_spectrum[k * p.ne + e] = ispec;
            current += ispec * grids.de / p.nkz as f64;
            for (acc, j) in bond_currents.iter_mut().zip(&bonds) {
                *acc += j * grids.de / p.nkz as f64;
            }
        },
    )?;
    Ok(ElectronGf {
        g_lesser,
        g_greater,
        current_spectrum,
        current,
        bond_currents,
        coverage,
    })
}

/// Solve the phonon Green's functions for every `(qz, ω)` point.
pub fn phonon_gf_phase(
    dev: &Device,
    pm: &PhononModel,
    p: &SimParams,
    grids: &Grids,
    sse: &PhononSelfEnergy,
    cfg: &GfConfig,
) -> Result<PhononGf, NumericalError> {
    phonon_gf_phase_cached(dev, pm, p, grids, sse, cfg, None, None)
}

/// [`phonon_gf_phase`] with optional contact self-energy memoization. The
/// last argument is ignored, as in [`electron_gf_phase_cached`].
#[allow(clippy::too_many_arguments)]
pub fn phonon_gf_phase_cached(
    dev: &Device,
    pm: &PhononModel,
    p: &SimParams,
    grids: &Grids,
    sse: &PhononSelfEnergy,
    cfg: &GfConfig,
    cache: Option<&BoundaryCache>,
    _selector: Option<&rgf::KernelSelector>,
) -> Result<PhononGf, NumericalError> {
    let _span = qt_telemetry::Span::enter_global("gf/phonon");
    let apb = dev.atoms_per_slab;
    let phis: Vec<BlockTridiag> = grids.qz.iter().map(|&qz| pm.dynamical(dev, qz)).collect();
    let bs = phis[0].block_size();
    let eye = Matrix::identity(bs);
    let zero = Matrix::zeros(bs, bs);
    let n_points = p.nqz * p.nw;
    let view = cache.map(|c| c.bind_phonon(phonon_boundary_key(&phis, grids, cfg), n_points));
    let local: Vec<Slot>;
    let slots = match &view {
        Some(v) => v.phonon(),
        None => {
            local = boundary::slots(n_points);
            &local
        }
    };
    // Equilibrium phonon baths at both contacts.
    let filled = fill_boundary(slots, view.is_some(), &cfg.boundary, |idx, side| {
        let phi = &phis[idx / p.nw];
        let omega = grids.omegas[idx % p.nw];
        let z = c64(omega * omega, cfg.eta * omega.max(grids.de));
        let nbk = phi.num_blocks();
        match side {
            Side::Left => (z, phi.diag(0), phi.upper(0), &eye, &zero),
            Side::Right => (z, phi.diag(nbk - 1), phi.upper(nbk - 2), &eye, &zero),
        }
    });
    let points: Vec<(usize, usize)> = (0..p.nqz)
        .flat_map(|q| (0..p.nw).map(move |w| (q, w)))
        .collect();
    // Πᴿ ≈ (Π> − Π<)/2 of one SSE block, subtracted from `dst` at (ra, rb).
    let inject_retarded = |dst: &mut Matrix, ra: usize, rb: usize, idx: &[usize; 4]| {
        let g_blk = sse.greater.inner(&idx[..]);
        let l_blk = sse.lesser.inner(&idx[..]);
        for i in 0..N3D {
            for j in 0..N3D {
                let pr = (g_blk[i * N3D + j] - l_blk[i * N3D + j]).scale(0.5);
                dst[(ra + i, rb + j)] -= pr;
            }
        }
    };
    type PhRes = (usize, usize, Vec<Complex64>, Vec<Complex64>, f64);
    let results: Vec<Result<PhRes, NumericalError>> = solve_points(bs, &points, |q, w| {
        let point_idx = q * p.nw + w;
        // Boundary Πᴿ from the fill pass.
        let (pi_l, pi_r) = filled
            .get(point_idx)
            .map(|pair| (&pair.0, &pair.1))
            .map_err(|err| err.at("gf/phonon", point_idx))?;
        let phi = &phis[q];
        let omega = grids.omegas[w];
        let z_dev = c64(omega * omega, cfg.phonon_device_eta * omega.max(grids.de));
        // A = ω²·I − Φ − Πᴿ in workspace-pooled blocks.
        let nbk = phi.num_blocks();
        let mut a_diag: Vec<Matrix> = Vec::with_capacity(nbk);
        for n in 0..nbk {
            let mut d = workspace::take(bs, bs);
            let pd = phi.diag(n).as_slice();
            let ds = d.as_mut_slice();
            for (o, pv) in ds.iter_mut().zip(pd) {
                *o = Complex64::ZERO - *pv;
            }
            for i in 0..bs {
                ds[i * bs + i] = z_dev - pd[i * bs + i];
            }
            a_diag.push(d);
        }
        // Off-diagonal blocks: −Φ plus the neighbor connections of Πᴿ
        // that cross a slab interface (off-diagonal, §2).
        let fill_neg = |src: &Matrix| {
            let mut m = workspace::take(bs, bs);
            for (o, pv) in m.as_mut_slice().iter_mut().zip(src.as_slice()) {
                *o = -*pv;
            }
            m
        };
        let mut a_upper: Vec<Matrix> = (0..nbk - 1).map(|n| fill_neg(phi.upper(n))).collect();
        let mut a_lower: Vec<Matrix> = (0..nbk - 1).map(|n| fill_neg(phi.lower(n))).collect();
        for atom in 0..p.na {
            let sa = dev.slab_of(atom);
            let ra = (atom % apb) * N3D;
            for slot in 0..p.nb {
                let Some(b) = dev.neighbor(atom, slot) else {
                    continue;
                };
                let sb = dev.slab_of(b);
                let rb = (b % apb) * N3D;
                if sb == sa + 1 {
                    inject_retarded(&mut a_upper[sa], ra, rb, &[q, w, atom, slot]);
                } else if sb + 1 == sa {
                    inject_retarded(&mut a_lower[sb], ra, rb, &[q, w, atom, slot]);
                }
            }
        }
        let mut a = BlockTridiag::from_blocks(a_diag, a_upper, a_lower);
        *a.diag_mut(0) -= pi_l;
        *a.diag_mut(nbk - 1) -= pi_r;
        let n_occ = bose(omega, cfg.contacts.temperature);
        // Π≷ at the bath occupation, in pooled buffers.
        let mut gam = workspace::take(bs, bs);
        gamma_into(pi_l, &mut gam);
        let mut bl_l = workspace::take(bs, bs);
        scale_into(&gam, c64(0.0, -n_occ), &mut bl_l);
        let mut bg_l = workspace::take(bs, bs);
        scale_into(&gam, c64(0.0, -(n_occ + 1.0)), &mut bg_l);
        gamma_into(pi_r, &mut gam);
        let mut bl_r = workspace::take(bs, bs);
        scale_into(&gam, c64(0.0, -n_occ), &mut bl_r);
        workspace::give(gam);
        let mut sig_lesser: Vec<Matrix> = (0..nbk).map(|_| workspace::take(bs, bs)).collect();
        sig_lesser[0] += &bl_l;
        sig_lesser[nbk - 1] += &bl_r;
        // Scattering Πᴿ on the diagonal blocks (same-slab neighbor
        // connections included; the cross-slab ones are in a_upper/a_lower),
        // injected straight from the SSE tensors — no temporaries.
        for atom in 0..p.na {
            let sa = dev.slab_of(atom);
            let ra = (atom % apb) * N3D;
            inject_retarded(a.diag_mut(sa), ra, ra, &[q, w, atom, p.nb]);
            let l_blk = sse.lesser.inner(&[q, w, atom, p.nb]);
            for i in 0..N3D {
                for j in 0..N3D {
                    let cur = sig_lesser[sa][(ra + i, ra + j)];
                    sig_lesser[sa][(ra + i, ra + j)] = cur + l_blk[i * N3D + j];
                }
            }
            // Lesser off-diagonal parts are kept in the SSE tensors but
            // not injected into RGF (block-diagonal Σ< assumption; see
            // DESIGN.md).
            for slot in 0..p.nb {
                let Some(b) = dev.neighbor(atom, slot) else {
                    continue;
                };
                if dev.slab_of(b) == sa {
                    let rb = (b % apb) * N3D;
                    inject_retarded(a.diag_mut(sa), ra, rb, &[q, w, atom, slot]);
                }
            }
        }
        let out = rgf::rgf_with(&a, &sig_lesser, cfg.strategy)
            .map_err(|_| NumericalError::singular("rgf", point_idx))?;
        // Off-diagonal D images, once per point into pooled buffers
        // (the old path re-derived them per atom pair):
        // G<_{n,n+1} = −(G<_{n+1,n})†, G>_{n,n+1} and G>_{n+1,n}.
        let mut gl_up: Vec<Matrix> = Vec::with_capacity(nbk - 1);
        let mut gg_up: Vec<Matrix> = Vec::with_capacity(nbk - 1);
        let mut gg_lo: Vec<Matrix> = Vec::with_capacity(nbk - 1);
        for n in 0..nbk - 1 {
            let mut lu_m = workspace::take(bs, bs);
            let src = &out.gl_lower[n];
            for i in 0..bs {
                for j in 0..bs {
                    lu_m[(i, j)] = src[(j, i)].conj() * c64(-1.0, 0.0);
                }
            }
            let mut gu = workspace::take(bs, bs);
            gu.copy_from(&lu_m);
            gu += &out.gr_upper[n];
            gu.sub_dagger_assign(&out.gr_lower[n]);
            let mut glo = workspace::take(bs, bs);
            glo.copy_from(&out.gl_lower[n]);
            glo += &out.gr_lower[n];
            glo.sub_dagger_assign(&out.gr_upper[n]);
            gl_up.push(lu_m);
            gg_up.push(gu);
            gg_lo.push(glo);
        }
        // Gather D pairs: slots 0..NB neighbors, slot NB diagonal.
        let block_len = (p.nb + 1) * N3D * N3D;
        let mut dl = vec![Complex64::ZERO; p.na * block_len];
        let mut dg = vec![Complex64::ZERO; p.na * block_len];
        let write_pair = |dst_l: &mut [Complex64],
                          dst_g: &mut [Complex64],
                          atom: usize,
                          slot: usize,
                          b: usize| {
            let sa = dev.slab_of(atom);
            let sb = dev.slab_of(b);
            let ra = (atom % apb) * N3D;
            let rb = (b % apb) * N3D;
            let base = atom * block_len + slot * N3D * N3D;
            // Select the matrices holding rows of slab sa, cols sb.
            let (l_m, g_m): (&Matrix, &Matrix) = if sb == sa {
                (&out.gl_diag[sa], &out.gg_diag[sa])
            } else if sb == sa + 1 {
                (&gl_up[sa], &gg_up[sa])
            } else {
                (&out.gl_lower[sb], &gg_lo[sb])
            };
            for i in 0..N3D {
                for j in 0..N3D {
                    dst_l[base + i * N3D + j] = l_m[(ra + i, rb + j)];
                    dst_g[base + i * N3D + j] = g_m[(ra + i, rb + j)];
                }
            }
        };
        for atom in 0..p.na {
            write_pair(&mut dl, &mut dg, atom, p.nb, atom);
            for slot in 0..p.nb {
                if let Some(b) = dev.neighbor(atom, slot) {
                    write_pair(&mut dl, &mut dg, atom, slot, b);
                }
            }
        }
        let t1 = trace_of_product(&bl_l, &out.gg_diag[0]);
        let t2 = trace_of_product(&bg_l, &out.gl_diag[0]);
        let espec = (t1 - t2).re * omega;
        for m in gl_up.into_iter().chain(gg_up).chain(gg_lo) {
            workspace::give(m);
        }
        for m in [bl_l, bg_l, bl_r] {
            workspace::give(m);
        }
        for m in sig_lesser {
            workspace::give(m);
        }
        out.recycle();
        recycle_tridiag(a);
        // Phase-boundary health check (see the electron phase).
        let finite = dl
            .iter()
            .chain(&dg)
            .all(|v| v.re.is_finite() && v.im.is_finite())
            && espec.is_finite();
        if !finite {
            return Err(NumericalError::NonFiniteTensor {
                phase: "gf/phonon",
                index: point_idx,
            });
        }
        Ok((q, w, dl, dg, espec))
    });
    let mut d_lesser = Tensor::zeros(&[p.nqz, p.nw, p.na, p.nb + 1, N3D, N3D]);
    let mut d_greater = Tensor::zeros(&[p.nqz, p.nw, p.na, p.nb + 1, N3D, N3D]);
    let mut energy_current = 0.0;
    let coverage = apply_health_policy(
        results,
        |i| {
            let (q, w) = points[i];
            q * p.nw + w
        },
        &cfg.health,
        |(q, w, dl, dg, espec)| {
            d_lesser.inner_mut(&[q, w]).copy_from_slice(&dl);
            d_greater.inner_mut(&[q, w]).copy_from_slice(&dg);
            energy_current += espec * grids.de / p.nqz as f64;
        },
    )?;
    Ok(PhononGf {
        d_lesser,
        d_greater,
        energy_current,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimParams, Device, ElectronModel, PhononModel, Grids) {
        let p = SimParams::test_small();
        let dev = Device::new(&p);
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        let grids = Grids::new(&p, -1.2, 1.2);
        (p, dev, em, pm, grids)
    }

    #[test]
    fn electron_phase_produces_physical_tensors() {
        let (p, dev, em, _, grids) = setup();
        let sse = ElectronSelfEnergy::zeros(&p);
        let cfg = GfConfig::default();
        let out = electron_gf_phase(&dev, &em, &p, &grids, &sse, &cfg).unwrap();
        assert_eq!(out.g_lesser.shape(), &[p.nkz, p.ne, p.na, p.norb, p.norb]);
        // Physicality: per-atom spectral weight i·tr(G> − G<) ≥ 0 and all
        // entries finite.
        for k in 0..p.nkz {
            for e in 0..p.ne {
                for a in 0..p.na {
                    let gl = out.g_lesser.inner(&[k, e, a]);
                    let gg = out.g_greater.inner(&[k, e, a]);
                    let mut spectral = 0.0;
                    for o in 0..p.norb {
                        let d = gg[o * p.norb + o] - gl[o * p.norb + o];
                        // i·(G> − G<) diagonal must be ≥ 0 (spectral func).
                        spectral += (Complex64::I * d).re;
                        assert!(d.is_finite());
                    }
                    assert!(
                        spectral >= -1e-9,
                        "negative spectral weight at ({k},{e},{a}): {spectral}"
                    );
                }
            }
        }
    }

    #[test]
    fn ballistic_current_is_conserved_through_the_device() {
        // Every slab interface must carry exactly the contact current —
        // the strongest end-to-end check of RGF's off-diagonal blocks and
        // the boundary self-energies.
        let (p, dev, em, _, grids) = setup();
        let sse = ElectronSelfEnergy::zeros(&p);
        let mut cfg = GfConfig::default();
        cfg.contacts.mu_left = 0.3;
        cfg.contacts.mu_right = -0.3;
        let out = electron_gf_phase(&dev, &em, &p, &grids, &sse, &cfg).unwrap();
        assert!(out.current.abs() > 1e-12);
        for (n, j) in out.bond_currents.iter().enumerate() {
            assert!(
                (j - out.current).abs() / out.current.abs() < 1e-9,
                "bond {n}: {j} vs contact {}",
                out.current
            );
        }
    }

    #[test]
    fn equilibrium_current_vanishes() {
        let (p, dev, em, _, grids) = setup();
        let sse = ElectronSelfEnergy::zeros(&p);
        let mut cfg = GfConfig::default();
        cfg.contacts.mu_left = 0.0;
        cfg.contacts.mu_right = 0.0;
        let out = electron_gf_phase(&dev, &em, &p, &grids, &sse, &cfg).unwrap();
        assert!(
            out.current.abs() < 1e-8,
            "equilibrium current must vanish, got {}",
            out.current
        );
    }

    #[test]
    fn bias_drives_current() {
        let (p, dev, em, _, grids) = setup();
        let sse = ElectronSelfEnergy::zeros(&p);
        let mut cfg = GfConfig::default();
        cfg.contacts.mu_left = 0.3;
        cfg.contacts.mu_right = -0.3;
        let fwd = electron_gf_phase(&dev, &em, &p, &grids, &sse, &cfg).unwrap();
        cfg.contacts.mu_left = -0.3;
        cfg.contacts.mu_right = 0.3;
        let rev = electron_gf_phase(&dev, &em, &p, &grids, &sse, &cfg).unwrap();
        assert!(fwd.current > 1e-10, "forward bias current {}", fwd.current);
        assert!(rev.current < -1e-10, "reverse bias current {}", rev.current);
    }

    #[test]
    fn phonon_phase_produces_physical_tensors() {
        let (p, dev, _, pm, grids) = setup();
        let sse = PhononSelfEnergy::zeros(&p);
        let cfg = GfConfig::default();
        let out = phonon_gf_phase(&dev, &pm, &p, &grids, &sse, &cfg).unwrap();
        assert_eq!(
            out.d_lesser.shape(),
            &[p.nqz, p.nw, p.na, p.nb + 1, N3D, N3D]
        );
        for q in 0..p.nqz {
            for w in 0..p.nw {
                for a in 0..p.na {
                    // Diagonal slot: spectral positivity of the phonon GF.
                    let dl = out.d_lesser.inner(&[q, w, a, p.nb]);
                    let dg = out.d_greater.inner(&[q, w, a, p.nb]);
                    let mut spectral = 0.0;
                    for i in 0..N3D {
                        let d = dg[i * N3D + i] - dl[i * N3D + i];
                        assert!(d.is_finite());
                        spectral += (Complex64::I * d).re;
                    }
                    assert!(
                        spectral >= -1e-9,
                        "phonon spectral weight at ({q},{w},{a}): {spectral}"
                    );
                }
            }
        }
    }

    #[test]
    fn variants_sharing_a_cache_never_exchange_entries() {
        // Cross-request poisoning regression: two device variants that
        // differ only in their contact band offsets share one
        // BoundaryCache (the qt-serve sharing pattern). The offsets enter
        // the identity key, so the second variant must rebind the cache
        // and recompute its own Σᴿ — its cached results have to match an
        // uncached solve bitwise instead of replaying the first variant's
        // entries.
        let (p, dev, em, _, grids) = setup();
        let sse = ElectronSelfEnergy::zeros(&p);
        let mut cfg_a = GfConfig::default();
        cfg_a.contacts.mu_left = 0.2;
        cfg_a.contacts.mu_right = -0.2;
        let mut cfg_b = cfg_a;
        cfg_b.contacts.shift_left = 0.15;
        cfg_b.contacts.shift_right = -0.1;
        let cache = BoundaryCache::new();
        let a_cached =
            electron_gf_phase_cached(&dev, &em, &p, &grids, &sse, &cfg_a, Some(&cache), None)
                .unwrap();
        let b_cached =
            electron_gf_phase_cached(&dev, &em, &p, &grids, &sse, &cfg_b, Some(&cache), None)
                .unwrap();
        let b_cold = electron_gf_phase(&dev, &em, &p, &grids, &sse, &cfg_b).unwrap();
        assert_eq!(
            b_cached.g_lesser.max_abs_diff(&b_cold.g_lesser),
            0.0,
            "variant B served from a cache shared with variant A must \
             recompute its own contact self-energies bitwise"
        );
        assert_eq!(b_cached.current, b_cold.current);
        // And the offsets genuinely change the physics, so a poisoned
        // replay would have been observable.
        assert!(
            a_cached.g_lesser.max_abs_diff(&b_cold.g_lesser) > 1e-12,
            "band offsets must alter the Green's functions for this test to bite"
        );
        // Re-running variant B replays its own entries (warm hits).
        let hits0 = counters::total(Counter::BoundaryCacheHits);
        let b_warm =
            electron_gf_phase_cached(&dev, &em, &p, &grids, &sse, &cfg_b, Some(&cache), None)
                .unwrap();
        assert_eq!(b_warm.g_lesser.max_abs_diff(&b_cold.g_lesser), 0.0);
        assert!(
            counters::total(Counter::BoundaryCacheHits) - hits0 >= (p.nkz * p.ne) as u64,
            "replaying the bound variant must hit the cache"
        );
    }

    #[test]
    fn the_fill_pass_counts_each_point_once_per_phase() {
        // The pass counts on the calling thread and a point read counts
        // nothing, so this thread's shard sees exactly one hit or miss per
        // point and phase.
        let (p, dev, em, pm, grids) = setup();
        let (esse, psse) = (ElectronSelfEnergy::zeros(&p), PhononSelfEnergy::zeros(&p));
        let cfg = GfConfig::default();
        let cache = BoundaryCache::new();
        let counts = || {
            (
                counters::local(Counter::BoundaryCacheHits),
                counters::local(Counter::BoundaryCacheMisses),
            )
        };
        let (ne, nw) = ((p.nkz * p.ne) as u64, (p.nqz * p.nw) as u64);
        let (h0, m0) = counts();
        let phases = || {
            electron_gf_phase_cached(&dev, &em, &p, &grids, &esse, &cfg, Some(&cache), None)
                .unwrap();
            phonon_gf_phase_cached(&dev, &pm, &p, &grids, &psse, &cfg, Some(&cache), None).unwrap();
        };
        phases();
        assert_eq!(counts(), (h0, m0 + ne + nw), "cold: every point a miss");
        phases();
        assert_eq!(
            counts(),
            (h0 + ne + nw, m0 + ne + nw),
            "warm: every point a hit"
        );
        // The uncached entry points fill a phase-local store, uncounted.
        electron_gf_phase(&dev, &em, &p, &grids, &esse, &cfg).unwrap();
        phonon_gf_phase(&dev, &pm, &p, &grids, &psse, &cfg).unwrap();
        assert_eq!(counts(), (h0 + ne + nw, m0 + ne + nw));
    }

    #[test]
    fn a_failed_decimation_quarantines_its_point_and_is_retried() {
        // One round cannot converge: every point's decimation fails, the
        // error reaches the health policy at that point, and the empty
        // slots are solved again by the next phase.
        let (p, dev, em, _, grids) = setup();
        let sse = ElectronSelfEnergy::zeros(&p);
        let mut cfg = GfConfig::default();
        cfg.boundary.max_iter = 1;
        cfg.boundary.eta_bump = 0.0;
        cfg.health.max_bad_fraction = 1.0;
        let cache = BoundaryCache::new();
        let n = p.nkz * p.ne;
        for _ in 0..2 {
            let m0 = counters::local(Counter::BoundaryCacheMisses);
            let out =
                electron_gf_phase_cached(&dev, &em, &p, &grids, &sse, &cfg, Some(&cache), None)
                    .unwrap();
            assert_eq!(counters::local(Counter::BoundaryCacheMisses) - m0, n as u64);
            let quarantined: Vec<usize> = out
                .coverage
                .quarantined
                .iter()
                .map(|q| q.grid_index)
                .collect();
            assert_eq!(quarantined, (0..n).collect::<Vec<_>>());
            for q in &out.coverage.quarantined {
                assert!(matches!(
                    q.error,
                    NumericalError::BoundaryNonConvergence { iters: 1, .. }
                ));
            }
        }
    }

    #[test]
    fn scattering_self_energy_changes_gf() {
        let (p, dev, em, _, grids) = setup();
        let cfg = GfConfig::default();
        let zero_sse = ElectronSelfEnergy::zeros(&p);
        let base = electron_gf_phase(&dev, &em, &p, &grids, &zero_sse, &cfg).unwrap();
        // Inject a uniform lossy self-energy on every atom.
        let mut sse = ElectronSelfEnergy::zeros(&p);
        for k in 0..p.nkz {
            for e in 0..p.ne {
                for a in 0..p.na {
                    for o in 0..p.norb {
                        sse.lesser.set(&[k, e, a, o, o], c64(0.0, 0.01));
                        sse.greater.set(&[k, e, a, o, o], c64(0.0, -0.01));
                    }
                }
            }
        }
        let scat = electron_gf_phase(&dev, &em, &p, &grids, &sse, &cfg).unwrap();
        let diff = base.g_lesser.max_abs_diff(&scat.g_lesser);
        assert!(diff > 1e-8, "scattering must affect G<: {diff}");
    }
}
