//! Open boundary conditions: contact self-energies.
//!
//! Substitution (DESIGN.md §4): OMEN computes boundary self-energies with a
//! contour-integral method; we use Sancho–Rubio decimation, which produces
//! the same object (the retarded self-energy of a semi-infinite periodic
//! lead) with robust convergence. The lesser/greater components follow from
//! the fluctuation–dissipation theorem at the contact's equilibrium
//! occupation:
//!
//! * electrons: `Σ< = i·f·Γ`, `Σ> = −i·(1−f)·Γ`
//! * phonons:   `Π< = −i·n·Γ`, `Π> = −i·(n+1)·Γ`
//!
//! with `Γ = i(Σᴿ − Σᴿ†)`, which guarantees `Σ> − Σ< = Σᴿ − Σᴬ`.

use crate::health::{matrices_finite, NumericalError};
use qt_linalg::{c64, invert, Complex64, Matrix};
use qt_telemetry::counters::{self, Counter};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Which contact a self-energy belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Convergence controls for the decimation iteration.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryConfig {
    /// Imaginary broadening added to the energy (eV).
    pub eta: f64,
    /// Maximum decimation iterations.
    pub max_iter: usize,
    /// Convergence threshold on the coupling norm.
    pub tol: f64,
    /// Extra broadening added for the one-shot regularized retry after a
    /// decimation failure (non-convergence or a singular block). `0.0`
    /// disables the retry and surfaces the failure directly.
    pub eta_bump: f64,
}

impl Default for BoundaryConfig {
    fn default() -> Self {
        BoundaryConfig {
            eta: 1e-4,
            max_iter: 200,
            tol: 1e-12,
            eta_bump: 1e-3,
        }
    }
}

/// A converged surface self-energy plus the convergence evidence callers
/// need to audit it.
#[derive(Clone, Debug)]
pub struct SurfaceSelfEnergy {
    /// The retarded self-energy Σᴿ.
    pub sigma: Matrix,
    /// Decimation iterations actually executed.
    pub iterations: usize,
    /// Whether the coupling norm dropped below `tol`. Always true for a
    /// value returned from [`surface_self_energy`] — non-convergence is an
    /// error there — but kept explicit for logging and future relaxation.
    pub converged: bool,
    /// Final coupling norm (max over the α/β directions).
    pub residual: f64,
    /// Number of eta-bump retries spent (0 or 1).
    pub eta_retries: u32,
}

/// Retarded surface self-energy of a semi-infinite lead.
///
/// The lead repeats the period `(h00, s00)` with inter-period coupling
/// `(h01, s01)` (pointing *away* from the device). `z = E + iη` for
/// electrons or `ω² + iη` for phonons (pass `s00 = I`, `s01 = 0` then).
///
/// A decimation that exhausts `cfg.max_iter` or hits a singular block is
/// retried once with `cfg.eta_bump` of extra broadening (the standard
/// regularization for propagating energies where the coupling decays too
/// slowly); if that also fails, the *original* failure is returned as a
/// [`NumericalError`] — never a silently unconverged Σ.
pub fn surface_self_energy(
    z: Complex64,
    h00: &Matrix,
    h01: &Matrix,
    s00: &Matrix,
    s01: &Matrix,
    side: Side,
    cfg: &BoundaryConfig,
) -> Result<SurfaceSelfEnergy, NumericalError> {
    // Thread-local attribution (called from inside the GF-phase workers);
    // "contour" is the paper's name for the boundary-condition stage.
    let _span = qt_telemetry::Span::enter("contour");
    match decimate(z, h00, h01, s00, s01, side, cfg) {
        Ok(out) => Ok(out),
        Err(first) if cfg.eta_bump > 0.0 => {
            counters::add(Counter::HealthEtaRetries, 1);
            qt_telemetry::journal::emit(qt_telemetry::EventKind::EtaRetry);
            let zb = z + c64(0.0, cfg.eta_bump);
            match decimate(zb, h00, h01, s00, s01, side, cfg) {
                Ok(mut out) => {
                    out.eta_retries = 1;
                    Ok(out)
                }
                // The bumped retry failing too is strictly less informative
                // than the original failure; surface that one.
                Err(_) => Err(first),
            }
        }
        Err(e) => Err(e),
    }
}

/// One Sancho–Rubio decimation pass at fixed `z`.
fn decimate(
    z: Complex64,
    h00: &Matrix,
    h01: &Matrix,
    s00: &Matrix,
    s01: &Matrix,
    side: Side,
    cfg: &BoundaryConfig,
) -> Result<SurfaceSelfEnergy, NumericalError> {
    let zs = |s: &Matrix, h: &Matrix| -> Matrix {
        let mut m = s.scale(z);
        m -= h;
        m
    };
    // Decimation on the A = z·S − H blocks: eliminating every other block
    // renormalizes the surface block as eps_s -= α·g·β (chain extending in
    // the +direction through α) or eps_s -= β·g·α (−direction). The sign
    // pattern follows from Gaussian elimination of A·x = I; the minus signs
    // in the coupling updates cancel pairwise in all accumulated products.
    let alpha0 = zs(s01, h01);
    let beta0 = zs(&s01.dagger(), &h01.dagger());
    let mut alpha = alpha0.clone();
    let mut beta = beta0.clone();
    let mut eps = zs(s00, h00);
    // Surface onsite for the chain extending away from the device.
    let mut eps_s = eps.clone();
    let mut iterations = 0;
    let mut residual = alpha.norm().max(beta.norm());
    while residual >= cfg.tol && iterations < cfg.max_iter {
        let g = invert(&eps)?;
        let ag = alpha.matmul(&g);
        let bg = beta.matmul(&g);
        let agb = ag.matmul(&beta);
        let bga = bg.matmul(&alpha);
        match side {
            // Left lead extends toward −∞: its exposed (rightmost) block is
            // renormalized through the β-direction.
            Side::Left => eps_s -= &bga,
            // Right lead extends toward +∞ through α.
            Side::Right => eps_s -= &agb,
        }
        eps -= &agb;
        eps -= &bga;
        alpha = ag.matmul(&alpha);
        beta = bg.matmul(&beta);
        iterations += 1;
        residual = alpha.norm().max(beta.norm());
    }
    if residual >= cfg.tol || !residual.is_finite() {
        return Err(NumericalError::BoundaryNonConvergence {
            iters: iterations,
            residual,
        });
    }
    let gs = invert(&eps_s)?;
    // Left lead couples into device block 0 via A_{0,−1} = β;
    // right lead via A_{N−1,N} = α.
    let sigma = match side {
        Side::Left => beta0.matmul(&gs).matmul(&alpha0),
        Side::Right => alpha0.matmul(&gs).matmul(&beta0),
    };
    if !matrices_finite([&sigma]) {
        return Err(NumericalError::NonFiniteTensor {
            phase: "contour",
            index: 0,
        });
    }
    Ok(SurfaceSelfEnergy {
        sigma,
        iterations,
        converged: true,
        residual,
        eta_retries: 0,
    })
}

/// FNV-1a accumulator over raw `f64` bit patterns — the identity key used
/// to decide whether a [`BoundaryCache`] binding is still valid. Hashing
/// the boundary Hamiltonian/overlap blocks, the energy grid and the
/// broadening configuration captures everything the retarded contact
/// self-energy depends on; bit-level equality means the memoized Σᴿ is
/// exact, not approximate.
pub struct KeyHasher(u64);

impl KeyHasher {
    pub fn new() -> Self {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn matrix(&mut self, m: &Matrix) -> &mut Self {
        self.u64(m.rows() as u64);
        for z in m.as_slice() {
            self.f64(z.re).f64(z.im);
        }
        self
    }

    /// Finished key; never 0, so 0 can mean "unbound".
    pub fn finish(&self) -> u64 {
        self.0.max(1)
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

#[derive(Default)]
struct CacheInner {
    electron_key: u64,
    electron: Vec<OnceLock<(Matrix, Matrix)>>,
    phonon_key: u64,
    phonon: Vec<OnceLock<(Matrix, Matrix)>>,
}

/// Memoized retarded contact self-energies `(Σᴿ_left, Σᴿ_right)` per grid
/// point. The Sancho–Rubio decimation (up to `max_iter` invert + 6-GEMM
/// rounds per point and side) depends only on the lead blocks, the grid
/// and the broadening — none of which change across Born iterations — so
/// iteration 1 pays for it once and every later iteration replays the
/// stored Σᴿ. Occupation-dependent lesser/greater parts are formed
/// *outside* the cache from the memoized Σᴿ, so contacts at any bias reuse
/// the same entries.
///
/// The cache is internally synchronized: a phase `bind_*`s its section
/// with the current identity key (write lock, invalidating stale entries),
/// then the per-point tasks fill/read slots through a shared
/// [`BoundaryCacheView`] (read lock + per-slot `OnceLock`).
#[derive(Default)]
pub struct BoundaryCache {
    inner: RwLock<CacheInner>,
}

impl BoundaryCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Write access with poison recovery. A panic on a thread holding the
    /// write lock leaves the flag set and the entries possibly
    /// half-rebuilt; rebuilding a cache is always safe while serving a
    /// half-built one is not, so recovery drops every entry and clears the
    /// flag instead of propagating the panic into the SCF loop.
    fn write_recover(&self) -> RwLockWriteGuard<'_, CacheInner> {
        match self.inner.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = CacheInner::default();
                self.inner.clear_poison();
                guard
            }
        }
    }

    /// Read access with poison recovery (rebuild through the write path,
    /// then re-acquire).
    fn read_recover(&self) -> RwLockReadGuard<'_, CacheInner> {
        let poisoned = match self.inner.read() {
            Ok(guard) => return guard,
            // Move the error out so its embedded read guard can be released
            // before `write_recover` takes the write lock — holding it across
            // that call would deadlock this thread against itself.
            Err(p) => p,
        };
        drop(poisoned);
        drop(self.write_recover());
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Bind the electron section to `key` with `n` grid points. A key or
    /// size mismatch drops every stored electron entry.
    pub fn bind_electron(&self, key: u64, n: usize) {
        let mut inner = self.write_recover();
        if inner.electron_key != key || inner.electron.len() != n {
            inner.electron_key = key;
            inner.electron = (0..n).map(|_| OnceLock::new()).collect();
        }
    }

    /// Bind the phonon section to `key` with `n` grid points.
    pub fn bind_phonon(&self, key: u64, n: usize) {
        let mut inner = self.write_recover();
        if inner.phonon_key != key || inner.phonon.len() != n {
            inner.phonon_key = key;
            inner.phonon = (0..n).map(|_| OnceLock::new()).collect();
        }
    }

    /// Drop every stored entry (e.g. after mutating the Hamiltonian in
    /// place). Binding with the correct key makes this automatic; the
    /// explicit hook exists for callers that know they invalidated state.
    pub fn invalidate(&self) {
        let mut inner = self.write_recover();
        *inner = CacheInner::default();
    }

    /// Shared read view for the duration of a phase's parallel loop.
    pub fn view(&self) -> BoundaryCacheView<'_> {
        BoundaryCacheView(self.read_recover())
    }

    /// Poison the inner lock on purpose (panic while holding the write
    /// guard), so tests can exercise the recovery paths.
    #[cfg(test)]
    fn poison_for_test(&self) {
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = self.inner.write().unwrap();
                panic!("deliberate poison for test");
            })
            .join()
        });
        assert!(result.is_err(), "poisoning thread must have panicked");
        assert!(self.inner.is_poisoned(), "write-guard panic must poison");
    }
}

/// Read-locked access to a [`BoundaryCache`]; shared across the per-point
/// tasks by taking one view per task.
pub struct BoundaryCacheView<'a>(RwLockReadGuard<'a, CacheInner>);

impl BoundaryCacheView<'_> {
    fn slot(
        slot: &OnceLock<(Matrix, Matrix)>,
        compute: impl FnOnce() -> Result<(Matrix, Matrix), NumericalError>,
    ) -> Result<&(Matrix, Matrix), NumericalError> {
        if let Some(pair) = slot.get() {
            counters::add(Counter::BoundaryCacheHits, 1);
            return Ok(pair);
        }
        let pair = compute()?;
        counters::add(Counter::BoundaryCacheMisses, 1);
        Ok(slot.get_or_init(|| pair))
    }

    /// `(Σᴿ_left, Σᴿ_right)` for electron grid point `idx`, computing and
    /// storing it on first access. The section must have been bound via
    /// [`BoundaryCache::bind_electron`] with at least `idx + 1` points.
    pub fn electron(
        &self,
        idx: usize,
        compute: impl FnOnce() -> Result<(Matrix, Matrix), NumericalError>,
    ) -> Result<&(Matrix, Matrix), NumericalError> {
        Self::slot(&self.0.electron[idx], compute)
    }

    /// `(Πᴿ_left, Πᴿ_right)` for phonon grid point `idx`.
    pub fn phonon(
        &self,
        idx: usize,
        compute: impl FnOnce() -> Result<(Matrix, Matrix), NumericalError>,
    ) -> Result<&(Matrix, Matrix), NumericalError> {
        Self::slot(&self.0.phonon[idx], compute)
    }
}

/// Broadening matrix `Γ = i(Σᴿ − Σᴿ†)`.
pub fn gamma(sigma_r: &Matrix) -> Matrix {
    let mut d = sigma_r.clone();
    d -= &sigma_r.dagger();
    d.scale(Complex64::I)
}

/// Electron lesser/greater boundary self-energies at occupation `f`.
pub fn electron_lesser_greater(sigma_r: &Matrix, f: f64) -> (Matrix, Matrix) {
    let g = gamma(sigma_r);
    let lesser = g.scale(c64(0.0, f));
    let greater = g.scale(c64(0.0, f - 1.0));
    (lesser, greater)
}

/// Phonon lesser/greater boundary self-energies at Bose occupation `n`.
pub fn phonon_lesser_greater(pi_r: &Matrix, n: f64) -> (Matrix, Matrix) {
    let g = gamma(pi_r);
    let lesser = g.scale(c64(0.0, -n));
    let greater = g.scale(c64(0.0, -(n + 1.0)));
    (lesser, greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::hamiltonian::{ElectronModel, PhononModel};
    use crate::params::SimParams;

    fn electron_setup() -> (Matrix, Matrix, Matrix, Matrix) {
        let p = SimParams::test_small();
        let dev = Device::new(&p);
        let em = ElectronModel::for_params(&p);
        let h = em.hamiltonian(&dev, 0.3);
        let s = em.overlap_matrix(&dev, 0.3);
        (
            h.diag(0).clone(),
            h.upper(0).clone(),
            s.diag(0).clone(),
            s.upper(0).clone(),
        )
    }

    #[test]
    fn surface_sigma_converges_and_dissipates() {
        let (h00, h01, s00, s01) = electron_setup();
        let cfg = BoundaryConfig::default();
        let z = c64(0.1, cfg.eta);
        let out = surface_self_energy(z, &h00, &h01, &s00, &s01, Side::Left, &cfg).unwrap();
        assert!(out.converged);
        assert!(out.iterations > 0 && out.iterations <= cfg.max_iter);
        assert!(out.residual < cfg.tol);
        let sig = out.sigma;
        // A retarded self-energy has a negative anti-Hermitian part:
        // Γ = i(Σ − Σ†) must be positive semidefinite; check via its trace
        // and smallest Rayleigh quotient over basis vectors.
        let g = gamma(&sig);
        let tr = g.trace();
        assert!(tr.re >= -1e-10, "tr Γ = {tr} must be non-negative");
        assert!(tr.im.abs() < 1e-10);
        assert!(g.is_hermitian(1e-10));
    }

    #[test]
    fn decimation_matches_fixed_point() {
        // The surface GF satisfies gs = (z·S00 − H00 − (z·S10−H10) gs (z·S01−H01))^{-1}
        // ... for the left-pointing lead. Verify the fixed-point residual.
        let (h00, h01, s00, s01) = electron_setup();
        let cfg = BoundaryConfig {
            eta: 1e-3,
            ..Default::default()
        };
        let z = c64(0.05, cfg.eta);
        // Sigma_left = beta gs alpha, so gs can be recovered:
        // compute directly with the same recursion internals by solving the
        // fixed point iteratively from scratch here.
        let zs = |s: &Matrix, h: &Matrix| {
            let mut m = s.scale(z);
            m -= h;
            m
        };
        let alpha0 = zs(&s01, &h01);
        let beta0 = zs(&s01.dagger(), &h01.dagger());
        let e0 = zs(&s00, &h00);
        // Brute-force fixed point iteration.
        let mut gs = invert(&e0).unwrap();
        for _ in 0..4000 {
            let mut m = e0.clone();
            let corr = beta0.matmul(&gs).matmul(&alpha0);
            m -= &corr;
            gs = invert(&m).unwrap();
        }
        let sigma_fp = beta0.matmul(&gs).matmul(&alpha0);
        let sigma_sr = surface_self_energy(z, &h00, &h01, &s00, &s01, Side::Left, &cfg)
            .unwrap()
            .sigma;
        let rel = sigma_fp.max_abs_diff(&sigma_sr) / sigma_sr.max_abs().max(1e-30);
        assert!(rel < 1e-6, "decimation vs fixed point rel err {rel}");
    }

    #[test]
    fn electron_occupations_bracket() {
        let (h00, h01, s00, s01) = electron_setup();
        let cfg = BoundaryConfig::default();
        let sig = surface_self_energy(c64(0.2, cfg.eta), &h00, &h01, &s00, &s01, Side::Right, &cfg)
            .unwrap()
            .sigma;
        let (l_full, g_full) = electron_lesser_greater(&sig, 1.0);
        let (l_empty, g_empty) = electron_lesser_greater(&sig, 0.0);
        // f = 1: Σ> = 0; f = 0: Σ< = 0.
        assert!(g_full.max_abs() < 1e-12);
        assert!(l_empty.max_abs() < 1e-12);
        // Identity Σ> − Σ< = Σᴿ − Σᴬ at any occupation.
        for (l, g) in [(l_full, g_full), (l_empty, g_empty)] {
            let mut lhs = g.clone();
            lhs -= &l;
            let mut rhs = sig.clone();
            rhs -= &sig.dagger();
            assert!(lhs.max_abs_diff(&rhs) < 1e-10);
        }
    }

    #[test]
    fn boundary_cache_memoizes_and_invalidates() {
        let cache = BoundaryCache::new();
        cache.bind_electron(42, 3);
        let mk = || {
            Ok((
                Matrix::identity(2),
                Matrix::identity(2).scale(c64(2.0, 0.0)),
            ))
        };
        {
            let v = cache.view();
            let first = v.electron(1, mk).unwrap();
            assert_eq!(first.1[(0, 0)], c64(2.0, 0.0));
            // Second access must replay the stored pair, not recompute.
            let again = v
                .electron(1, || panic!("cached slot must not recompute"))
                .unwrap();
            assert_eq!(again.0.as_slice(), Matrix::identity(2).as_slice());
        }
        // Re-binding with the same key keeps entries.
        cache.bind_electron(42, 3);
        cache
            .view()
            .electron(1, || panic!("same-key rebind must keep entries"))
            .unwrap();
        // A different key (H/grid changed) drops them.
        cache.bind_electron(43, 3);
        let mut recomputed = false;
        cache
            .view()
            .electron(1, || {
                recomputed = true;
                mk()
            })
            .unwrap();
        assert!(recomputed, "key change must invalidate");
        // Explicit invalidation hook.
        cache.bind_phonon(7, 2);
        cache.view().phonon(0, mk).unwrap();
        cache.invalidate();
        cache.bind_phonon(7, 2);
        let mut recomputed = false;
        cache
            .view()
            .phonon(0, || {
                recomputed = true;
                mk()
            })
            .unwrap();
        assert!(recomputed);
    }

    #[test]
    fn non_convergent_decimation_surfaces_error() {
        // One decimation round cannot drive the coupling norm below 1e-12
        // for a propagating energy; with the eta-bump retry disabled the
        // failure must surface as BoundaryNonConvergence, never as a
        // silently wrong Σ.
        let (h00, h01, s00, s01) = electron_setup();
        let cfg = BoundaryConfig {
            eta: 1e-8,
            max_iter: 1,
            eta_bump: 0.0,
            ..Default::default()
        };
        let z = c64(0.1, cfg.eta);
        let err = surface_self_energy(z, &h00, &h01, &s00, &s01, Side::Left, &cfg).unwrap_err();
        match err {
            NumericalError::BoundaryNonConvergence { iters, residual } => {
                assert_eq!(iters, 1);
                assert!(residual >= cfg.tol);
            }
            other => panic!("expected BoundaryNonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn eta_bump_retry_recovers_slow_convergence() {
        // Pick an iteration budget that fails at the base eta but succeeds
        // once the retry adds eta_bump of broadening (larger broadening
        // makes the decimation couplings decay faster). Find the budget
        // empirically so the test tracks the model, not magic numbers.
        let (h00, h01, s00, s01) = electron_setup();
        let probe = |eta: f64| {
            let cfg = BoundaryConfig {
                eta,
                eta_bump: 0.0,
                ..Default::default()
            };
            surface_self_energy(c64(0.1, eta), &h00, &h01, &s00, &s01, Side::Left, &cfg)
                .unwrap()
                .iterations
        };
        let base_eta = 1e-8;
        let bump = 0.05;
        let need_base = probe(base_eta);
        let need_bumped = probe(base_eta + bump);
        assert!(
            need_bumped < need_base,
            "broadening must speed up convergence ({need_bumped} vs {need_base})"
        );
        let cfg = BoundaryConfig {
            eta: base_eta,
            max_iter: need_base - 1,
            eta_bump: bump,
            ..Default::default()
        };
        let retries0 = counters::total(Counter::HealthEtaRetries);
        let out = surface_self_energy(c64(0.1, base_eta), &h00, &h01, &s00, &s01, Side::Left, &cfg)
            .unwrap();
        assert!(out.converged);
        assert_eq!(out.eta_retries, 1);
        assert!(counters::total(Counter::HealthEtaRetries) > retries0);
    }

    #[test]
    fn poisoned_cache_recovers_instead_of_panicking() {
        let cache = BoundaryCache::new();
        cache.bind_electron(42, 3);
        let mk = || {
            Ok((
                Matrix::identity(2),
                Matrix::identity(2).scale(c64(2.0, 0.0)),
            ))
        };
        cache.view().electron(1, mk).unwrap();
        cache.poison_for_test();
        // Every public entry point must recover (rebuilding the cache)
        // rather than panicking mid-SCF. Recovery drops stored entries.
        cache.bind_electron(42, 3);
        let mut recomputed = false;
        cache
            .view()
            .electron(1, || {
                recomputed = true;
                mk()
            })
            .unwrap();
        assert!(recomputed, "poison recovery must drop stale entries");
        // Poison again and recover through the read path directly.
        cache.poison_for_test();
        let v = cache.view();
        drop(v);
        // And through invalidate + phonon bind.
        cache.poison_for_test();
        cache.invalidate();
        cache.poison_for_test();
        cache.bind_phonon(7, 2);
        cache.view().phonon(0, mk).unwrap();
    }

    #[test]
    fn key_hasher_separates_inputs() {
        let (h00, h01, _, _) = electron_setup();
        let mut a = KeyHasher::new();
        a.matrix(&h00).matrix(&h01).f64(1e-3);
        let mut b = KeyHasher::new();
        b.matrix(&h00).matrix(&h01).f64(1e-3);
        assert_eq!(a.finish(), b.finish(), "identical inputs -> identical key");
        let mut c = KeyHasher::new();
        let mut h00b = h00.clone();
        h00b[(0, 0)] += c64(1e-15, 0.0);
        c.matrix(&h00b).matrix(&h01).f64(1e-3);
        assert_ne!(a.finish(), c.finish(), "bit-level change -> new key");
        assert_ne!(a.finish(), 0, "finished keys are never the unbound value");
    }

    #[test]
    fn phonon_boundary_identity() {
        let p = SimParams::test_small();
        let dev = Device::new(&p);
        let pm = PhononModel::default();
        let phi = pm.dynamical(&dev, 0.5);
        let cfg = BoundaryConfig {
            eta: 1e-6,
            ..Default::default()
        };
        let w: f64 = 0.02;
        let z = c64(w * w, cfg.eta);
        let eye = Matrix::identity(phi.block_size());
        let zero = Matrix::zeros(phi.block_size(), phi.block_size());
        let pi = surface_self_energy(z, phi.diag(0), phi.upper(0), &eye, &zero, Side::Left, &cfg)
            .unwrap()
            .sigma;
        let n = 0.7;
        let (l, g) = phonon_lesser_greater(&pi, n);
        let mut lhs = g.clone();
        lhs -= &l;
        let mut rhs = pi.clone();
        rhs -= &pi.dagger();
        assert!(lhs.max_abs_diff(&rhs) < 1e-10, "Π> − Π< = Πᴿ − Πᴬ");
    }
}
