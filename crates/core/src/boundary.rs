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
use crate::rgf::lead_support;
use qt_linalg::gemm::gemm_acc_gathered;
use qt_linalg::{c64, invert, par, Complex64, Matrix};
use qt_telemetry::counters::{self, Counter};
use std::borrow::Cow;
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

/// One Sancho–Rubio decimation pass at fixed `z`, at the support of the
/// lead's coupling.
///
/// Decimation on the A = z·S − H blocks: eliminating every other block
/// renormalizes the surface block as `eps_s -= α·g·β` (chain extending in
/// the +direction through α) or `eps_s -= β·g·α` (−direction), with
/// `g = eps⁻¹` and
///
/// ```text
/// eps -= α·g·β + β·g·α,   α ← α·g·α,   β ← β·g·β.
/// ```
///
/// The sign pattern follows from Gaussian elimination of A·x = I; the minus
/// signs in the coupling updates cancel pairwise in all accumulated
/// products. Every `α_n` lives on `R × C` and every `β_n` on `C × R`
/// ([`lead_support`]), so they are held compact and every product runs on
/// the support, each through [`gemm_acc_gathered`] with the route, slices
/// and summation order of the dense `bs³` product it replaces: the dropped
/// terms are exact `±0`s, and `eps`/`eps_s` change only on the `R × R` and
/// `C × C` blocks the dense update touches with nonzeros. The output has
/// the dense decimation's bits (the test oracle `decimate_dense`). A lead
/// whose coupling touches every orbital runs the same code with whole
/// index lists and no gather copies.
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
    let alpha0 = zs(s01, h01);
    let beta0 = zs(&s01.dagger(), &h01.dagger());
    let bs = alpha0.rows();
    let full = (bs, bs, bs);
    let (r, c) = lead_support(&alpha0, &beta0);
    let mut su: Vec<usize> = r.iter().chain(&c).copied().collect();
    su.sort_unstable();
    su.dedup();
    // Where each of `r`/`c` sits in `su`, which holds them all.
    let pos = |list: &[usize]| -> Vec<usize> {
        list.iter()
            .map(|&i| su.partition_point(|&x| x < i))
            .collect()
    };
    let (r_in_s, c_in_s) = (pos(&r), pos(&c));
    let mut alpha = gather(&alpha0, &r, &c).into_owned();
    let mut beta = gather(&beta0, &c, &r).into_owned();
    let mut eps = zs(s00, h00);
    // Surface onsite for the chain extending away from the device.
    let mut eps_s = eps.clone();
    let mut iterations = 0;
    let mut residual = support_norm(&alpha).max(support_norm(&beta));
    while residual >= cfg.tol && iterations < cfg.max_iter {
        let g = invert(&eps)?;
        let mut ag = Matrix::zeros(r.len(), su.len());
        gemm_acc_gathered(full, &c, &alpha, &gather(&g, &c, &su), &mut ag);
        let mut bg = Matrix::zeros(c.len(), su.len());
        gemm_acc_gathered(full, &r, &beta, &gather(&g, &r, &su), &mut bg);
        let mut agb = Matrix::zeros(r.len(), r.len());
        gemm_acc_gathered(full, &c, &gather_cols(&ag, &c_in_s), &beta, &mut agb);
        let mut bga = Matrix::zeros(c.len(), c.len());
        gemm_acc_gathered(full, &r, &gather_cols(&bg, &r_in_s), &alpha, &mut bga);
        match side {
            // Left lead extends toward −∞: its exposed (rightmost) block is
            // renormalized through the β-direction.
            Side::Left => sub_at(&mut eps_s, &c, &bga),
            // Right lead extends toward +∞ through α.
            Side::Right => sub_at(&mut eps_s, &r, &agb),
        }
        sub_at(&mut eps, &r, &agb);
        sub_at(&mut eps, &c, &bga);
        let mut next = Matrix::zeros(r.len(), c.len());
        gemm_acc_gathered(full, &r, &gather_cols(&ag, &r_in_s), &alpha, &mut next);
        alpha = next;
        let mut next = Matrix::zeros(c.len(), r.len());
        gemm_acc_gathered(full, &c, &gather_cols(&bg, &c_in_s), &beta, &mut next);
        beta = next;
        iterations += 1;
        residual = support_norm(&alpha).max(support_norm(&beta));
    }
    surface_from(side, &alpha0, &beta0, &eps_s, iterations, residual, cfg)
}

/// The end of a decimation: the convergence verdict and, from the surface
/// block `eps_s`, `Σᴿ` through the lead's original couplings.
fn surface_from(
    side: Side,
    alpha0: &Matrix,
    beta0: &Matrix,
    eps_s: &Matrix,
    iterations: usize,
    residual: f64,
    cfg: &BoundaryConfig,
) -> Result<SurfaceSelfEnergy, NumericalError> {
    if residual >= cfg.tol || !residual.is_finite() {
        return Err(NumericalError::BoundaryNonConvergence {
            iters: iterations,
            residual,
        });
    }
    let gs = invert(eps_s)?;
    // Left lead couples into device block 0 via A_{0,−1} = β;
    // right lead via A_{N−1,N} = α.
    let sigma = match side {
        Side::Left => beta0.matmul(&gs).matmul(alpha0),
        Side::Right => alpha0.matmul(&gs).matmul(beta0),
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

/// `m[rows, cols]`, borrowed when both lists are whole.
fn gather<'a>(m: &'a Matrix, rows: &[usize], cols: &[usize]) -> Cow<'a, Matrix> {
    if rows.len() == m.rows() {
        return gather_cols(m, cols);
    }
    Cow::Owned(Matrix::from_fn(rows.len(), cols.len(), |i, j| {
        m[(rows[i], cols[j])]
    }))
}

/// The columns `cols` of `m`, borrowed when the list is whole.
fn gather_cols<'a>(m: &'a Matrix, cols: &[usize]) -> Cow<'a, Matrix> {
    if cols.len() == m.cols() {
        return Cow::Borrowed(m);
    }
    Cow::Owned(Matrix::from_fn(m.rows(), cols.len(), |i, j| {
        m[(i, cols[j])]
    }))
}

/// `dst[idx, idx] -= src`, entry by entry as the dense `-=`.
fn sub_at(dst: &mut Matrix, idx: &[usize], src: &Matrix) {
    for (i, &ri) in idx.iter().enumerate() {
        for (j, &cj) in idx.iter().enumerate() {
            dst[(ri, cj)] -= src[(i, j)];
        }
    }
}

/// The Frobenius norm of a compact coupling, with the dense norm's bits:
/// the entries off the support add `+0` to the same running sum. An empty
/// support is the dense norm of a zero block, `+0`.
fn support_norm(m: &Matrix) -> f64 {
    if m.as_slice().is_empty() {
        0.0
    } else {
        m.norm()
    }
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

/// One grid point's memoized `(Σᴿ_left, Σᴿ_right)`.
pub type Slot = OnceLock<(Matrix, Matrix)>;

/// `n` empty slots.
pub fn slots(n: usize) -> Vec<Slot> {
    (0..n).map(|_| OnceLock::new()).collect()
}

#[derive(Default)]
struct CacheInner {
    electron_key: u64,
    electron: Vec<Slot>,
    phonon_key: u64,
    phonon: Vec<Slot>,
}

impl CacheInner {
    /// True when the electron (or phonon) section is bound to `key` with
    /// `n` points.
    fn is_bound(&self, electron: bool, key: u64, n: usize) -> bool {
        let (k, slots) = match electron {
            true => (self.electron_key, &self.electron),
            false => (self.phonon_key, &self.phonon),
        };
        k == key && slots.len() == n
    }

    /// Bind the electron (or phonon) section to `key` with `n` empty
    /// slots.
    fn rebind(&mut self, electron: bool, key: u64, n: usize) {
        let (k, slots_of) = match electron {
            true => (&mut self.electron_key, &mut self.electron),
            false => (&mut self.phonon_key, &mut self.phonon),
        };
        *k = key;
        *slots_of = slots(n);
    }
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
/// with the current identity key (the write lock only to invalidate stale
/// entries) and holds the [`BoundaryCacheView`] (read lock) that returns
/// for the rest of the phase: its [`fill`] pass solves the empty slots
/// (per-slot `OnceLock`) and its point tasks read them.
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

    /// Bind the electron section to `key` with `n` grid points and return
    /// a view of that binding. A key or size mismatch drops every stored
    /// electron entry. A binding that is already current takes only the
    /// read lock, so the phases of concurrent solves of one device share
    /// the cache without waiting for each other's views.
    pub fn bind_electron(&self, key: u64, n: usize) -> BoundaryCacheView<'_> {
        self.bind(true, key, n)
    }

    /// Bind the phonon section to `key` with `n` grid points, as
    /// [`Self::bind_electron`].
    pub fn bind_phonon(&self, key: u64, n: usize) -> BoundaryCacheView<'_> {
        self.bind(false, key, n)
    }

    fn bind(&self, electron: bool, key: u64, n: usize) -> BoundaryCacheView<'_> {
        loop {
            let view = self.view();
            if view.0.is_bound(electron, key, n) {
                return view;
            }
            drop(view);
            let mut inner = self.write_recover();
            if !inner.is_bound(electron, key, n) {
                inner.rebind(electron, key, n);
            }
            // Another binding may win the lock before the view is taken
            // again; the loop then rebinds.
        }
    }

    /// Drop every stored entry (e.g. after mutating the Hamiltonian in
    /// place). Binding with the correct key makes this automatic; the
    /// explicit hook exists for callers that know they invalidated state.
    pub fn invalidate(&self) {
        let mut inner = self.write_recover();
        *inner = CacheInner::default();
    }

    /// Shared read view for the duration of a phase.
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

/// Read-locked access to a [`BoundaryCache`], held by a phase and shared
/// by its fill pass and point tasks.
pub struct BoundaryCacheView<'a>(RwLockReadGuard<'a, CacheInner>);

impl BoundaryCacheView<'_> {
    /// The electron slots, one per `(kz, E)` point, as bound by
    /// [`BoundaryCache::bind_electron`].
    pub fn electron(&self) -> &[Slot] {
        &self.0.electron
    }

    /// The phonon slots, one per `(qz, ω)` point.
    pub fn phonon(&self) -> &[Slot] {
        &self.0.phonon
    }
}

/// The boundary fill pass of a GF phase: both sides of every point whose
/// slot is empty, `solve(point, side)`, as one [`par::map`] over
/// `(point, side)`. A point's slot is set once both its sides succeed; a
/// point with a failed side keeps an empty slot, so the next phase solves
/// it again.
///
/// With `counted` (a [`BoundaryCache`]'s slots, not a phase-local store)
/// every point counts once: a hit when its slot was already filled, a miss
/// when the pass solved it. A pass that finds every slot filled posts no
/// job and allocates nothing.
pub fn fill(
    slots: &[Slot],
    counted: bool,
    solve: impl Fn(usize, Side) -> Result<Matrix, NumericalError> + Sync,
) -> Filled<'_> {
    let mut filled = Filled {
        slots,
        failed: Vec::new(),
    };
    let count = |counter: Counter, n: usize| {
        if counted {
            counters::add(counter, n as u64);
        }
    };
    if slots.iter().all(|slot| slot.get().is_some()) {
        count(Counter::BoundaryCacheHits, slots.len());
        return filled;
    }
    let todo: Vec<usize> = (0..slots.len())
        .filter(|&i| slots[i].get().is_none())
        .collect();
    count(Counter::BoundaryCacheHits, slots.len() - todo.len());
    let side = |t: usize| {
        if t.is_multiple_of(2) {
            Side::Left
        } else {
            Side::Right
        }
    };
    let mut sides = par::map(2 * todo.len(), |t| solve(todo[t / 2], side(t))).into_iter();
    for &i in &todo {
        match (sides.next(), sides.next()) {
            (Some(Ok(left)), Some(Ok(right))) => {
                // A concurrent phase on the same binding may have set it
                // first, to the same bits.
                let _ = slots[i].set((left, right));
            }
            (Some(Err(e)), _) | (_, Some(Err(e))) => filled.failed.push((i, e)),
            _ => unreachable!("par::map returns one result per side"),
        }
    }
    count(Counter::BoundaryCacheMisses, todo.len());
    filled
}

/// The slots after a [`fill`] pass, with the errors of the points it left
/// empty.
pub struct Filled<'a> {
    slots: &'a [Slot],
    /// `(point, error of its first failed side)`: left before right.
    failed: Vec<(usize, NumericalError)>,
}

impl<'a> Filled<'a> {
    /// `(Σᴿ_left, Σᴿ_right)` of point `idx`, or the error that left its
    /// slot empty.
    pub fn get(&self, idx: usize) -> Result<&'a (Matrix, Matrix), NumericalError> {
        match self.slots[idx].get() {
            Some(pair) => Ok(pair),
            None => Err(self
                .failed
                .iter()
                .find(|(i, _)| *i == idx)
                .map(|(_, e)| e.clone())
                .expect("a slot stays empty only with its error")),
        }
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// The dense decimation [`decimate`] replaced: every round six
    /// `bs³` products on whole blocks. The oracle its bits are held to.
    fn decimate_dense(
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
        let alpha0 = zs(s01, h01);
        let beta0 = zs(&s01.dagger(), &h01.dagger());
        let mut alpha = alpha0.clone();
        let mut beta = beta0.clone();
        let mut eps = zs(s00, h00);
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
                Side::Left => eps_s -= &bga,
                Side::Right => eps_s -= &agb,
            }
            eps -= &agb;
            eps -= &bga;
            alpha = ag.matmul(&alpha);
            beta = bg.matmul(&beta);
            iterations += 1;
            residual = alpha.norm().max(beta.norm());
        }
        surface_from(side, &alpha0, &beta0, &eps_s, iterations, residual, cfg)
    }

    /// A decimation's outcome as bits: Σᴿ's re/im lanes, the iteration
    /// count, the residual and the retries — or the error.
    fn outcome_bits(r: &Outcome) -> String {
        match r {
            Ok(out) => {
                let lanes: Vec<(u64, u64)> = out
                    .sigma
                    .as_slice()
                    .iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect();
                format!(
                    "ok {lanes:?} iters {} residual {:#x} retries {}",
                    out.iterations,
                    out.residual.to_bits(),
                    out.eta_retries
                )
            }
            Err(NumericalError::BoundaryNonConvergence { iters, residual }) => {
                format!("nonconv {iters} {:#x}", residual.to_bits())
            }
            Err(e) => format!("err {e:?}"),
        }
    }

    /// One periodic lead.
    struct Lead {
        h00: Matrix,
        h01: Matrix,
        s00: Matrix,
        s01: Matrix,
    }

    type Outcome = Result<SurfaceSelfEnergy, NumericalError>;

    impl Lead {
        /// [`surface_self_energy`] of this lead.
        fn surface(&self, z: Complex64, side: Side, cfg: &BoundaryConfig) -> Outcome {
            surface_self_energy(z, &self.h00, &self.h01, &self.s00, &self.s01, side, cfg)
        }

        /// [`surface_self_energy`]'s eta-bump retry over
        /// [`decimate_dense`].
        fn surface_dense(&self, z: Complex64, side: Side, cfg: &BoundaryConfig) -> Outcome {
            let run = |z| decimate_dense(z, &self.h00, &self.h01, &self.s00, &self.s01, side, cfg);
            match run(z) {
                Err(first) if cfg.eta_bump > 0.0 => match run(z + c64(0.0, cfg.eta_bump)) {
                    Ok(mut out) => {
                        out.eta_retries = 1;
                        Ok(out)
                    }
                    Err(_) => Err(first),
                },
                other => other,
            }
        }
    }

    /// The coupling supports the oracle covers, as `(row, col)` masks of
    /// `h01`/`s01`.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Full,
        Disjoint,
        Overlapping,
        ZeroRowAndColumn,
        /// Sparse everywhere, two zero rows and a zero column, at a
        /// negative energy: the zeros of `α₀`, `β₀` and `eps` come out
        /// `-0`, inside the support and off it.
        NegativeZeros,
    }

    impl Shape {
        fn keeps(self, bs: usize, i: usize, j: usize) -> bool {
            match self {
                Shape::Full => true,
                Shape::Disjoint => i < bs / 2 && j >= bs / 2,
                Shape::Overlapping => i < 2 * bs / 3 && j >= bs / 3,
                Shape::ZeroRowAndColumn => i != 1 && j != bs - 2,
                Shape::NegativeZeros => (i + 2 * j).is_multiple_of(3) && i < bs - 2 && j > 0,
            }
        }
    }

    /// A seeded lead of block size `bs` whose couplings live on `shape`:
    /// electron form (`s01 ≠ 0`) or phonon form (`S = I`, `s01 = 0`).
    fn seeded_lead(bs: usize, shape: Shape, electron: bool, seed: u64) -> Lead {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h00 = Matrix::random_hermitian(bs, &mut rng);
        let mut s00 = Matrix::identity(bs);
        let mut h01 = Matrix::random(bs, bs, &mut rng).scale(c64(0.4, 0.0));
        let mut s01 = if electron {
            Matrix::random(bs, bs, &mut rng).scale(c64(0.05, 0.0))
        } else {
            Matrix::zeros(bs, bs)
        };
        for i in 0..bs {
            for j in 0..bs {
                if !shape.keeps(bs, i, j) {
                    h01[(i, j)] = Complex64::ZERO;
                    s01[(i, j)] = Complex64::ZERO;
                }
                if matches!(shape, Shape::NegativeZeros) && i != j && (i + j) % 2 == 1 {
                    h00[(i, j)] = Complex64::ZERO;
                }
            }
            if electron {
                s00[(i, i)] = c64(1.0 + 0.1 * rng.random_range(0.0..1.0), 0.0);
            }
        }
        Lead { h00, h01, s00, s01 }
    }

    #[test]
    fn support_decimation_has_the_dense_bits() {
        let shapes = [
            Shape::Full,
            Shape::Disjoint,
            Shape::Overlapping,
            Shape::ZeroRowAndColumn,
            Shape::NegativeZeros,
        ];
        let cfg = BoundaryConfig {
            eta: 0.05,
            ..Default::default()
        };
        let mut converged = 0;
        for bs in [4, 8, 13, 16, 24] {
            for (si, &shape) in shapes.iter().enumerate() {
                for electron in [true, false] {
                    let seed = 100 * bs as u64 + 10 * si as u64 + electron as u64;
                    let lead = seeded_lead(bs, shape, electron, seed);
                    let re = match shape {
                        Shape::NegativeZeros => -0.3,
                        _ => 0.2,
                    };
                    let z = c64(re, cfg.eta);
                    for side in [Side::Left, Side::Right] {
                        let what = format!("bs {bs} {shape:?} electron {electron} {side:?}");
                        let got = lead.surface(z, side, &cfg);
                        let want = lead.surface_dense(z, side, &cfg);
                        assert_eq!(outcome_bits(&got), outcome_bits(&want), "{what}");
                        converged += got.is_ok() as usize;
                    }
                }
            }
        }
        assert_eq!(converged, 100, "every lead converges at this broadening");
    }

    #[test]
    fn support_decimation_keeps_the_retry_bits() {
        // A budget one round short at the base broadening fires the
        // eta-bump retry; the retried Σᴿ and the first failure keep the
        // dense bits.
        let lead = seeded_lead(13, Shape::Overlapping, true, 7);
        let z = c64(0.2, 1e-6);
        let probe = BoundaryConfig {
            eta_bump: 0.0,
            ..Default::default()
        };
        let need = lead.surface(z, Side::Right, &probe).unwrap().iterations;
        for eta_bump in [0.05, 0.0] {
            let cfg = BoundaryConfig {
                max_iter: need - 1,
                eta_bump,
                ..Default::default()
            };
            for side in [Side::Left, Side::Right] {
                let got = lead.surface(z, side, &cfg);
                let want = lead.surface_dense(z, side, &cfg);
                assert_eq!(outcome_bits(&got), outcome_bits(&want), "bump {eta_bump}");
                if eta_bump > 0.0 && side == Side::Right {
                    assert_eq!(got.unwrap().eta_retries, 1, "the retry must fire");
                }
            }
        }
    }

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

    /// A stand-in side solve: `I` on the left, `2·I` on the right.
    fn mk(_: usize, side: Side) -> Result<Matrix, NumericalError> {
        Ok(match side {
            Side::Left => Matrix::identity(2),
            Side::Right => Matrix::identity(2).scale(c64(2.0, 0.0)),
        })
    }

    #[test]
    fn boundary_cache_memoizes_and_invalidates() {
        let cache = BoundaryCache::new();
        cache.bind_electron(42, 3);
        {
            let v = cache.view();
            let first = fill(v.electron(), true, mk).get(1).unwrap();
            assert_eq!(first.1[(0, 0)], c64(2.0, 0.0));
            // Second access must replay the stored pair, not recompute.
            let again = fill(v.electron(), true, |_, _| {
                panic!("cached slot must not recompute")
            })
            .get(1)
            .unwrap();
            assert_eq!(again.0.as_slice(), Matrix::identity(2).as_slice());
        }
        // Re-binding with the same key keeps entries.
        cache.bind_electron(42, 3);
        fill(cache.view().electron(), true, |_, _| {
            panic!("same-key rebind must keep entries")
        })
        .get(1)
        .unwrap();
        // A different key (H/grid changed) drops them.
        cache.bind_electron(43, 3);
        let recomputed = AtomicBool::new(false);
        fill(cache.view().electron(), true, |i, side| {
            recomputed.store(true, Ordering::Relaxed);
            mk(i, side)
        })
        .get(1)
        .unwrap();
        assert!(recomputed.into_inner(), "key change must invalidate");
        // Explicit invalidation hook.
        cache.bind_phonon(7, 2);
        fill(cache.view().phonon(), true, mk).get(0).unwrap();
        cache.invalidate();
        cache.bind_phonon(7, 2);
        let recomputed = AtomicBool::new(false);
        fill(cache.view().phonon(), true, |i, side| {
            recomputed.store(true, Ordering::Relaxed);
            mk(i, side)
        })
        .get(0)
        .unwrap();
        assert!(recomputed.into_inner());
    }

    #[test]
    fn fill_counts_per_point_and_retries_a_failed_side() {
        let store = slots(4);
        let solves = AtomicUsize::new(0);
        let hits = || counters::local(Counter::BoundaryCacheHits);
        let misses = || counters::local(Counter::BoundaryCacheMisses);
        let (h0, m0) = (hits(), misses());
        // Cold: point 2's right side fails; its slot stays empty and
        // `get` hands back that side's error.
        let failing = NumericalError::BoundaryNonConvergence {
            iters: 3,
            residual: 0.5,
        };
        let cold = fill(&store, true, |i, side| {
            solves.fetch_add(1, Ordering::Relaxed);
            if (i, side) == (2, Side::Right) {
                Err(failing.clone())
            } else {
                mk(i, side)
            }
        });
        assert_eq!(
            solves.load(Ordering::Relaxed),
            8,
            "both sides of every point"
        );
        assert_eq!((hits() - h0, misses() - m0), (0, 4));
        assert!(cold.get(1).is_ok() && store[2].get().is_none());
        assert_eq!(
            format!("{:?}", cold.get(2).unwrap_err()),
            format!("{failing:?}")
        );
        // Reading counts nothing.
        assert_eq!((hits() - h0, misses() - m0), (0, 4));
        // Next pass: only point 2 is solved again, and it is the one miss.
        solves.store(0, Ordering::Relaxed);
        let warm = fill(&store, true, |i, side| {
            solves.fetch_add(1, Ordering::Relaxed);
            mk(i, side)
        });
        assert_eq!(solves.load(Ordering::Relaxed), 2);
        assert_eq!((hits() - h0, misses() - m0), (3, 5));
        assert_eq!(warm.get(2).unwrap().1[(1, 1)], c64(2.0, 0.0));
        // A phase-local store counts nothing.
        fill(&slots(3), false, mk);
        assert_eq!((hits() - h0, misses() - m0), (3, 5));
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
        fill(cache.view().electron(), true, mk).get(1).unwrap();
        cache.poison_for_test();
        // Every public entry point must recover (rebuilding the cache)
        // rather than panicking mid-SCF. Recovery drops stored entries.
        cache.bind_electron(42, 3);
        let recomputed = AtomicBool::new(false);
        fill(cache.view().electron(), true, |i, side| {
            recomputed.store(true, Ordering::Relaxed);
            mk(i, side)
        })
        .get(1)
        .unwrap();
        assert!(
            recomputed.into_inner(),
            "poison recovery must drop stale entries"
        );
        // Poison again and recover through the read path directly.
        cache.poison_for_test();
        let v = cache.view();
        drop(v);
        // And through invalidate + phonon bind.
        cache.poison_for_test();
        cache.invalidate();
        cache.poison_for_test();
        cache.bind_phonon(7, 2);
        fill(cache.view().phonon(), true, mk).get(0).unwrap();
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
