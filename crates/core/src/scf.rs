//! Self-consistent GF ↔ SSE iteration (Fig. 2 / Fig. 6).
//!
//! "The algorithm starts by setting Σ≷ = Π≷ = 0 and continues by computing
//! all GFs under this condition. The latter then serve as inputs to the next
//! phase, where the SSE are evaluated … the process repeats itself until the
//! GF variations do not exceed a pre-defined threshold." (§2)
//!
//! The mixing step damps the Born iteration. It is one update: a linear
//! blend of the current and new self-energies, minus an optional Anderson
//! (type-II Pulay) extrapolation over a short history of earlier steps
//! ([`Anderson`]). With no history it is exactly the linear blend, which is
//! what [`run_scf`] runs; a caller that passes [`ScfOptions::accel`] gets
//! the accelerated iterates.

use crate::boundary::BoundaryCache;
use crate::checkpoint::{CheckpointConfig, ScfCheckpoint};
use crate::device::Device;
use crate::gf::{self, ElectronGf, ElectronSelfEnergy, GfConfig, PhononGf, PhononSelfEnergy};
use crate::grids::Grids;
use crate::hamiltonian::{ElectronModel, PhononModel};
use crate::health::NumericalError;
use crate::params::SimParams;
use crate::rgf;
use crate::sse::{self, SseInputs, SseVariant};
use qt_linalg::{c64, workspace, Complex64, Matrix, Tensor};
use qt_telemetry::counters::{self, Counter};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Everything needed to run a simulation, bundled.
pub struct Simulation {
    pub p: SimParams,
    pub dev: Device,
    pub em: ElectronModel,
    pub pm: PhononModel,
    pub grids: Grids,
    /// Hamiltonian derivative tensor `∇H[a, slot, i, :, :]`.
    pub dh: Tensor,
    /// Memoized contact self-energies, keyed on the Hamiltonian/grid
    /// identity; iteration 1 of the Born loop fills it, later iterations
    /// replay it. Call [`BoundaryCache::invalidate`] after mutating the
    /// models in place (a changed identity key also invalidates it
    /// automatically at the next GF phase).
    pub boundary: BoundaryCache,
    /// Stateless; kept for `qt-perf`, which passes it to
    /// [`gf::electron_gf_phase_cached`] (see [`rgf::KernelSelector`]).
    pub kernel_selector_e: rgf::KernelSelector,
    /// Stateless; kept for `qt-perf`, which passes it to
    /// [`gf::phonon_gf_phase_cached`].
    pub kernel_selector_ph: rgf::KernelSelector,
}

impl Simulation {
    /// Build a simulation over the energy window `[emin, emax]` (eV).
    pub fn new(p: SimParams, emin: f64, emax: f64) -> Self {
        Simulation::try_new(p, emin, emax).expect("invalid parameters")
    }

    /// Fallible [`Simulation::new`]: the entry point for user-supplied
    /// parameters (scenario files, `qt-serve` variant registration), where
    /// bad dimensions or an empty energy window must surface as an error
    /// instead of a panic.
    pub fn try_new(p: SimParams, emin: f64, emax: f64) -> Result<Self, String> {
        p.validate()?;
        let dev = Device::try_new(&p)?;
        let em = ElectronModel::for_params(&p);
        let pm = PhononModel::default();
        Simulation::from_parts(p, dev, em, pm, emin, emax)
    }

    /// Build a simulation with seeded defect/vacancy disorder: vacancy
    /// bonds are pruned from the device and the electron model carries the
    /// per-site on-site perturbation, both drawn deterministically from
    /// `disorder.seed` — the same seed always produces the same disordered
    /// device.
    pub fn disordered(
        p: SimParams,
        emin: f64,
        emax: f64,
        disorder: crate::hamiltonian::Disorder,
    ) -> Result<Self, String> {
        p.validate()?;
        let mut dev = Device::try_new(&p)?;
        dev.delete_sites(&disorder.vacancies(p.na));
        let mut em = ElectronModel::for_params(&p);
        em.disorder = Some(disorder);
        let pm = PhononModel::default();
        Simulation::from_parts(p, dev, em, pm, emin, emax)
    }

    /// Assemble a simulation from prebuilt parts (custom device/models —
    /// the scenario layer's geometry variants come through here). Checks
    /// `p` and the energy window; the caller is responsible for the parts
    /// being mutually consistent with `p`.
    pub fn from_parts(
        p: SimParams,
        dev: Device,
        em: ElectronModel,
        pm: PhononModel,
        emin: f64,
        emax: f64,
    ) -> Result<Self, String> {
        p.validate()?;
        if dev.na != p.na || dev.nb != p.nb || dev.bnum != p.bnum {
            return Err(format!(
                "device geometry ({}, {}, {}) disagrees with params ({}, {}, {})",
                dev.na, dev.nb, dev.bnum, p.na, p.nb, p.bnum
            ));
        }
        if em.norb != p.norb {
            return Err(format!(
                "electron model norb {} disagrees with params norb {}",
                em.norb, p.norb
            ));
        }
        let grids = Grids::try_new(&p, emin, emax)?;
        let dh = em.dh_tensor(&dev);
        Ok(Simulation {
            p,
            dev,
            em,
            pm,
            grids,
            dh,
            boundary: BoundaryCache::new(),
            kernel_selector_e: rgf::KernelSelector,
            kernel_selector_ph: rgf::KernelSelector,
        })
    }
}

/// Controls of the self-consistent Born loop.
#[derive(Clone, Copy, Debug)]
pub struct ScfConfig {
    pub max_iterations: usize,
    /// Convergence threshold on the relative change of `G<`.
    pub tolerance: f64,
    /// Linear mixing factor in `(0, 1]` applied to new self-energies.
    pub mixing: f64,
    /// Residual-divergence recovery: when true (default) the effective
    /// mixing factor is halved whenever the residual grows and cautiously
    /// restored toward `mixing` on sustained decrease. The per-iteration
    /// effective factor is recorded in the trajectory.
    pub adaptive_mixing: bool,
    /// Which SSE kernel implementation to use.
    pub variant: SseVariant,
    pub gf: GfConfig,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            max_iterations: 15,
            tolerance: 1e-6,
            mixing: 0.5,
            adaptive_mixing: true,
            variant: SseVariant::Dace,
            gf: GfConfig::default(),
        }
    }
}

/// Residual growth beyond this factor counts as divergence (small slack so
/// ordinary non-monotonic wiggles near convergence don't trigger backoff).
const MIXING_GROWTH_TRIGGER: f64 = 1.05;
/// Consecutive residual decreases required before restoring mixing.
const MIXING_RESTORE_STREAK: u32 = 2;

/// Adaptive damping of the Born iteration: halve the effective mixing
/// factor when the `G<` residual grows (the classic signature of an
/// over-aggressive linear mixing), restore it multiplicatively toward the
/// configured base after sustained decrease. The controller never exceeds
/// the base factor and never drops below `base/64` (at that point damping
/// is no longer the problem).
#[derive(Clone, Copy, Debug)]
pub struct MixingController {
    base: f64,
    /// Effective mixing factor applied this iteration.
    pub current: f64,
    prev: Option<f64>,
    streak: u32,
    enabled: bool,
}

impl MixingController {
    pub fn new(base: f64, enabled: bool) -> Self {
        MixingController {
            base,
            current: base,
            prev: None,
            streak: 0,
            enabled,
        }
    }

    /// Rebuild mid-run state from a checkpoint.
    pub fn restore(base: f64, enabled: bool, ck: &ScfCheckpoint) -> Self {
        MixingController {
            base,
            current: if enabled { ck.mixing_current } else { base },
            prev: ck.prev_residual,
            streak: ck.decrease_streak,
            enabled,
        }
    }

    /// Feed the residual observed *before* this iteration's mixing step;
    /// adjusts `current` for the upcoming mix and returns whether it backed
    /// off. Non-finite residuals (the first iteration has none) leave the
    /// state untouched.
    pub fn observe(&mut self, res: f64) -> bool {
        if !self.enabled || !res.is_finite() {
            return false;
        }
        let mut backed_off = false;
        if let Some(prev) = self.prev {
            if res > prev * MIXING_GROWTH_TRIGGER {
                let floor = self.base / 64.0;
                if self.current > floor {
                    self.current = (self.current * 0.5).max(floor);
                    backed_off = true;
                    counters::add(Counter::HealthMixingBackoffs, 1);
                    qt_telemetry::journal::emit(qt_telemetry::EventKind::MixingBackoff {
                        factor: self.current,
                    });
                }
                self.streak = 0;
            } else if res < prev {
                self.streak += 1;
                if self.streak >= MIXING_RESTORE_STREAK && self.current < self.base {
                    self.current = (self.current * 1.5).min(self.base);
                    self.streak = 0;
                }
            } else {
                self.streak = 0;
            }
        }
        self.prev = Some(res);
        backed_off
    }

    fn prev_residual(&self) -> Option<f64> {
        self.prev
    }

    fn streak(&self) -> u32 {
        self.streak
    }
}

/// One Born iteration of the convergence trajectory (telemetry report,
/// "convergence" section).
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Relative `G<` change vs the previous iterate; `None` on the first
    /// iteration (no previous iterate to compare against).
    pub residual: Option<f64>,
    /// Mixing factor applied to the new self-energies this iteration.
    pub mixing: f64,
    /// Wall-clock time of the iteration (GF + SSE phases), in seconds.
    pub wall_seconds: f64,
    /// Electrical current after this iteration.
    pub current: f64,
    /// Bytes obtained from the global allocator during this iteration
    /// (0 unless the process installed a counting allocator, e.g.
    /// `qt_bench::alloc::CountingAllocator`).
    pub alloc_bytes: u64,
    /// Workspace-pool misses (fresh buffer allocations) this iteration.
    pub ws_fresh: u64,
    /// Contact self-energies recomputed (boundary-cache misses) this
    /// iteration; 0 from iteration 2 on when the cache is warm.
    pub boundary_misses: u64,
    /// Grid points quarantined by the health guards this iteration
    /// (electron + phonon phases combined).
    pub quarantined: u64,
}

/// Outcome of the self-consistent loop.
pub struct ScfResult {
    pub converged: bool,
    pub iterations: usize,
    /// Relative `G<` change after each iteration.
    pub residuals: Vec<f64>,
    /// Electrical current after each iteration.
    pub current_history: Vec<f64>,
    /// Per-iteration convergence trajectory (residual, mixing, wall time,
    /// current) — one record per Born iteration, including the first.
    pub trajectory: Vec<IterationRecord>,
    pub electron: ElectronGf,
    pub phonon: PhononGf,
    pub sigma: ElectronSelfEnergy,
    pub pi: PhononSelfEnergy,
}

/// History depth of [`Anderson`]: the number of difference columns fitted.
/// Measured on the `serve_sweep` workload, depths 3, 4, 5 and 6 served
/// 6.23, 5.98, 5.99 and 5.98 Born iterations per bias point (linear
/// mixing: 12.5–13.7); 3 keeps the smallest history for that halving.
pub const ANDERSON_DEPTH: usize = 3;

/// Largest condition number (1-norm, after unit-diagonal scaling) of the
/// Gram matrix [`Anderson`] still solves. Beyond it the oldest column is
/// dropped: nearly parallel residual differences would let round-off
/// dominate the extrapolation coefficients.
const ANDERSON_MAX_CONDITION: f64 = 1e10;

/// One difference column of the Anderson history: `ΔX = x_k − x_{k−1}` and
/// `ΔF = f_k − f_{k−1}` over the packed (Σ<, Σ>, Π<, Π>) iterate, stored
/// as single-precision `[re, im]` pairs (see [`Anderson`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Column {
    pub(crate) dx: Vec<[f32; 2]>,
    pub(crate) df: Vec<[f32; 2]>,
}

/// A history entry: `z` rounded to single precision.
fn narrow(z: Complex64) -> [f32; 2] {
    [z.re as f32, z.im as f32]
}

fn widen([re, im]: [f32; 2]) -> Complex64 {
    c64(re as f64, im as f64)
}

/// Bounded-history Anderson (type-II Pulay) acceleration of the Born
/// loop's mixing step, passed to [`run_scf_with`] through
/// [`ScfOptions::accel`]. Over the packed iterate `x = (Σ<, Σ>, Π<, Π>)`
/// and its residual `f = g − x`, where `g` is the iteration's stabilized
/// new self-energies, the update is
///
/// `x ← (1−β)·x + β·g − Σⱼ γⱼ (ΔXⱼ + β·ΔFⱼ)`
///
/// with `β` the mixing controller's current factor and `γ` the least-squares
/// coefficients minimizing `‖f − Σⱼ γⱼ ΔFⱼ‖` (a real Gram solve). With no
/// columns the update is exactly the linear blend. A mixing backoff clears
/// the history, and so does the start of every solve (unless it resumes a
/// checkpoint this history was restored from), so a result never depends
/// on what the accelerator solved before.
///
/// The history is [`ANDERSON_DEPTH`] columns and nothing else: the update
/// pass writes the next column's `ΔX` and `−f` into the oldest column's
/// buffers as it reads them, and the next step completes `ΔF` by adding
/// its `f`. The columns are stored in single precision, half the memory:
/// they only steer the extrapolation, and their rounding (≈6e-8 of a
/// difference that itself shrinks with the residual) never enters the
/// iterate except through the correction term, while the blend and the
/// convergence test stay in double precision. The buffers are kept across
/// solves, so a long-lived caller (a `qt-serve` worker) allocates them
/// once.
#[derive(Debug, Default)]
pub struct Anderson {
    /// Completed columns, oldest first: at most [`ANDERSON_DEPTH`] during a
    /// step, one fewer between steps (the oldest became `pending`).
    pub(crate) cols: Vec<Column>,
    /// The column the last update started: `dx = x_k − x_{k−1}` and
    /// `df = −f_{k−1}`. `None` before the first step of a solve.
    pub(crate) pending: Option<Column>,
    /// Cleared columns, kept for their buffers.
    spare: Vec<Column>,
    /// The checkpoint iteration this history was restored at, consumed by
    /// the resuming [`run_scf_with`].
    pub(crate) restored_at: Option<usize>,
}

impl Anderson {
    pub fn new() -> Self {
        Anderson::default()
    }

    /// Number of completed difference columns held.
    pub fn depth(&self) -> usize {
        self.cols.len()
    }

    /// Forget the history (the buffers stay allocated).
    pub fn clear(&mut self) {
        self.spare.append(&mut self.cols);
        self.spare.extend(self.pending.take());
        self.restored_at = None;
    }

    /// Complete the pending column with this step's `f`, fit `γ`, and
    /// write the update into `x` while starting the next pending column.
    fn step(&mut self, beta: f64, x: [&mut [Complex64]; 4], g: [&[Complex64]; 4]) {
        let n: usize = x.iter().map(|p| p.len()).sum();
        if self.pending.as_ref().is_some_and(|p| p.df.len() != n) {
            self.clear();
        }
        if let Some(mut p) = self.pending.take() {
            let mut k = 0;
            for (xp, gp) in x.iter().zip(&g) {
                for (&xv, &gv) in xp.iter().zip(gp.iter()) {
                    p.df[k] = narrow(widen(p.df[k]) + (gv - xv));
                    k += 1;
                }
            }
            self.cols.push(p);
        }
        let gamma = self.coefficients(&x, &g);
        // A full history recycles its oldest column as the next pending
        // one; otherwise a spare buffer starts it.
        let recycle = self.cols.len() == ANDERSON_DEPTH;
        let mut fresh = (!recycle).then(|| {
            let mut c = self.spare.pop().unwrap_or_default();
            for v in [&mut c.dx, &mut c.df] {
                v.clear();
                v.reserve_exact(n);
                v.resize(n, [0.0; 2]);
            }
            c
        });
        let next = match fresh.as_mut() {
            Some(c) => Next::Into(c),
            None => Next::Oldest,
        };
        update(x, g, beta, &mut self.cols, &gamma, next);
        self.pending = Some(fresh.unwrap_or_else(|| self.cols.remove(0)));
    }

    /// The least-squares coefficients `γ` of the completed columns against
    /// `f = g − x`, from the Gram matrix `Re⟨ΔFᵢ, ΔFⱼ⟩` scaled to a unit
    /// diagonal and solved by LU. While the matrix is singular or its
    /// condition number exceeds [`ANDERSON_MAX_CONDITION`], the oldest
    /// column is dropped; with none left every coefficient is 0 (the plain
    /// step). The coefficients lead the result, one per remaining column.
    fn coefficients(
        &mut self,
        x: &[&mut [Complex64]; 4],
        g: &[&[Complex64]; 4],
    ) -> [f64; ANDERSON_DEPTH] {
        let m = self.cols.len();
        let mut gram = [[0.0; ANDERSON_DEPTH]; ANDERSON_DEPTH];
        let mut rhs = [0.0; ANDERSON_DEPTH];
        for (i, ci) in self.cols.iter().enumerate() {
            for (j, cj) in self.cols.iter().enumerate().take(i + 1) {
                gram[i][j] = re_dot(&ci.df, &cj.df);
                gram[j][i] = gram[i][j];
            }
            let df = &ci.df;
            let mut k = 0;
            for (xp, gp) in x.iter().zip(g) {
                for (&xv, &gv) in xp.iter().zip(gp.iter()) {
                    let (d, f) = (widen(df[k]), gv - xv);
                    rhs[i] += d.re * f.re + d.im * f.im;
                    k += 1;
                }
            }
        }
        for first in 0..m {
            if let Some(gamma) = solve_gram(&gram, &rhs, first, m) {
                self.spare.extend(self.cols.drain(..first));
                return gamma;
            }
        }
        self.spare.append(&mut self.cols);
        [0.0; ANDERSON_DEPTH]
    }
}

/// `Re⟨a, b⟩` of two history columns, accumulated in double precision.
fn re_dot(a: &[[f32; 2]], b: &[[f32; 2]]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x[0] as f64 * y[0] as f64 + x[1] as f64 * y[1] as f64)
        .sum()
}

/// Solve the Gram system of columns `first..m` (the coefficients lead the
/// result), or `None` when it is singular or too ill-conditioned to trust.
/// The matrices come from the thread's workspace pool, so a warm step
/// allocates nothing.
fn solve_gram(
    gram: &[[f64; ANDERSON_DEPTH]; ANDERSON_DEPTH],
    rhs: &[f64; ANDERSON_DEPTH],
    first: usize,
    m: usize,
) -> Option<[f64; ANDERSON_DEPTH]> {
    let k = m - first;
    let mut d = [0.0; ANDERSON_DEPTH];
    for (i, di) in d.iter_mut().take(k).enumerate() {
        *di = gram[first + i][first + i].sqrt();
        if !(*di > 0.0 && di.is_finite()) {
            return None;
        }
    }
    let mut a = workspace::take_uninit(k, k);
    for i in 0..k {
        for j in 0..k {
            a[(i, j)] = c64(gram[first + i][first + j] / (d[i] * d[j]), 0.0);
        }
    }
    let norm1 = |m: &Matrix| {
        (0..k)
            .map(|j| (0..k).map(|i| m[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    };
    let inverse = qt_linalg::invert_ws(&a);
    let gamma = inverse.as_ref().ok().and_then(|inv| {
        let cond = norm1(&a) * norm1(inv);
        if cond.is_nan() || cond > ANDERSON_MAX_CONDITION {
            return None;
        }
        let mut gamma = [0.0; ANDERSON_DEPTH];
        for (i, gi) in gamma.iter_mut().take(k).enumerate() {
            *gi = (0..k)
                .map(|j| inv[(i, j)].re * rhs[first + j] / d[j])
                .sum::<f64>()
                / d[i];
        }
        Some(gamma)
    });
    workspace::give(a);
    if let Ok(inv) = inverse {
        workspace::give(inv);
    }
    gamma
}

/// Where [`update`] starts the next pending column, `(x_new − x, x − g)`.
enum Next<'a> {
    /// Nowhere: the linear loop keeps no history.
    Nowhere,
    Into(&'a mut Column),
    /// Into `cols[0]`, each element after the update has read it.
    Oldest,
}

/// The one mixing update, in place over the packed iterate `x`:
/// `x ← (1−β)·x + β·g − Σⱼ γⱼ (ΔXⱼ + β·ΔFⱼ)`. With no columns it is the
/// linear blend `(1−β)·x + β·g`, bit for bit.
fn update(
    x: [&mut [Complex64]; 4],
    g: [&[Complex64]; 4],
    beta: f64,
    cols: &mut [Column],
    gamma: &[f64],
    mut next: Next<'_>,
) {
    let mut k = 0;
    for (xp, gp) in x.into_iter().zip(g) {
        for (o, &n) in xp.iter_mut().zip(gp) {
            let old = *o;
            let mut v = old.scale(1.0 - beta) + n.scale(beta);
            for (c, &gj) in cols.iter().zip(gamma) {
                v -= (widen(c.dx[k]) + widen(c.df[k]).scale(beta)).scale(gj);
            }
            *o = v;
            let c = match &mut next {
                Next::Nowhere => None,
                Next::Into(c) => Some(&mut **c),
                Next::Oldest => Some(&mut cols[0]),
            };
            if let Some(c) = c {
                c.dx[k] = narrow(v - old);
                c.df[k] = narrow(old - n);
            }
            k += 1;
        }
    }
}

/// The Born loop's iterate `(Σ<, Σ>, Π<, Π>)` as four slices.
fn packed<'a>(sigma: &'a ElectronSelfEnergy, pi: &'a PhononSelfEnergy) -> [&'a [Complex64]; 4] {
    [
        sigma.lesser.as_slice(),
        sigma.greater.as_slice(),
        pi.lesser.as_slice(),
        pi.greater.as_slice(),
    ]
}

fn packed_mut<'a>(
    sigma: &'a mut ElectronSelfEnergy,
    pi: &'a mut PhononSelfEnergy,
) -> [&'a mut [Complex64]; 4] {
    [
        sigma.lesser.as_mut_slice(),
        sigma.greater.as_mut_slice(),
        pi.lesser.as_mut_slice(),
        pi.greater.as_mut_slice(),
    ]
}

/// Feed this iteration's residual to the mixing controller; a backoff
/// clears the Anderson history, whose columns were taken at the old `β`.
fn observe_residual(mixer: &mut MixingController, accel: Option<&mut Anderson>, res: f64) {
    if mixer.observe(res) {
        if let Some(acc) = accel {
            acc.clear();
        }
    }
}

/// Cooperative cancellation handle for a running SCF solve. Cloneable and
/// thread-safe: the deadline watchdog (or any supervisor) keeps one clone
/// and cancels it asynchronously; the SCF loop observes the flag at every
/// iteration boundary, so a cancelled solve stops within one Born
/// iteration of the signal — the structural bound behind qt-serve's
/// deadline guarantee.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Signal cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Typed failure of [`run_scf_with`]. Wraps per-point numerical failures
/// and adds the two structured outcomes the service layer reacts to:
/// stale state whose shape no longer matches the live config, and
/// cooperative cancellation.
#[derive(Clone, Debug, PartialEq)]
pub enum ScfError {
    /// A GF phase failed numerically (singular block, non-convergent
    /// boundary, non-finite tensor, …) past the quarantine ceiling.
    Numerical(NumericalError),
    /// A resumed checkpoint or warm-start seed carries tensors of a
    /// different device shape than the live config — refusing up front
    /// (before any tensor allocation) instead of panicking mid-loop.
    ShapeMismatch {
        /// Where the stale state came from: `"checkpoint"` or `"warm-start"`.
        source: &'static str,
        /// Which tensor mismatched, e.g. `"sigma.lesser"`.
        field: &'static str,
        expected: Vec<usize>,
        found: Vec<usize>,
    },
    /// The solve was cancelled at an iteration boundary. `iteration` is
    /// the Born iteration that was about to run; `checkpointed` reports
    /// whether a drain checkpoint was written for later resumption.
    Cancelled {
        iteration: usize,
        checkpointed: bool,
    },
}

impl fmt::Display for ScfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScfError::Numerical(e) => write!(f, "{e}"),
            ScfError::ShapeMismatch {
                source,
                field,
                expected,
                found,
            } => write!(
                f,
                "{source} {field} shape {found:?} does not match the live config {expected:?}"
            ),
            ScfError::Cancelled {
                iteration,
                checkpointed,
            } => write!(
                f,
                "SCF cancelled before iteration {iteration} ({})",
                if *checkpointed {
                    "drain checkpoint written"
                } else {
                    "no checkpoint"
                }
            ),
        }
    }
}

impl std::error::Error for ScfError {}

impl From<NumericalError> for ScfError {
    fn from(e: NumericalError) -> Self {
        ScfError::Numerical(e)
    }
}

/// Converged self-energies from a neighboring solve (e.g. the nearest
/// completed bias point of a sweep), used to seed the Born iteration
/// instead of `Σ = Π = 0`. A good seed is already near the fixed point,
/// so the continuation solve converges in a fraction of the cold
/// iterations; a bad seed at worst costs the iterations it takes the
/// caller to notice non-convergence and fall back to a cold solve —
/// never a wrong answer, because convergence is judged by the same
/// residual test either way.
#[derive(Clone, Debug)]
pub struct WarmStart {
    pub sigma: ElectronSelfEnergy,
    pub pi: PhononSelfEnergy,
}

/// The SSE phase of one Born iteration: the scattering self-energies
/// Σ≷, Π≷ of this iteration's Green's functions, before stabilization and
/// mixing. [`run_scf_with`] runs the serial `sse::sigma`/`sse::pi` at
/// `ScfConfig::variant` unless [`ScfOptions::sse`] supplies another body
/// (`qt_dist::DistSse` runs it across a rank world).
pub trait SsePhase {
    fn run(
        &mut self,
        inputs: &SseInputs<'_>,
    ) -> Result<(ElectronSelfEnergy, PhononSelfEnergy), NumericalError>;
}

/// Optional behaviors of [`run_scf_with`], all off by default.
#[derive(Default)]
pub struct ScfOptions<'a> {
    /// Write a [`ScfCheckpoint`] every `ckpt.every` iterations, and a
    /// drain checkpoint on cancellation (even when `every` is 0 — a
    /// drain-only configuration).
    pub ckpt: Option<&'a CheckpointConfig>,
    /// Continue from a previously saved checkpoint instead of `Σ = Π = 0`.
    pub resume: Option<ScfCheckpoint>,
    /// Seed the Born iteration with converged self-energies from a
    /// neighboring solve. Ignored when `resume` is given (a checkpoint
    /// carries strictly more state).
    pub warm: Option<WarmStart>,
    /// Cooperative cancellation, observed at every iteration boundary.
    pub cancel: Option<CancelToken>,
    /// The SSE phase of every iteration; `None` runs it in process.
    pub sse: Option<&'a mut dyn SsePhase>,
    /// Anderson-accelerate the mixing step with this caller-owned history
    /// (cleared at solve start, restored on resume by
    /// [`ScfCheckpoint::load_with_history`]); `None` keeps the linear
    /// iterates.
    pub accel: Option<&'a mut Anderson>,
}

/// Refuse stale tensors whose shape disagrees with the live config —
/// checked before any cloning or allocation so a mismatched checkpoint
/// costs nothing and cannot panic the solve.
fn expect_shape(
    source: &'static str,
    field: &'static str,
    expected: &[usize],
    t: &Tensor,
) -> Result<(), ScfError> {
    if t.shape() != expected {
        return Err(ScfError::ShapeMismatch {
            source,
            field,
            expected: expected.to_vec(),
            found: t.shape().to_vec(),
        });
    }
    Ok(())
}

/// Run the GF ↔ SSE loop to convergence.
pub fn run_scf(sim: &Simulation, cfg: &ScfConfig) -> Result<ScfResult, NumericalError> {
    run_scf_with(sim, cfg, ScfOptions::default()).map_err(|e| match e {
        ScfError::Numerical(err) => err,
        // No resume/warm/cancel options were passed, so neither
        // structured variant can occur.
        other => unreachable!("SCF error without options: {other}"),
    })
}

/// The full-control SCF entry point: [`run_scf`] plus checkpoint/resume,
/// warm-start seeding, cooperative cancellation, a pluggable SSE phase and
/// Anderson-accelerated mixing (see [`ScfOptions`]).
/// Resumed checkpoints and warm-start seeds are shape-checked against the
/// live config before any tensor is cloned; a mismatch returns
/// [`ScfError::ShapeMismatch`] instead of panicking downstream.
///
/// Resuming restores the mixed self-energies, the previous `G<` iterate,
/// both histories, the adaptive-mixing state and (with `accel` restored by
/// [`ScfCheckpoint::load_with_history`]) the Anderson history, so a
/// killed-then-resumed run walks the same residual trajectory as an
/// uninterrupted one.
/// `ScfResult::iterations` counts only the iterations executed by *this*
/// call; `residuals`/`current_history` cover the whole run.
pub fn run_scf_with(
    sim: &Simulation,
    cfg: &ScfConfig,
    mut opts: ScfOptions<'_>,
) -> Result<ScfResult, ScfError> {
    let _scf_span = qt_telemetry::Span::enter_global("scf");
    let p = &sim.p;
    let eshape = [p.nkz, p.ne, p.na, p.norb, p.norb];
    let pshape = [
        p.nqz,
        p.nw,
        p.na,
        p.nb + 1,
        crate::params::N3D,
        crate::params::N3D,
    ];
    let ckpt = opts.ckpt;
    let mut accel = opts.accel.take();
    if let Some(acc) = accel.as_deref_mut() {
        // A resumed solve continues the history restored with its
        // checkpoint; every other solve starts from an empty one.
        let at = acc.restored_at.take();
        if at.is_none() || at != opts.resume.as_ref().map(|ck| ck.iteration) {
            acc.clear();
        }
    }
    let mut sigma = ElectronSelfEnergy::zeros(p);
    let mut pi = PhononSelfEnergy::zeros(p);
    let mut residuals = Vec::new();
    let mut current_history = Vec::new();
    let mut trajectory = Vec::new();
    let mut prev_gl: Option<Tensor> = None;
    let mut mixer = MixingController::new(cfg.mixing, cfg.adaptive_mixing);
    let mut start = 0;
    if let Some(ck) = opts.resume {
        expect_shape("checkpoint", "sigma.lesser", &eshape, &ck.sigma.lesser)?;
        expect_shape("checkpoint", "sigma.greater", &eshape, &ck.sigma.greater)?;
        expect_shape("checkpoint", "pi.lesser", &pshape, &ck.pi.lesser)?;
        expect_shape("checkpoint", "pi.greater", &pshape, &ck.pi.greater)?;
        if let Some(gl) = &ck.prev_gl {
            expect_shape("checkpoint", "prev_gl", &eshape, gl)?;
        }
        sigma = ck.sigma.clone();
        pi = ck.pi.clone();
        residuals = ck.residuals.clone();
        current_history = ck.current_history.clone();
        prev_gl = ck.prev_gl.clone();
        mixer = MixingController::restore(cfg.mixing, cfg.adaptive_mixing, &ck);
        // Always run at least one iteration so the result carries GF
        // tensors, even when the checkpoint already reached max_iterations.
        start = ck.iteration.min(cfg.max_iterations.saturating_sub(1));
    } else if let Some(w) = opts.warm {
        expect_shape("warm-start", "sigma.lesser", &eshape, &w.sigma.lesser)?;
        expect_shape("warm-start", "sigma.greater", &eshape, &w.sigma.greater)?;
        expect_shape("warm-start", "pi.lesser", &pshape, &w.pi.lesser)?;
        expect_shape("warm-start", "pi.greater", &pshape, &w.pi.greater)?;
        // Seed only the self-energies: `prev_gl` stays `None`, so the
        // first iteration has no residual and the convergence test runs
        // on genuinely recomputed Green's functions — a warm start can
        // save iterations but never fake convergence.
        sigma = w.sigma;
        pi = w.pi;
    }
    let mut converged = false;
    let mut electron = None;
    let mut phonon = None;
    let mut iterations = 0;
    for iter in start..cfg.max_iterations {
        if let Some(tok) = &opts.cancel {
            if tok.is_cancelled() {
                // Drain semantics: write a resumable snapshot even when
                // `every` is 0 (drain-only checkpointing), so an
                // in-flight solve survives a service shutdown.
                let checkpointed = match ckpt {
                    Some(c) => {
                        let snapshot = ScfCheckpoint {
                            iteration: iter,
                            mixing_current: mixer.current,
                            prev_residual: mixer.prev_residual(),
                            decrease_streak: mixer.streak(),
                            residuals: residuals.clone(),
                            current_history: current_history.clone(),
                            sigma: sigma.clone(),
                            pi: pi.clone(),
                            prev_gl: prev_gl.clone(),
                        };
                        match snapshot.save_with(&c.path, accel.as_deref()) {
                            Ok(()) => true,
                            Err(err) => {
                                eprintln!(
                                    "warning: drain checkpoint write to {:?} failed: {err}",
                                    c.path
                                );
                                false
                            }
                        }
                    }
                    None => false,
                };
                return Err(ScfError::Cancelled {
                    iteration: iter,
                    checkpointed,
                });
            }
        }
        let _iter_span = qt_telemetry::Span::enter_global("scf_iter");
        // Iteration attribution for journal events and series samples
        // emitted anywhere inside this iteration (including worker
        // threads — the SCF loop itself is sequential). The guard clears
        // it on every way out of the iteration, `?` included.
        let _iteration = qt_telemetry::recorder::enter_iteration(iter);
        let iter_t0 = std::time::Instant::now();
        let alloc0 = counters::total(Counter::AllocBytes);
        let fresh0 = counters::total(Counter::WsFresh);
        let miss0 = counters::total(Counter::BoundaryCacheMisses);
        let quar0 = counters::total(Counter::HealthQuarantinedPoints);
        let iter_counters = |t0: std::time::Instant| {
            (
                t0.elapsed().as_secs_f64(),
                counters::total(Counter::AllocBytes) - alloc0,
                counters::total(Counter::WsFresh) - fresh0,
                counters::total(Counter::BoundaryCacheMisses) - miss0,
                counters::total(Counter::HealthQuarantinedPoints) - quar0,
            )
        };
        iterations += 1;
        // GF phase (both carriers), replaying memoized contact
        // self-energies from iteration 2 on.
        let egf = gf::electron_gf_phase_cached(
            &sim.dev,
            &sim.em,
            p,
            &sim.grids,
            &sigma,
            &cfg.gf,
            Some(&sim.boundary),
            None,
        )?;
        let pgf = gf::phonon_gf_phase_cached(
            &sim.dev,
            &sim.pm,
            p,
            &sim.grids,
            &pi,
            &cfg.gf,
            Some(&sim.boundary),
            None,
        )?;
        current_history.push(egf.current);
        // Convergence on G<.
        let residual_span = qt_telemetry::Span::enter_global("scf/residual");
        let res = match &prev_gl {
            None => f64::INFINITY,
            Some(prev) => {
                let norm = egf.g_lesser.norm().max(1e-300);
                let mut diff2 = 0.0;
                for (a, b) in egf.g_lesser.as_slice().iter().zip(prev.as_slice()) {
                    diff2 += (*a - *b).norm_sqr();
                }
                diff2.sqrt() / norm
            }
        };
        if res.is_finite() {
            residuals.push(res);
        }
        prev_gl = Some(egf.g_lesser.clone());
        drop(residual_span);
        // Divergence detection: adjust the effective mixing factor *before*
        // this iteration's mixing step, so a growing residual is damped
        // immediately rather than one iteration late.
        observe_residual(&mut mixer, accel.as_deref_mut(), res);
        if res < cfg.tolerance {
            converged = true;
            let (wall, alloc_bytes, ws_fresh, boundary_misses, quarantined) =
                iter_counters(iter_t0);
            trajectory.push(IterationRecord {
                iteration: iter,
                residual: res.is_finite().then_some(res),
                mixing: mixer.current,
                wall_seconds: wall,
                current: egf.current,
                alloc_bytes,
                ws_fresh,
                boundary_misses,
                quarantined,
            });
            qt_telemetry::journal::emit(qt_telemetry::EventKind::IterationDone {
                residual: res,
                wall_secs: wall,
            });
            qt_telemetry::series::sample_now();
            electron = Some(egf);
            phonon = Some(pgf);
            break;
        }
        // SSE phase.
        let (dl, dg) = sse::preprocess_d(&sim.dev, p, &pgf);
        let inputs = SseInputs {
            dev: &sim.dev,
            p,
            grids: &sim.grids,
            dh: &sim.dh,
            g_lesser: &egf.g_lesser,
            g_greater: &egf.g_greater,
            d_lesser_pre: &dl,
            d_greater_pre: &dg,
        };
        let (mut new_sigma, mut new_pi) = match opts.sse.as_deref_mut() {
            Some(body) => body.run(&inputs)?,
            None => (
                sse::sigma(&inputs, cfg.variant),
                sse::pi(&inputs, cfg.variant),
            ),
        };
        let mix_span = qt_telemetry::Span::enter_global("scf/mix");
        sse::stabilize_sigma(&mut new_sigma, p);
        sse::stabilize_pi(&mut new_pi, p);
        let (x, g) = (packed_mut(&mut sigma, &mut pi), packed(&new_sigma, &new_pi));
        match accel.as_deref_mut() {
            Some(acc) => acc.step(mixer.current, x, g),
            None => update(x, g, mixer.current, &mut [], &[], Next::Nowhere),
        }
        drop(mix_span);
        let (wall, alloc_bytes, ws_fresh, boundary_misses, quarantined) = iter_counters(iter_t0);
        trajectory.push(IterationRecord {
            iteration: iter,
            residual: res.is_finite().then_some(res),
            mixing: mixer.current,
            wall_seconds: wall,
            current: egf.current,
            alloc_bytes,
            ws_fresh,
            boundary_misses,
            quarantined,
        });
        qt_telemetry::journal::emit(qt_telemetry::EventKind::IterationDone {
            residual: res,
            wall_secs: wall,
        });
        qt_telemetry::series::sample_now();
        electron = Some(egf);
        phonon = Some(pgf);
        if let Some(c) = ckpt {
            if c.every > 0 && (iter + 1 - start) % c.every == 0 {
                let _span = qt_telemetry::Span::enter_global("scf/checkpoint");
                let snapshot = ScfCheckpoint {
                    iteration: iter + 1,
                    mixing_current: mixer.current,
                    prev_residual: mixer.prev_residual(),
                    decrease_streak: mixer.streak(),
                    residuals: residuals.clone(),
                    current_history: current_history.clone(),
                    sigma: sigma.clone(),
                    pi: pi.clone(),
                    prev_gl: prev_gl.clone(),
                };
                // A failed write must not kill a healthy SCF run; surface
                // it on stderr and keep iterating.
                if let Err(err) = snapshot.save_with(&c.path, accel.as_deref()) {
                    eprintln!("warning: checkpoint write to {:?} failed: {err}", c.path);
                }
            }
        }
    }
    Ok(ScfResult {
        converged,
        iterations,
        residuals,
        current_history,
        trajectory,
        electron: electron.expect("at least one iteration"),
        phonon: phonon.expect("at least one iteration"),
        sigma,
        pi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> Simulation {
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 10,
            nw: 2,
            na: 8,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        Simulation::new(p, -1.2, 1.2)
    }

    /// Deterministic, non-trivial complex data for the mixing tests.
    fn wave(n: usize, phase: f64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                c64(
                    (i as f64 * 0.37 + phase).sin(),
                    (i as f64 * 0.11 - phase).cos(),
                )
            })
            .collect()
    }

    /// Four slices of lengths 3, 5, 2 and 4 over one packed buffer.
    fn split4(v: &mut [Complex64]) -> [&mut [Complex64]; 4] {
        let (a, rest) = v.split_at_mut(3);
        let (b, rest) = rest.split_at_mut(5);
        let (c, d) = rest.split_at_mut(2);
        [a, b, c, d]
    }

    fn split4_ref(v: &[Complex64]) -> [&[Complex64]; 4] {
        let (a, rest) = v.split_at(3);
        let (b, rest) = rest.split_at(5);
        let (c, d) = rest.split_at(2);
        [a, b, c, d]
    }

    #[test]
    fn anderson_empty_history_step_is_the_linear_blend() {
        let beta = 0.37;
        let x0 = wave(14, 0.3);
        let g = wave(14, 1.9);
        // The blend `run_scf` applied before the Anderson update existed.
        let blend: Vec<Complex64> = x0
            .iter()
            .zip(&g)
            .map(|(o, n)| o.scale(1.0 - beta) + n.scale(beta))
            .collect();
        let mut plain = x0.clone();
        update(
            split4(&mut plain),
            split4_ref(&g),
            beta,
            &mut [],
            &[],
            Next::Nowhere,
        );
        let mut acc = Anderson::new();
        let mut stepped = x0.clone();
        acc.step(beta, split4(&mut stepped), split4_ref(&g));
        assert_eq!(acc.depth(), 0, "the first step has no column to fit");
        for (i, want) in blend.iter().enumerate() {
            for (what, got) in [("update", plain[i]), ("step", stepped[i])] {
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{what} element {i}"
                );
            }
        }
    }

    #[test]
    fn anderson_drops_a_duplicate_column_until_the_gram_solves() {
        let n = 14;
        let (x, g) = (wave(n, 0.3), wave(n, 1.9));
        let column = |phase| Column {
            dx: wave(n, phase).into_iter().map(narrow).collect(),
            df: wave(n, phase + 0.5).into_iter().map(narrow).collect(),
        };
        // Two identical ΔF columns make the Gram matrix exactly singular;
        // dropping the oldest leaves one column, which solves.
        let mut acc = Anderson::new();
        acc.cols = vec![column(0.7), column(0.7)];
        let mut xm = x.clone();
        let gamma = acc.coefficients(&split4(&mut xm), &split4_ref(&g));
        assert_eq!(acc.depth(), 1);
        // The one-column least-squares fit: γ = Re⟨ΔF, f⟩ / ‖ΔF‖².
        let df = &acc.cols[0].df;
        let dot_f: f64 = df
            .iter()
            .zip(g.iter().zip(&x))
            .map(|(&d, (&a, &b))| {
                let (d, f) = (widen(d), a - b);
                d.re * f.re + d.im * f.im
            })
            .sum();
        let want = dot_f / re_dot(df, df);
        assert!(
            (gamma[0] - want).abs() <= 1e-12 * want.abs(),
            "{gamma:?} vs {want}"
        );
        // A distinct older column survives next to the newest one.
        acc.cols = vec![column(2.1), column(0.7), column(0.7)];
        acc.coefficients(&split4(&mut xm), &split4_ref(&g));
        assert_eq!(acc.depth(), 1);
        // With every column zero nothing solves: the plain step.
        acc.cols = vec![Column {
            dx: vec![[0.0; 2]; n],
            df: vec![[0.0; 2]; n],
        }];
        let gamma = acc.coefficients(&split4(&mut xm), &split4_ref(&g));
        assert_eq!((acc.depth(), gamma), (0, [0.0; ANDERSON_DEPTH]));
    }

    #[test]
    fn a_mixing_backoff_clears_the_anderson_history() {
        let n = 14;
        let mut acc = Anderson::new();
        let mut x = wave(n, 0.3);
        for k in 0..3 {
            let g = wave(n, 1.0 + k as f64);
            acc.step(0.5, split4(&mut x), split4_ref(&g));
        }
        assert_eq!(acc.depth(), 2);
        let mut mixer = MixingController::new(0.5, true);
        // A decreasing residual keeps the history ...
        observe_residual(&mut mixer, Some(&mut acc), 1.0);
        observe_residual(&mut mixer, Some(&mut acc), 0.5);
        assert_eq!(acc.depth(), 2);
        assert!(acc.pending.is_some());
        // ... a growing one backs the mixing off and clears it.
        observe_residual(&mut mixer, Some(&mut acc), 2.0);
        assert_eq!(mixer.current, 0.25);
        assert_eq!(acc.depth(), 0);
        assert!(
            acc.pending.is_none(),
            "the next step starts a fresh history"
        );
    }

    /// The serial SSE body that cancels `token` during its `at`-th call, so
    /// the solve stops at the next iteration boundary.
    struct CancelAt {
        calls: usize,
        at: usize,
        token: CancelToken,
    }

    impl SsePhase for CancelAt {
        fn run(
            &mut self,
            inputs: &SseInputs<'_>,
        ) -> Result<(ElectronSelfEnergy, PhononSelfEnergy), NumericalError> {
            self.calls += 1;
            if self.calls == self.at {
                self.token.cancel();
            }
            Ok((
                sse::sigma(inputs, SseVariant::Dace),
                sse::pi(inputs, SseVariant::Dace),
            ))
        }
    }

    /// The SSE body of a rank world that loses a rank in its first call.
    struct LoseRank;

    impl SsePhase for LoseRank {
        fn run(
            &mut self,
            _: &SseInputs<'_>,
        ) -> Result<(ElectronSelfEnergy, PhononSelfEnergy), NumericalError> {
            Err(NumericalError::RankLoss { rank: 1 })
        }
    }

    /// A solve that fails inside an iteration leaves no iteration
    /// attribution behind: the next event (a serving worker's
    /// `WarmFallback`, say) is not charged to the failed iteration. The
    /// failing iteration is a resumed one far past any other test's, since
    /// the attribution is global and a concurrent test's loop may hold it.
    #[test]
    fn a_failed_iteration_leaves_no_attribution_behind() {
        use crate::checkpoint::ScfCheckpoint;
        use qt_telemetry::{journal, recorder, EventKind};
        const FAILED_AT: usize = 1_000_000;
        let sim = sim();
        let cfg = ScfConfig {
            max_iterations: FAILED_AT + 1,
            ..Default::default()
        };
        let resume = ScfCheckpoint {
            iteration: FAILED_AT,
            mixing_current: cfg.mixing,
            prev_residual: None,
            decrease_streak: 0,
            residuals: Vec::new(),
            current_history: Vec::new(),
            sigma: ElectronSelfEnergy::zeros(&sim.p),
            pi: PhononSelfEnergy::zeros(&sim.p),
            prev_gl: None,
        };
        let opts = ScfOptions {
            resume: Some(resume),
            sse: Some(&mut LoseRank),
            ..Default::default()
        };
        let out = run_scf_with(&sim, &cfg, opts);
        assert!(matches!(
            out,
            Err(ScfError::Numerical(NumericalError::RankLoss { rank: 1 }))
        ));
        // Tag this thread's event so it is found among concurrent tests'.
        const PROBE_UNIT: i64 = 424_242;
        recorder::set_unit(PROBE_UNIT);
        recorder::switch(recorder::JOURNAL, true);
        journal::emit(EventKind::CheckpointWrite);
        recorder::switch(recorder::JOURNAL, false);
        recorder::set_unit(-1);
        let ev = journal::drain()
            .into_iter()
            .find(|e| e.unit == PROBE_UNIT && e.kind == EventKind::CheckpointWrite)
            .expect("the probe event was journaled");
        assert_ne!(ev.iteration, FAILED_AT as i64);
    }

    #[test]
    fn accelerated_drain_resume_matches_uninterrupted_bitwise() {
        use crate::checkpoint::{CheckpointConfig, ScfCheckpoint};
        let mut cfg = ScfConfig {
            max_iterations: 8,
            tolerance: 1e-13, // force every iteration in both runs
            ..Default::default()
        };
        cfg.gf.contacts.mu_left = 0.2;
        cfg.gf.contacts.mu_right = -0.2;
        let mut acc = Anderson::new();
        let full = run_scf_with(
            &sim(),
            &cfg,
            ScfOptions {
                accel: Some(&mut acc),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(full.iterations, cfg.max_iterations);
        // Cancelled during iteration 2's SSE phase: the drain checkpoint
        // holds iterations 0..3 and the history they built.
        let dir = std::env::temp_dir().join(format!("qt-scf-anderson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drain.ckpt");
        let ck_cfg = CheckpointConfig {
            path: path.clone(),
            every: 0,
        };
        let token = CancelToken::new();
        let mut body = CancelAt {
            calls: 0,
            at: 3,
            token: token.clone(),
        };
        let out = run_scf_with(
            &sim(),
            &cfg,
            ScfOptions {
                ckpt: Some(&ck_cfg),
                cancel: Some(token),
                sse: Some(&mut body),
                accel: Some(&mut acc),
                ..Default::default()
            },
        );
        assert!(matches!(
            out,
            Err(ScfError::Cancelled {
                iteration: 3,
                checkpointed: true
            })
        ));
        // Resume on a fresh simulation with the restored history.
        let mut restored = Anderson::new();
        let ck = ScfCheckpoint::load_with_history(&path, &mut restored).unwrap();
        assert_eq!(ck.iteration, 3);
        assert!(restored.depth() >= 1, "the checkpoint carries the history");
        let resumed = run_scf_with(
            &sim(),
            &cfg,
            ScfOptions {
                resume: Some(ck.clone()),
                accel: Some(&mut restored),
                ..Default::default()
            },
        )
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed.current_history), bits(&full.current_history));
        assert_eq!(bits(&resumed.residuals), bits(&full.residuals));
        assert_eq!(
            resumed.sigma.lesser.as_slice(),
            full.sigma.lesser.as_slice()
        );
        assert_eq!(resumed.pi.greater.as_slice(), full.pi.greater.as_slice());
        // The history is state: resuming without it walks another path.
        let mut empty = Anderson::new();
        let forgetful = run_scf_with(
            &sim(),
            &cfg,
            ScfOptions {
                resume: Some(ck),
                accel: Some(&mut empty),
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(
            bits(&forgetful.current_history),
            bits(&full.current_history)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `tests/fixtures/qtckpt01.ckpt` was written by the last build of the
    /// version-1 format: a linear solve of this device at ±0.2 V with
    /// `max_iterations = 3`, `every = 3`.
    #[test]
    fn qtckpt01_fixture_resumes_a_linear_solve_bitwise() {
        use crate::checkpoint::ScfCheckpoint;
        let bytes = include_bytes!("../tests/fixtures/qtckpt01.ckpt");
        assert_eq!(&bytes[..8], b"QTCKPT01");
        let sim = || {
            let p = SimParams {
                nkz: 1,
                nqz: 1,
                ne: 10,
                nw: 2,
                na: 8,
                nb: 3,
                norb: 2,
                bnum: 4,
            };
            Simulation::new(p, -1.2, 1.2)
        };
        let mut cfg = ScfConfig {
            max_iterations: 6,
            tolerance: 1e-13,
            ..Default::default()
        };
        cfg.gf.contacts.mu_left = 0.2;
        cfg.gf.contacts.mu_right = -0.2;
        let full = run_scf(&sim(), &cfg).unwrap();
        let ck = ScfCheckpoint::from_bytes(bytes).unwrap();
        assert_eq!(ck.iteration, 3);
        let resumed = run_scf_with(
            &sim(),
            &cfg,
            ScfOptions {
                resume: Some(ck),
                ..Default::default()
            },
        )
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed.current_history), bits(&full.current_history));
        assert_eq!(bits(&resumed.residuals), bits(&full.residuals));
        assert_eq!(
            resumed.sigma.lesser.as_slice(),
            full.sigma.lesser.as_slice()
        );
        assert_eq!(resumed.pi.greater.as_slice(), full.pi.greater.as_slice());
        // Loaded for an accelerated resume, a version-1 file carries an
        // empty history.
        let path = std::env::temp_dir().join(format!("qt-ckpt01-{}.ckpt", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let mut acc = Anderson::new();
        let ck = ScfCheckpoint::load_with_history(&path, &mut acc).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(ck.iteration, 3);
        assert_eq!(acc.depth(), 0);
        assert!(acc.pending.is_none());
    }

    #[test]
    fn scf_converges_on_small_system() {
        let sim = sim();
        let cfg = ScfConfig {
            max_iterations: 25,
            tolerance: 1e-7,
            ..Default::default()
        };
        let out = run_scf(&sim, &cfg).unwrap();
        assert!(
            out.converged,
            "Born loop should converge; residuals: {:?}",
            out.residuals
        );
        // Residuals must be (eventually) decreasing.
        let n = out.residuals.len();
        assert!(n >= 2);
        assert!(out.residuals[n - 1] < out.residuals[0]);
    }

    #[test]
    fn scattering_modifies_current() {
        let sim = sim();
        let mut cfg = ScfConfig::default();
        cfg.gf.contacts.mu_left = 0.3;
        cfg.gf.contacts.mu_right = -0.3;
        cfg.max_iterations = 6;
        cfg.tolerance = 1e-12; // force full iterations
        let out = run_scf(&sim, &cfg).unwrap();
        // The ballistic (first-iteration) current differs from the
        // dissipative one.
        let first = out.current_history.first().unwrap();
        let last = out.current_history.last().unwrap();
        assert!(
            (first - last).abs() > 1e-12,
            "electron-phonon scattering must alter the current ({first} vs {last})"
        );
    }

    #[test]
    fn trajectory_records_every_iteration() {
        let sim = sim();
        let cfg = ScfConfig {
            max_iterations: 5,
            tolerance: 1e-12, // force full iterations
            ..Default::default()
        };
        let out = run_scf(&sim, &cfg).unwrap();
        assert_eq!(out.trajectory.len(), out.iterations);
        // First iteration has no previous iterate → no residual.
        assert!(out.trajectory[0].residual.is_none());
        for (i, rec) in out.trajectory.iter().enumerate() {
            assert_eq!(rec.iteration, i);
            assert!(rec.wall_seconds >= 0.0);
            // The adaptive controller may damp below the configured base
            // but never exceeds it.
            assert!(rec.mixing > 0.0 && rec.mixing <= cfg.mixing);
            assert_eq!(rec.current, out.current_history[i]);
        }
        // The trajectory's finite residuals are exactly `residuals`.
        let finite: Vec<f64> = out.trajectory.iter().filter_map(|r| r.residual).collect();
        assert_eq!(finite, out.residuals);
    }

    #[test]
    fn boundary_cache_populated_and_reused() {
        let sim = sim();
        let cfg = ScfConfig {
            max_iterations: 3,
            tolerance: 0.0, // force every iteration
            ..Default::default()
        };
        let n_points = (sim.p.nkz * sim.p.ne + sim.p.nqz * sim.p.nw) as u64;
        let hits0 = counters::total(Counter::BoundaryCacheHits);
        let out = run_scf(&sim, &cfg).unwrap();
        assert_eq!(out.iterations, 3);
        // Iterations 2 and 3 replay every contact self-energy from the
        // cache (the counter is global, so other tests can only add hits).
        assert!(
            counters::total(Counter::BoundaryCacheHits) - hits0 >= 2 * n_points,
            "warm iterations must hit the boundary cache"
        );
        // The cache is populated: replay must not recompute.
        crate::boundary::fill(sim.boundary.view().electron(), false, |_, _| {
            panic!("contact Σ must be cached after SCF")
        })
        .get(0)
        .unwrap();
        // Trajectory records the cache behaviour per iteration.
        assert!(out.trajectory[0].boundary_misses >= n_points);
    }

    #[test]
    fn adaptive_mixing_recovers_divergent_full_mixing() {
        // With the electron-phonon coupling boosted 12x the undamped Born
        // iteration (mixing = 1.0) oscillates around a residual of ~0.2 and
        // never converges; the adaptive controller must detect the growing
        // residual, back off, converge, and record the mixing trajectory.
        let boosted_sim = || {
            let mut s = sim();
            for z in s.dh.as_mut_slice() {
                *z *= qt_linalg::c64(12.0, 0.0);
            }
            s
        };
        let mut cfg = ScfConfig {
            max_iterations: 40,
            tolerance: 1e-4,
            mixing: 1.0,
            adaptive_mixing: false,
            ..Default::default()
        };
        cfg.gf.contacts.mu_left = 0.3;
        cfg.gf.contacts.mu_right = -0.3;
        let fixed_diverges = match run_scf(&boosted_sim(), &cfg) {
            Ok(r) => !r.converged,
            Err(_) => true,
        };
        assert!(
            fixed_diverges,
            "undamped Born iteration must diverge for this test to bite"
        );
        cfg.adaptive_mixing = true;
        let backoffs0 = counters::total(Counter::HealthMixingBackoffs);
        let adaptive = run_scf(&boosted_sim(), &cfg).unwrap();
        assert!(
            adaptive.converged,
            "adaptive backoff must rescue mixing = 1.0; residuals: {:?}",
            adaptive.residuals
        );
        assert!(
            adaptive.trajectory.iter().any(|r| r.mixing < cfg.mixing),
            "trajectory must log the backed-off mixing factors"
        );
        assert!(counters::total(Counter::HealthMixingBackoffs) > backoffs0);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        use crate::checkpoint::{CheckpointConfig, ScfCheckpoint};
        let cfg = ScfConfig {
            max_iterations: 6,
            tolerance: 1e-12, // force full iterations in both runs
            ..Default::default()
        };
        let full = run_scf(&sim(), &cfg).unwrap();
        // "Killed" run: 3 iterations with a checkpoint after each.
        let dir = std::env::temp_dir().join("qt-scf-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scf.ckpt");
        let ck_cfg = CheckpointConfig {
            path: path.clone(),
            every: 1,
        };
        let mut cfg_short = cfg;
        cfg_short.max_iterations = 3;
        run_scf_with(
            &sim(),
            &cfg_short,
            ScfOptions {
                ckpt: Some(&ck_cfg),
                ..Default::default()
            },
        )
        .unwrap();
        let ck = ScfCheckpoint::load(&path).unwrap();
        assert_eq!(ck.iteration, 3);
        std::fs::remove_file(&path).unwrap();
        // Resume in a fresh process-equivalent (new Simulation, cold
        // boundary cache) and finish the remaining iterations.
        let resumed = run_scf_with(
            &sim(),
            &cfg,
            ScfOptions {
                resume: Some(ck),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.residuals.len(), full.residuals.len());
        for (i, (a, b)) in resumed.residuals.iter().zip(&full.residuals).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1e-30),
                "residual {i} after resume: {a} vs uninterrupted {b}"
            );
        }
        let (ra, rb) = (
            resumed.current_history.last().unwrap(),
            full.current_history.last().unwrap(),
        );
        assert!(
            (ra - rb).abs() <= 1e-12 * rb.abs().max(1e-30),
            "final current after resume: {ra} vs {rb}"
        );
    }

    #[test]
    fn mismatched_checkpoint_shape_is_a_typed_error() {
        // A checkpoint saved for a different device must be refused with
        // ShapeMismatch before any tensor work — not panic mid-loop.
        let cfg = ScfConfig {
            max_iterations: 2,
            tolerance: 1e-12,
            ..Default::default()
        };
        let small = sim();
        let dir = std::env::temp_dir().join("qt-scf-shape-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scf.ckpt");
        let ck_cfg = CheckpointConfig {
            path: path.clone(),
            every: 1,
        };
        run_scf_with(
            &small,
            &cfg,
            ScfOptions {
                ckpt: Some(&ck_cfg),
                ..Default::default()
            },
        )
        .unwrap();
        let ck = ScfCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // A live config with a different atom count.
        let other = Simulation::new(
            SimParams {
                nkz: 2,
                nqz: 2,
                ne: 10,
                nw: 2,
                na: 12,
                nb: 3,
                norb: 2,
                bnum: 4,
            },
            -1.2,
            1.2,
        );
        match run_scf_with(
            &other,
            &cfg,
            ScfOptions {
                resume: Some(ck),
                ..Default::default()
            },
        ) {
            Err(ScfError::ShapeMismatch {
                source,
                field,
                expected,
                found,
            }) => {
                assert_eq!(source, "checkpoint");
                assert_eq!(field, "sigma.lesser");
                assert_eq!(expected, vec![2, 10, 12, 2, 2]);
                assert_eq!(found, vec![2, 10, 8, 2, 2]);
            }
            other => panic!("expected ShapeMismatch, got {:?}", other.map(|_| "ok")),
        }
    }

    #[test]
    fn cancelled_solve_stops_at_the_iteration_boundary() {
        let sim = sim();
        let cfg = ScfConfig {
            max_iterations: 10,
            tolerance: 1e-12,
            ..Default::default()
        };
        // Pre-cancelled token: the loop must not run a single iteration.
        let tok = CancelToken::new();
        tok.cancel();
        let out = run_scf_with(
            &sim,
            &cfg,
            ScfOptions {
                cancel: Some(tok),
                ..Default::default()
            },
        );
        match out {
            Err(ScfError::Cancelled {
                iteration,
                checkpointed,
            }) => {
                assert_eq!(iteration, 0);
                assert!(!checkpointed, "no checkpoint config was given");
            }
            other => panic!("expected Cancelled, got {:?}", other.map(|_| "ok")),
        }
        // With a drain-only checkpoint config (every = 0) the cancelled
        // solve leaves a resumable snapshot behind.
        let dir = std::env::temp_dir().join("qt-scf-cancel-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drain.ckpt");
        let ck_cfg = CheckpointConfig {
            path: path.clone(),
            every: 0,
        };
        let tok = CancelToken::new();
        tok.cancel();
        let out = run_scf_with(
            &sim,
            &cfg,
            ScfOptions {
                ckpt: Some(&ck_cfg),
                cancel: Some(tok),
                ..Default::default()
            },
        );
        match out {
            Err(ScfError::Cancelled { checkpointed, .. }) => {
                assert!(checkpointed);
            }
            other => panic!("expected Cancelled, got {:?}", other.map(|_| "ok")),
        }
        let ck = ScfCheckpoint::load(&path).unwrap();
        assert_eq!(ck.iteration, 0);
        std::fs::remove_file(&path).unwrap();
        // An uncancelled token changes nothing: the guarded run matches
        // the plain run bitwise.
        let plain = run_scf(&sim, &cfg).unwrap();
        let guarded = run_scf_with(
            &sim,
            &cfg,
            ScfOptions {
                cancel: Some(CancelToken::new()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(guarded.residuals, plain.residuals);
        assert_eq!(guarded.current_history, plain.current_history);
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_answer() {
        let cfg = ScfConfig {
            max_iterations: 40,
            tolerance: 1e-7,
            ..Default::default()
        };
        let mut cfg_a = cfg;
        cfg_a.gf.contacts.mu_left = 0.20;
        cfg_a.gf.contacts.mu_right = -0.20;
        let cold_a = run_scf(&sim(), &cfg_a).unwrap();
        assert!(cold_a.converged);
        // Continuation: a neighboring bias point seeded from A's
        // converged self-energies.
        let mut cfg_b = cfg;
        cfg_b.gf.contacts.mu_left = 0.22;
        cfg_b.gf.contacts.mu_right = -0.22;
        let cold_b = run_scf(&sim(), &cfg_b).unwrap();
        assert!(cold_b.converged);
        let warm_b = run_scf_with(
            &sim(),
            &cfg_b,
            ScfOptions {
                warm: Some(WarmStart {
                    sigma: cold_a.sigma.clone(),
                    pi: cold_a.pi.clone(),
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(warm_b.converged);
        assert!(
            warm_b.iterations < cold_b.iterations,
            "warm start must save iterations: warm {} vs cold {}",
            warm_b.iterations,
            cold_b.iterations
        );
        // Same fixed point: the warm and cold solves agree to the
        // convergence tolerance (both stopped at residual < 1e-8).
        let last_cold = cold_b.current_history.last().unwrap();
        let last_warm = warm_b.current_history.last().unwrap();
        assert!(
            (last_cold - last_warm).abs() <= 1e-6 * last_cold.abs().max(1e-12),
            "warm-started current {last_warm} vs cold {last_cold}"
        );
        // A wrong-shape warm seed is refused with a typed error.
        let bad = run_scf_with(
            &sim(),
            &cfg_b,
            ScfOptions {
                warm: Some(WarmStart {
                    sigma: ElectronSelfEnergy::zeros(&SimParams {
                        nkz: 2,
                        nqz: 2,
                        ne: 10,
                        nw: 2,
                        na: 12,
                        nb: 3,
                        norb: 2,
                        bnum: 4,
                    }),
                    pi: cold_a.pi.clone(),
                }),
                ..Default::default()
            },
        );
        assert!(matches!(
            bad,
            Err(ScfError::ShapeMismatch {
                source: "warm-start",
                ..
            })
        ));
    }

    #[test]
    fn vacancy_resonance_quarantines_honestly() {
        // A vacancy whose dangling level sits exactly on a grid energy is
        // a genuinely singular RGF block at zero device broadening — the
        // real numerical pathology the quarantine machinery exists for.
        // The vacancy has no neighbor slots, so the SSE never dresses it
        // and the singularity (and its quarantine) persists across Born
        // iterations at exactly the resonant (kz, E) points.
        let p = SimParams {
            nkz: 2,
            nqz: 2,
            ne: 9, // de = 0.25 exactly; energies[4] == 0.0 exactly
            nw: 2,
            na: 8,
            nb: 3,
            norb: 2,
            bnum: 4,
        };
        let grids = Grids::try_new(&p, -1.0, 1.0).unwrap();
        let level = grids.energies[4];
        assert_eq!(level, 0.0);
        let disorder = crate::hamiltonian::Disorder {
            seed: 7,
            vacancy_fraction: 0.3,
            onsite_amplitude: 0.05,
            vacancy_level: level,
        };
        let n_vac = disorder.vacancies(p.na).len();
        assert!(n_vac >= 1, "seed 7 must produce at least one vacancy");
        let sim = Simulation::disordered(p, -1.0, 1.0, disorder).unwrap();
        let cfg = ScfConfig {
            max_iterations: 4,
            ..Default::default()
        };
        let out = run_scf(&sim, &cfg).unwrap();
        // Honest coverage: exactly the resonant energy column (every kz)
        // is quarantined, with a SingularBlock root cause.
        assert_eq!(out.electron.coverage.total_points, p.nkz * p.ne);
        assert_eq!(
            out.electron.coverage.quarantined.len(),
            p.nkz,
            "one quarantined point per kz at the resonant energy"
        );
        for q in &out.electron.coverage.quarantined {
            assert_eq!(
                q.grid_index % p.ne,
                4,
                "quarantine must sit on the resonance"
            );
            assert!(matches!(
                q.error,
                NumericalError::SingularBlock { phase: "rgf", .. }
            ));
        }
        // The rest of the spectrum is still covered and finite.
        assert!(!out.electron.coverage.is_full());
        assert!(out.electron.coverage.bad_fraction() < 0.25);
        assert!(out.electron.current.is_finite());
    }

    #[test]
    fn disordered_construction_is_reproducible() {
        let p = SimParams::test_small();
        let d = crate::hamiltonian::Disorder {
            seed: 99,
            vacancy_fraction: 0.2,
            onsite_amplitude: 0.08,
            vacancy_level: 0.5,
        };
        let a = Simulation::disordered(p, -1.2, 1.2, d).unwrap();
        let b = Simulation::disordered(p, -1.2, 1.2, d).unwrap();
        let ha = a.em.hamiltonian(&a.dev, 0.3);
        let hb = b.em.hamiltonian(&b.dev, 0.3);
        assert_eq!(ha.to_dense().max_abs_diff(&hb.to_dense()), 0.0);
        assert_eq!(a.dev.neighbors, b.dev.neighbors);
    }

    #[test]
    fn from_parts_rejects_inconsistent_assemblies() {
        let p = SimParams::test_small();
        let dev = Device::new(&p);
        let pm = PhononModel::default();
        // norb mismatch between model and params.
        let mut em = ElectronModel::for_params(&p);
        em.norb = p.norb + 1;
        assert!(Simulation::from_parts(p, dev.clone(), em, pm.clone(), -1.0, 1.0).is_err());
        // Device geometry mismatch.
        let mut p2 = p;
        p2.na = 32;
        p2.bnum = 8;
        let em2 = ElectronModel::for_params(&p2);
        assert!(Simulation::from_parts(p2, dev, em2, pm, -1.0, 1.0).is_err());
        // Bad window through the fallible constructor.
        assert!(Simulation::try_new(p, 1.0, -1.0).is_err());
        let mut bad = p;
        bad.bnum = 3;
        assert!(Simulation::try_new(bad, -1.0, 1.0).is_err());
    }

    #[test]
    fn variants_converge_to_same_answer() {
        let sim = sim();
        let mut cfg = ScfConfig {
            max_iterations: 8,
            tolerance: 1e-9,
            ..Default::default()
        };
        cfg.variant = SseVariant::Omen;
        let omen = run_scf(&sim, &cfg).unwrap();
        cfg.variant = SseVariant::Dace;
        let dace = run_scf(&sim, &cfg).unwrap();
        let rel = omen.electron.g_lesser.max_abs_diff(&dace.electron.g_lesser)
            / omen.electron.g_lesser.norm().max(1e-30);
        assert!(
            rel < 1e-10,
            "SCF fixed point must not depend on variant: {rel}"
        );
    }
}
