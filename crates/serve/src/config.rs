//! Request/response types and service configuration.

use std::path::PathBuf;
use std::time::Duration;

use qt_core::params::SimParams;
use qt_core::scf::ScfConfig;

/// A registered device variant: the geometry/model parameters plus the
/// solver configuration its sweeps run under. Each variant owns one
/// shared `Simulation` (and thus one boundary cache) inside the service.
#[derive(Clone, Debug)]
pub struct VariantSpec {
    pub params: SimParams,
    /// Electron energy window (eV).
    pub emin: f64,
    pub emax: f64,
    /// Base solver configuration; the per-point bias overrides
    /// `cfg.gf.contacts.mu_left/mu_right` as `±bias/2`.
    pub cfg: ScfConfig,
}

/// One client request: solve an IV sweep of `biases` for `variant`.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Index into the service's variant table.
    pub variant: usize,
    /// Bias points (V); point `i` runs at `mu_left = +b/2`,
    /// `mu_right = -b/2`.
    pub biases: Vec<f64>,
    /// Wall-clock budget for the whole sweep; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Chaos hook: before solving, run one elastic distributed health
    /// probe that kills this pool rank mid-iteration. The dead rank is
    /// retired from the pool; the sweep itself is unaffected — recovery
    /// is bitwise-exact.
    pub chaos_kill_rank: Option<usize>,
    /// Chaos hook: scale the warm seed of this point index into garbage
    /// so its warm solve cannot converge, forcing the validated
    /// cold-solve fallback path.
    pub poison_warm_point: Option<usize>,
}

impl SweepRequest {
    /// A plain sweep with no deadline and no chaos hooks.
    pub fn new(variant: usize, biases: Vec<f64>) -> Self {
        SweepRequest {
            variant,
            biases,
            deadline: None,
            chaos_kill_rank: None,
            poison_warm_point: None,
        }
    }
}

/// Outcome of one bias point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The bias (V) this point ran at.
    pub bias: f64,
    /// Terminal electrical current of the converged solve.
    pub current: f64,
    /// Born iterations the final (answering) solve executed.
    pub iterations: usize,
    pub converged: bool,
    /// Whether a neighbor seed was attempted for this point (even if the
    /// answer ultimately came from the cold fallback).
    pub warm_started: bool,
    /// Whether a warm attempt failed validation and the answer comes
    /// from the cold fallback solve.
    pub degraded_to_cold: bool,
    /// Transient-failure retries the point consumed.
    pub retries: u32,
}

/// Terminal status of a sweep request.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepStatus {
    /// Every point answered.
    Completed { points: Vec<PointResult> },
    /// A point failed after exhausting its retry budget; the points
    /// completed before it are still returned.
    Failed {
        error: String,
        completed: Vec<PointResult>,
    },
    /// The deadline watchdog cancelled the sweep mid-flight.
    DeadlineExpired { completed: Vec<PointResult> },
    /// Shutdown drained the sweep mid-flight; `checkpoints` lists the
    /// QTCKPT02 files written for the interrupted point, Anderson history
    /// included (resumable via `ScfCheckpoint::load_with_history` and
    /// `run_scf_with` with `ScfOptions::{resume, accel}`).
    Drained {
        completed: Vec<PointResult>,
        checkpoints: Vec<PathBuf>,
    },
    /// The request was still queued when the service shut down; nothing
    /// was solved.
    ShutDown,
}

/// Typed response delivered on the request's private channel.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResponse {
    /// Service-assigned request id (also the journal attribution unit).
    pub id: u64,
    pub status: SweepStatus,
}

/// The client's handle on an admitted request.
pub struct SweepTicket {
    pub id: u64,
    pub(crate) rx: crossbeam::channel::Receiver<SweepResponse>,
}

impl SweepTicket {
    /// Block until the response arrives. `None` only if the service was
    /// torn down without answering (a bug, not a protocol state).
    pub fn wait(self) -> Option<SweepResponse> {
        self.rx.recv().ok()
    }

    /// Block up to `timeout` for the response; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<SweepResponse> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Why a submit was refused. All variants are retryable except
/// `UnknownVariant`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission queue is at capacity; retry after the hint.
    QueueFull { retry_after: Duration },
    /// The variant's circuit breaker is open (recent repeated failures);
    /// retry after the cooldown.
    BreakerOpen { retry_after: Duration },
    /// The service is draining; no new work is admitted.
    ShuttingDown,
    /// No such variant index registered.
    UnknownVariant { variant: usize },
    /// A bias in the sweep is NaN or infinite. Rejected at admission:
    /// a non-finite bias would otherwise reach the warm store's nearest-
    /// neighbor comparison (and the contact occupations) and poison the
    /// worker. Not retryable — the request itself is malformed.
    NonFiniteBias { index: usize },
    /// The variant registration itself was invalid (bad dimensions or
    /// energy window); carries the builder's explanation.
    InvalidVariant { variant: usize, reason: String },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after } => {
                write!(f, "queue full, retry after {retry_after:?}")
            }
            SubmitError::BreakerOpen { retry_after } => {
                write!(f, "circuit breaker open, retry after {retry_after:?}")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::UnknownVariant { variant } => {
                write!(f, "unknown device variant {variant}")
            }
            SubmitError::NonFiniteBias { index } => {
                write!(f, "bias point {index} is not finite")
            }
            SubmitError::InvalidVariant { variant, reason } => {
                write!(f, "variant {variant} is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests admitted but not yet finished dequeuing; beyond
    /// it submits get [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads pulling sweeps off the queue.
    pub workers: usize,
    /// World slots in the shared rank pool.
    pub pool_slots: usize,
    /// Slots one solve leases from the pool.
    pub slots_per_solve: usize,
    /// Transient-failure retries per point (on top of the first try).
    pub max_retries: u32,
    /// Base backoff before retry `k` sleeps `retry_backoff * 2^k`.
    pub retry_backoff: Duration,
    /// Consecutive failed requests that open a variant's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects the variant before allowing a
    /// probe request through.
    pub breaker_cooldown: Duration,
    /// Directory for drain checkpoints; `None` disables drain
    /// checkpointing (cancelled points lose their progress).
    pub drain_dir: Option<PathBuf>,
    /// Base of the `QueueFull` retry-after hint (scaled by queue depth).
    pub retry_after_hint: Duration,
    /// Maximum warm-start seeds retained per variant. A long-running
    /// service sweeping many distinct biases would otherwise grow seed
    /// memory without bound (each seed holds full Σ/Π tensors). At
    /// capacity the store evicts the seed whose absence least hurts
    /// bias-space coverage (the one crowding its nearest neighbor,
    /// oldest on ties) — see `WarmStore`.
    pub warm_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 16,
            workers: 2,
            pool_slots: 4,
            slots_per_solve: 1,
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            drain_dir: None,
            retry_after_hint: Duration::from_millis(100),
            warm_capacity: 16,
        }
    }
}
