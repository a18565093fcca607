//! # qt-serve — a fault-tolerant batched bias-sweep service
//!
//! Long-running front end over the SCF solver: clients submit bias
//! sweeps for registered device variants over typed request/response
//! channels; the service batches them onto a shared [`qt_dist::RankPool`]
//! and shares warm state between nearby bias points, so a 12-point IV
//! curve costs far fewer Born iterations than 12 cold solves.
//!
//! Robustness is the design center, not an afterthought:
//!
//! - **Bounded admission.** The submit path keeps an explicit depth
//!   counter over the unbounded MPMC transport; past
//!   [`ServeConfig::queue_capacity`] a submit is rejected with
//!   [`SubmitError::QueueFull`] carrying a retry-after hint — explicit
//!   backpressure instead of unbounded memory growth.
//! - **Deadlines.** Each request may carry a wall-clock budget; a
//!   watchdog thread cancels the request's [`qt_core::scf::CancelToken`]
//!   on expiry, and the SCF loop observes it at every iteration
//!   boundary, so no request overruns its deadline by more than one
//!   Born iteration.
//! - **Graceful degradation.** A warm-started point that fails to
//!   converge is re-solved cold with the same residual test — a bad
//!   seed costs iterations, never correctness. The degradation is
//!   journaled ([`qt_telemetry::EventKind::WarmFallback`]) and counted.
//! - **Retry & circuit breaking.** Cold failures retry with exponential
//!   backoff; a variant that keeps failing is quarantined by a
//!   per-variant circuit breaker until a cooldown passes.
//! - **Drain on shutdown.** [`Service::shutdown`] cancels in-flight
//!   solves, which write QTCKPT02 drain checkpoints (resumable later),
//!   and answers still-queued requests with [`SweepStatus::ShutDown`].

mod breaker;
mod config;
mod service;
mod warm;
mod watchdog;

pub use breaker::CircuitBreaker;
pub use config::{
    PointResult, ServeConfig, SubmitError, SweepRequest, SweepResponse, SweepStatus, SweepTicket,
    VariantSpec,
};
pub use service::Service;
pub use warm::WarmStore;
