//! `qt-telemetry` — phase-scoped tracing, sharded counters, and
//! model-vs-measured reporting for the quantum-transport pipeline.
//!
//! The paper's evaluation (§4.3, §5) compares *measured* flops, bytes and
//! runtimes against closed-form models (Tables 3–5). This crate is the one
//! source of truth those comparisons flow through:
//!
//! * [`counters`] — the one table that names every counter, and the
//!   per-thread sharded storage behind `add`/`total`/`local` (thread-safe,
//!   no cross-thread cache-line contention on the hot path), plus
//!   dedicated hot-section timers for the blocked-GEMM pack/microkernel
//!   split.
//! * [`recorder`] — the one store every record lands in: a per-thread
//!   cell holding the thread's exact phase totals and one bounded lane per
//!   record kind (journal event, series sample, trace slice, flow pair),
//!   behind one switch with a kind mask, one epoch and one attribution
//!   context (rank, unit, SCF iteration). The modules below are folds
//!   over it.
//! * [`span`] — hierarchical phase spans (`scf` → `scf_iter` →
//!   `gf/electron` → `rgf` / `contour` → …). A span snapshots the counters
//!   on entry and attributes the delta to its phase on drop. Spans are
//!   inert (a single relaxed atomic load) while telemetry is disabled.
//! * [`registry`] — the phase table, summed over the threads' totals.
//! * [`trace`] — a Chrome/Perfetto `trace_event` exporter so a full SCF
//!   run can be opened in a trace viewer, including cross-rank flow
//!   arrows pairing sends with receives.
//! * [`report`] — the serialisable [`report::TelemetryReport`]: per-phase
//!   time/flops/GF·s/bytes plus model residuals (measured vs Table 3 flop
//!   models, measured vs Table 4/5 communication-volume models) and the
//!   SCF convergence trajectory.
//! * [`journal`] — the flight recorder: typed, timestamped events
//!   (quarantines, retries, rank deaths, re-tilings, checkpoints,
//!   iteration marks) and their codec.
//! * [`series`] — periodic counter snapshots, exported as the report's
//!   `series` block and as Prometheus text.
//! * [`postmortem`] — drains the journal into a versioned crash artifact
//!   (`POSTMORTEM.json`) on a rank death, recovered or not, or a panic.
//!
//! Attribution modes: [`span::Span::enter_global`] measures deltas of the
//! *summed* counters and is correct for sequential orchestration phases
//! (the SCF loop body), even when the phase fans out over threads
//! internally. [`span::Span::enter`] measures deltas of the *calling
//! thread's* counters and is the right tool inside parallel worker bodies
//! (per-energy-point `rgf`/`contour`), where it reports aggregate busy
//! time across workers rather than wall-clock.

pub mod counters;
pub mod cputime;
pub mod journal;
pub mod json;
pub mod postmortem;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod series;
pub mod span;
pub mod trace;

pub use counters::{Block, Counter};
pub use journal::EventKind;
pub use postmortem::{Postmortem, PostmortemError};
pub use registry::PhaseStat;
pub use report::{BalanceReport, JournalBlock, SeriesBlock, TelemetryReport};
pub use span::{enabled, set_enabled, Span};
pub use trace::export_chrome_trace;

/// Reset every piece of global telemetry state: counters and the
/// recorder (phase totals, journal, series and trace). The switch keeps
/// its state.
pub fn reset_all() {
    counters::reset_counters();
    recorder::clear();
}
