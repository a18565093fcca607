//! Typed event journal: a lock-light, bounded flight recorder.
//!
//! Counters answer *how many*; the journal answers *what happened, in
//! what order, on which rank*. Every site that bumps a resilience or
//! balance counter also emits one typed [`Event`] here, so a chaos run
//! that goes wrong leaves a causal record (HeartbeatTimeout → RankDeath →
//! Retile) instead of an opaque aggregate.
//!
//! Design mirrors [`crate::counters`]: each thread owns a preallocated
//! ring registered once in a global list, so the warm path is one relaxed
//! atomic load (disabled) or one uncontended mutex on the thread's own
//! ring plus a slot write (enabled) — no allocation either way. The
//! `Arc`s keep a ring alive after its thread exits, which the short-lived
//! `qt_dist` world threads rely on.
//!
//! Overflow is never silent: a full ring overwrites its oldest record
//! (flight-recorder semantics — the newest events are the ones a
//! postmortem needs), but every overwrite bumps the `journal.dropped`
//! counter and the drain prepends one `Overflow{n}` marker per
//! overflowed ring.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::counters::{self, Counter};
use crate::json::Json;

/// Default per-thread ring capacity (events). At ~64 bytes per record a
/// ring is ~256 KiB; a full SCF chaos run emits a few thousand events.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What happened. Variants are `Copy` — no owned data — so emitting an
/// event never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A grid point failed a numerical-health check and was excluded.
    QuarantinePoint {
        /// Flattened `(E, kz)` / `(ω, qz)` grid index.
        grid_index: u64,
    },
    /// A Sancho-Rubio decimation was retried at bumped broadening.
    EtaRetry,
    /// The adaptive SCF controller halved the mixing factor.
    MixingBackoff {
        /// The new (halved) mixing factor.
        factor: f64,
    },
    /// A frame was retransmitted, timed out, or discarded as corrupt. No
    /// longer emitted; kept so older reports load.
    CommRetransmit {
        /// Sending world slot.
        src: u64,
        /// Receiving world slot.
        dst: u64,
        /// Wire attempt index (0-based).
        attempt: u64,
    },
    /// A receive poll expired while watching a peer's liveness epoch.
    HeartbeatTimeout {
        /// The world slot whose heartbeat was being watched.
        watched: u64,
    },
    /// A rank was declared permanently dead.
    RankDeath {
        /// The dead world slot (original identity).
        rank: u64,
    },
    /// Survivors re-tiled the decomposition after a death.
    Retile {
        /// Work units migrated onto survivors in this pass.
        moved_units: u64,
    },
    /// An idle rank asked a peer for work. No longer emitted; kept so
    /// older postmortems load.
    StealRequest {
        /// The rank being asked.
        victim: u64,
    },
    /// A straggler granted a work unit to a thief. No longer emitted;
    /// kept so older postmortems load.
    StealGrant {
        /// The requesting rank.
        thief: u64,
        /// The granted work unit.
        unit: u64,
    },
    /// A steal request was declined (empty queue or finished victim). No
    /// longer emitted; kept so older postmortems load.
    StealDeny {
        /// The requesting rank.
        thief: u64,
    },
    /// An SCF checkpoint was written to disk.
    CheckpointWrite,
    /// The kernel selector set or flipped a sticky per-coupling-block
    /// choice between the CSR sparse kernels and the blocked dense GEMM.
    /// Emitted on first choice and on hysteresis flips, not on every
    /// reuse of a settled choice.
    KernelChoice {
        /// Coupling-block index within the device (0-based).
        block: u64,
        /// `true` when the CSR sparse route was chosen.
        sparse: bool,
    },
    /// An SCF iteration completed.
    IterationDone {
        /// Convergence residual; NaN on the first iteration (none yet).
        residual: f64,
        /// Iteration wall time in seconds.
        wall_secs: f64,
    },
    /// A sweep request passed admission control and entered the queue.
    RequestAdmitted {
        /// Service-assigned request id.
        request: u64,
    },
    /// A sweep request was rejected with backpressure (queue full,
    /// breaker open, or shutdown).
    RequestRejected {
        /// Service-assigned request id.
        request: u64,
    },
    /// A sweep request finished with every point answered.
    RequestDone {
        /// Service-assigned request id.
        request: u64,
        /// Points that degraded from a warm start to a cold solve.
        degraded_points: u64,
    },
    /// The deadline watchdog cancelled an in-flight request.
    DeadlineExpired {
        /// Service-assigned request id.
        request: u64,
    },
    /// A warm-started point failed validation and re-ran cold.
    WarmFallback {
        /// Service-assigned request id.
        request: u64,
        /// Sweep point index within the request.
        point: u64,
    },
    /// The circuit breaker quarantined a device variant.
    BreakerOpen {
        /// Variant slot in the service's variant table.
        variant: u64,
    },
    /// Drain-on-shutdown checkpointed an in-flight sweep point.
    DrainCheckpoint {
        /// Service-assigned request id.
        request: u64,
        /// Sweep point index within the request.
        point: u64,
    },
    /// A corpus scenario's observable diverged from its golden record at
    /// one sweep point. The numeric diff rides the event as raw f64 bits
    /// so the postmortem timeline can reproduce the comparison exactly.
    CorpusMismatch {
        /// Sweep point index within the scenario.
        point: u64,
        /// `f64::to_bits` of the golden value.
        golden_bits: u64,
        /// `f64::to_bits` of the observed value.
        got_bits: u64,
    },
    /// Marker prepended at drain time for a ring that overflowed:
    /// `dropped` older events were overwritten before this drain.
    Overflow {
        /// Number of overwritten (lost) events.
        dropped: u64,
    },
}

impl EventKind {
    /// Stable kind tag used in the JSON encoding and postmortem timeline.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::QuarantinePoint { .. } => "quarantine_point",
            EventKind::EtaRetry => "eta_retry",
            EventKind::MixingBackoff { .. } => "mixing_backoff",
            EventKind::CommRetransmit { .. } => "comm_retransmit",
            EventKind::HeartbeatTimeout { .. } => "heartbeat_timeout",
            EventKind::RankDeath { .. } => "rank_death",
            EventKind::Retile { .. } => "retile",
            EventKind::StealRequest { .. } => "steal_request",
            EventKind::StealGrant { .. } => "steal_grant",
            EventKind::StealDeny { .. } => "steal_deny",
            EventKind::CheckpointWrite => "checkpoint_write",
            EventKind::KernelChoice { .. } => "kernel_choice",
            EventKind::IterationDone { .. } => "iteration_done",
            EventKind::RequestAdmitted { .. } => "request_admitted",
            EventKind::RequestRejected { .. } => "request_rejected",
            EventKind::RequestDone { .. } => "request_done",
            EventKind::DeadlineExpired { .. } => "deadline_expired",
            EventKind::WarmFallback { .. } => "warm_fallback",
            EventKind::BreakerOpen { .. } => "breaker_open",
            EventKind::DrainCheckpoint { .. } => "drain_checkpoint",
            EventKind::CorpusMismatch { .. } => "corpus_mismatch",
            EventKind::Overflow { .. } => "overflow",
        }
    }
}

/// One journal record: a timestamped [`EventKind`] with rank/unit/
/// iteration attribution (−1 = not attributed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the journal epoch.
    pub ts_us: f64,
    /// Emitting world slot, or −1 outside any rank context.
    pub rank: i64,
    /// Work unit being computed, or −1 outside any unit context.
    pub unit: i64,
    /// SCF iteration, or −1 outside the SCF loop.
    pub iteration: i64,
    /// What happened.
    pub kind: EventKind,
}

struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Events lost to overwrites since the last drain.
    dropped: u64,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap.max(1)),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            // Flight-recorder wrap: overwrite the oldest, account the loss.
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
            counters::add(Counter::JournalDropped, 1);
        }
    }

    /// Records in arrival order, preceded by an `Overflow` marker when
    /// events were lost. Clears the ring.
    fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len() + 1);
        if self.dropped > 0 {
            // The marker timestamps at the oldest surviving record so the
            // merged timeline shows where the gap sits.
            let ts_us = self.buf.get(self.head).map_or(0.0, |e| e.ts_us);
            out.push(Event {
                ts_us,
                rank: self.buf.get(self.head).map_or(-1, |e| e.rank),
                unit: -1,
                iteration: -1,
                kind: EventKind::Overflow {
                    dropped: self.dropped,
                },
            });
        }
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        out
    }
}

static JOURNALING: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());
/// Capacity applied to rings registered (or re-armed) after the last
/// `set_ring_capacity`. Not an atomic usize only because the lock also
/// serializes re-arming.
static CAPACITY: AtomicI64 = AtomicI64::new(DEFAULT_RING_CAPACITY as i64);
/// Global SCF-iteration context (the loop is sequential; worker threads
/// inherit it).
static ITERATION: AtomicI64 = AtomicI64::new(-1);

thread_local! {
    static RING: Arc<Mutex<Ring>> = {
        let cap = CAPACITY.load(Relaxed) as usize;
        let ring = Arc::new(Mutex::new(Ring::with_capacity(cap)));
        RINGS.lock().unwrap().push(ring.clone());
        ring
    };
    static RANK: Cell<i64> = const { Cell::new(-1) };
    static UNIT: Cell<i64> = const { Cell::new(-1) };
}

/// Turn journaling on or off. Turning it on pins the journal epoch
/// (timestamp zero) if not already set and preallocates the calling
/// thread's ring.
pub fn set_journaling(on: bool) {
    if on {
        let _ = EPOCH.set(Instant::now());
        RING.with(|_| {});
    }
    JOURNALING.store(on, Relaxed);
}

/// Is journaling enabled? One relaxed load — the entire disabled-mode
/// cost of every emission site.
#[inline]
pub fn journaling_enabled() -> bool {
    JOURNALING.load(Relaxed)
}

/// Resize every registered ring (clearing it) and set the capacity for
/// rings registered later. Test hook for overflow regression at tiny
/// capacities; never called on a warm path.
pub fn set_ring_capacity(cap: usize) {
    CAPACITY.store(cap.max(1) as i64, Relaxed);
    for ring in RINGS.lock().unwrap().iter() {
        *ring.lock().unwrap() = Ring::with_capacity(cap);
    }
}

/// Set the calling thread's world-slot attribution (−1 clears it).
/// World-runner bodies call this once per spawned rank thread.
pub fn set_thread_rank(rank: i64) {
    RANK.with(|r| r.set(rank));
}

/// Set the calling thread's work-unit attribution (−1 clears it).
pub fn set_thread_unit(unit: i64) {
    UNIT.with(|u| u.set(unit));
}

/// Set the global SCF-iteration attribution (−1 clears it).
pub fn set_iteration(iteration: i64) {
    ITERATION.store(iteration, Relaxed);
}

/// Microseconds since the journal epoch.
fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as f64 / 1e3
}

/// Record `kind` with the calling thread's attribution. No-op (one
/// relaxed load) while journaling is disabled; never allocates while
/// enabled (the ring is preallocated).
#[inline]
pub fn emit(kind: EventKind) {
    if !journaling_enabled() {
        return;
    }
    emit_now(kind);
}

#[cold]
fn emit_now(kind: EventKind) {
    let ev = Event {
        ts_us: now_us(),
        rank: RANK.with(|r| r.get()),
        unit: UNIT.with(|u| u.get()),
        iteration: ITERATION.load(Relaxed),
        kind,
    };
    RING.with(|ring| ring.lock().unwrap().push(ev));
}

/// Drain every thread's ring into one timeline sorted by timestamp.
/// Rings that overflowed contribute an `Overflow{n}` marker. Clears all
/// rings and their drop tallies.
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    for ring in RINGS.lock().unwrap().iter() {
        out.extend(ring.lock().unwrap().drain());
    }
    out.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    out
}

/// Per-kind counts of the currently buffered events, sorted by kind tag.
/// Non-consuming — the report's journal summary must not eat the
/// postmortem's timeline.
pub fn kind_counts() -> Vec<(&'static str, u64)> {
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    for ring in RINGS.lock().unwrap().iter() {
        for e in ring.lock().unwrap().buf.iter() {
            let tag = e.kind.tag();
            match counts.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, n)) => *n += 1,
                None => counts.push((tag, 1)),
            }
        }
    }
    counts.sort_by_key(|&(t, _)| t);
    counts
}

/// Number of events currently buffered across all rings (survivors of
/// any overflow).
pub fn event_count() -> usize {
    RINGS
        .lock()
        .unwrap()
        .iter()
        .map(|r| r.lock().unwrap().buf.len())
        .sum()
}

/// Clear every ring, drop tally, and the attribution contexts. Part of
/// `qt_telemetry::reset_all`.
pub fn reset_journal() {
    for ring in RINGS.lock().unwrap().iter() {
        let mut r = ring.lock().unwrap();
        r.buf.clear();
        r.head = 0;
        r.dropped = 0;
    }
    ITERATION.store(-1, Relaxed);
}

impl Event {
    /// Encode as a flat JSON object (`kind` tag plus kind-specific
    /// fields).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("ts_us".to_string(), Json::Num(self.ts_us)),
            ("rank".to_string(), Json::Num(self.rank as f64)),
            ("unit".to_string(), Json::Num(self.unit as f64)),
            ("iteration".to_string(), Json::Num(self.iteration as f64)),
            ("kind".to_string(), Json::Str(self.kind.tag().to_string())),
        ];
        let mut num = |k: &str, v: f64| fields.push((k.to_string(), Json::Num(v)));
        match self.kind {
            EventKind::QuarantinePoint { grid_index } => num("grid_index", grid_index as f64),
            EventKind::MixingBackoff { factor } => num("factor", factor),
            EventKind::CommRetransmit { src, dst, attempt } => {
                num("src", src as f64);
                num("dst", dst as f64);
                num("attempt", attempt as f64);
            }
            EventKind::HeartbeatTimeout { watched } => num("watched", watched as f64),
            EventKind::RankDeath { rank } => num("dead_rank", rank as f64),
            EventKind::Retile { moved_units } => num("moved_units", moved_units as f64),
            EventKind::StealRequest { victim } => num("victim", victim as f64),
            EventKind::StealGrant { thief, unit } => {
                num("thief", thief as f64);
                num("granted_unit", unit as f64);
            }
            EventKind::StealDeny { thief } => num("thief", thief as f64),
            EventKind::KernelChoice { block, sparse } => {
                num("block", block as f64);
                fields.push(("sparse".to_string(), Json::Bool(sparse)));
            }
            EventKind::IterationDone {
                residual,
                wall_secs,
            } => {
                // NaN (no residual yet) cannot ride JSON; encode as null.
                fields.push((
                    "residual".to_string(),
                    if residual.is_finite() {
                        Json::Num(residual)
                    } else {
                        Json::Null
                    },
                ));
                fields.push(("wall_secs".to_string(), Json::Num(wall_secs)));
            }
            EventKind::RequestAdmitted { request }
            | EventKind::RequestRejected { request }
            | EventKind::DeadlineExpired { request } => num("request", request as f64),
            EventKind::RequestDone {
                request,
                degraded_points,
            } => {
                num("request", request as f64);
                num("degraded_points", degraded_points as f64);
            }
            EventKind::WarmFallback { request, point }
            | EventKind::DrainCheckpoint { request, point } => {
                num("request", request as f64);
                num("point", point as f64);
            }
            EventKind::BreakerOpen { variant } => num("variant", variant as f64),
            EventKind::CorpusMismatch {
                point,
                golden_bits,
                got_bits,
            } => {
                num("point", point as f64);
                // u64 bit patterns exceed f64's integer range; ride as
                // strings to stay lossless.
                fields.push((
                    "golden_bits".to_string(),
                    Json::Str(format!("{golden_bits:#018x}")),
                ));
                fields.push((
                    "got_bits".to_string(),
                    Json::Str(format!("{got_bits:#018x}")),
                ));
            }
            EventKind::Overflow { dropped } => num("dropped", dropped as f64),
            EventKind::EtaRetry | EventKind::CheckpointWrite => {}
        }
        Json::Obj(fields)
    }

    /// Decode an event encoded by [`Event::to_json`].
    pub fn from_json(v: &Json) -> Result<Event, String> {
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("journal event lacks number {k:?}"))
        };
        let int = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("journal event lacks integer {k:?}"))
        };
        let tag = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("journal event lacks kind tag")?;
        let kind = match tag {
            "quarantine_point" => EventKind::QuarantinePoint {
                grid_index: int("grid_index")?,
            },
            "eta_retry" => EventKind::EtaRetry,
            "mixing_backoff" => EventKind::MixingBackoff {
                factor: num("factor")?,
            },
            "comm_retransmit" => EventKind::CommRetransmit {
                src: int("src")?,
                dst: int("dst")?,
                attempt: int("attempt")?,
            },
            "heartbeat_timeout" => EventKind::HeartbeatTimeout {
                watched: int("watched")?,
            },
            "rank_death" => EventKind::RankDeath {
                rank: int("dead_rank")?,
            },
            "retile" => EventKind::Retile {
                moved_units: int("moved_units")?,
            },
            "steal_request" => EventKind::StealRequest {
                victim: int("victim")?,
            },
            "steal_grant" => EventKind::StealGrant {
                thief: int("thief")?,
                unit: int("granted_unit")?,
            },
            "steal_deny" => EventKind::StealDeny {
                thief: int("thief")?,
            },
            "checkpoint_write" => EventKind::CheckpointWrite,
            "kernel_choice" => EventKind::KernelChoice {
                block: int("block")?,
                sparse: v
                    .get("sparse")
                    .and_then(Json::as_bool)
                    .ok_or("kernel_choice event lacks bool \"sparse\"")?,
            },
            "iteration_done" => EventKind::IterationDone {
                residual: match v.get("residual") {
                    Some(Json::Num(r)) => *r,
                    _ => f64::NAN,
                },
                wall_secs: num("wall_secs")?,
            },
            "request_admitted" => EventKind::RequestAdmitted {
                request: int("request")?,
            },
            "request_rejected" => EventKind::RequestRejected {
                request: int("request")?,
            },
            "request_done" => EventKind::RequestDone {
                request: int("request")?,
                degraded_points: int("degraded_points")?,
            },
            "deadline_expired" => EventKind::DeadlineExpired {
                request: int("request")?,
            },
            "warm_fallback" => EventKind::WarmFallback {
                request: int("request")?,
                point: int("point")?,
            },
            "breaker_open" => EventKind::BreakerOpen {
                variant: int("variant")?,
            },
            "drain_checkpoint" => EventKind::DrainCheckpoint {
                request: int("request")?,
                point: int("point")?,
            },
            "corpus_mismatch" => {
                let bits = |k: &str| -> Result<u64, String> {
                    let s = v
                        .get(k)
                        .and_then(Json::as_str)
                        .ok_or(format!("corpus_mismatch event lacks string {k:?}"))?;
                    u64::from_str_radix(s.trim_start_matches("0x"), 16)
                        .map_err(|e| format!("bad {k} {s:?}: {e}"))
                };
                EventKind::CorpusMismatch {
                    point: int("point")?,
                    golden_bits: bits("golden_bits")?,
                    got_bits: bits("got_bits")?,
                }
            }
            "overflow" => EventKind::Overflow {
                dropped: int("dropped")?,
            },
            other => return Err(format!("unknown journal event kind {other:?}")),
        };
        let ctx = |k: &str| -> Result<i64, String> { Ok(num(k)? as i64) };
        Ok(Event {
            ts_us: num("ts_us")?,
            rank: ctx("rank")?,
            unit: ctx("unit")?,
            iteration: ctx("iteration")?,
            kind,
        })
    }

    /// One human-readable timeline line (without the timestamp prefix).
    pub fn describe(&self) -> String {
        let mut ctx = String::new();
        if self.rank >= 0 {
            ctx.push_str(&format!(" rank={}", self.rank));
        }
        if self.unit >= 0 {
            ctx.push_str(&format!(" unit={}", self.unit));
        }
        if self.iteration >= 0 {
            ctx.push_str(&format!(" iter={}", self.iteration));
        }
        let what = match self.kind {
            EventKind::QuarantinePoint { grid_index } => {
                format!("quarantined grid point {grid_index}")
            }
            EventKind::EtaRetry => "eta-bump decimation retry".to_string(),
            EventKind::MixingBackoff { factor } => {
                format!("mixing backoff -> factor {factor}")
            }
            EventKind::CommRetransmit { src, dst, attempt } => {
                format!("comm retransmit {src}->{dst} attempt {attempt}")
            }
            EventKind::HeartbeatTimeout { watched } => {
                format!("heartbeat timeout watching rank {watched}")
            }
            EventKind::RankDeath { rank } => format!("rank {rank} declared dead"),
            EventKind::Retile { moved_units } => {
                format!("survivors re-tiled, {moved_units} units migrated")
            }
            EventKind::StealRequest { victim } => format!("steal request to rank {victim}"),
            EventKind::StealGrant { thief, unit } => {
                format!("granted unit {unit} to thief {thief}")
            }
            EventKind::StealDeny { thief } => format!("denied steal request from {thief}"),
            EventKind::CheckpointWrite => "checkpoint written".to_string(),
            EventKind::KernelChoice { block, sparse } => {
                let kernel = if sparse { "sparse CSR" } else { "dense GEMM" };
                format!("coupling block {block} routed to {kernel} kernels")
            }
            EventKind::IterationDone {
                residual,
                wall_secs,
            } => {
                if residual.is_finite() {
                    format!("iteration done, residual {residual:.3e}, {wall_secs:.3}s")
                } else {
                    format!("iteration done (no residual), {wall_secs:.3}s")
                }
            }
            EventKind::RequestAdmitted { request } => {
                format!("request {request} admitted into the sweep queue")
            }
            EventKind::RequestRejected { request } => {
                format!("request {request} rejected with backpressure")
            }
            EventKind::RequestDone {
                request,
                degraded_points,
            } => {
                if degraded_points > 0 {
                    format!("request {request} done ({degraded_points} points degraded to cold)")
                } else {
                    format!("request {request} done")
                }
            }
            EventKind::DeadlineExpired { request } => {
                format!("deadline expired, cancelling request {request}")
            }
            EventKind::WarmFallback { request, point } => {
                format!("request {request} point {point} fell back from warm start to cold solve")
            }
            EventKind::BreakerOpen { variant } => {
                format!("circuit breaker opened for device variant {variant}")
            }
            EventKind::DrainCheckpoint { request, point } => {
                format!("drain checkpointed request {request} point {point}")
            }
            EventKind::CorpusMismatch {
                point,
                golden_bits,
                got_bits,
            } => {
                format!(
                    "corpus point {point} diverged from golden: {:e} vs {:e}",
                    f64::from_bits(golden_bits),
                    f64::from_bits(got_bits)
                )
            }
            EventKind::Overflow { dropped } => {
                format!("[ring overflow: {dropped} older events lost]")
            }
        };
        format!("{what}{ctx}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The journal is process-global; serialize tests that drain it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let _g = lock();
        reset_journal();
        set_journaling(false);
        emit(EventKind::EtaRetry);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn events_carry_attribution_and_sort_by_time() {
        let _g = lock();
        reset_journal();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_journaling(true);
        set_thread_rank(3);
        set_thread_unit(7);
        set_iteration(2);
        emit(EventKind::HeartbeatTimeout { watched: 1 });
        emit(EventKind::RankDeath { rank: 1 });
        set_journaling(false);
        set_thread_rank(-1);
        set_thread_unit(-1);
        set_iteration(-1);
        let events = drain();
        assert_eq!(events.len(), 2);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        let death = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::RankDeath { rank: 1 }))
            .unwrap();
        assert_eq!((death.rank, death.unit, death.iteration), (3, 7, 2));
        assert_eq!(event_count(), 0, "drain clears the rings");
    }

    #[test]
    fn overflow_wraps_keeps_newest_and_accounts_drops() {
        let _g = lock();
        reset_journal();
        set_ring_capacity(4);
        set_journaling(true);
        let dropped0 = counters::total(Counter::JournalDropped);
        for i in 0..10u64 {
            emit(EventKind::QuarantinePoint { grid_index: i });
        }
        set_journaling(false);
        let events = drain();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        // 4 survivors + 1 overflow marker; the survivors are the NEWEST 4.
        assert_eq!(events.len(), 5);
        assert!(matches!(events[0].kind, EventKind::Overflow { dropped: 6 }));
        let survivors: Vec<u64> = events[1..]
            .iter()
            .map(|e| match e.kind {
                EventKind::QuarantinePoint { grid_index } => grid_index,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(survivors, vec![6, 7, 8, 9]);
        assert_eq!(
            counters::total(Counter::JournalDropped) - dropped0,
            6,
            "every overwrite must bump journal.dropped"
        );
    }

    #[test]
    fn events_roundtrip_through_json() {
        let kinds = [
            EventKind::QuarantinePoint { grid_index: 9 },
            EventKind::EtaRetry,
            EventKind::MixingBackoff { factor: 0.25 },
            EventKind::CommRetransmit {
                src: 1,
                dst: 2,
                attempt: 3,
            },
            EventKind::HeartbeatTimeout { watched: 5 },
            EventKind::RankDeath { rank: 5 },
            EventKind::Retile { moved_units: 4 },
            EventKind::StealRequest { victim: 0 },
            EventKind::StealGrant { thief: 2, unit: 11 },
            EventKind::StealDeny { thief: 2 },
            EventKind::CheckpointWrite,
            EventKind::KernelChoice {
                block: 3,
                sparse: true,
            },
            EventKind::KernelChoice {
                block: 4,
                sparse: false,
            },
            EventKind::IterationDone {
                residual: 1e-6,
                wall_secs: 0.25,
            },
            EventKind::RequestAdmitted { request: 1 },
            EventKind::RequestRejected { request: 2 },
            EventKind::RequestDone {
                request: 1,
                degraded_points: 2,
            },
            EventKind::DeadlineExpired { request: 3 },
            EventKind::WarmFallback {
                request: 1,
                point: 4,
            },
            EventKind::BreakerOpen { variant: 0 },
            EventKind::DrainCheckpoint {
                request: 5,
                point: 6,
            },
            EventKind::CorpusMismatch {
                point: 2,
                golden_bits: 0x3FE0000000000000,
                got_bits: f64::NAN.to_bits(),
            },
            EventKind::Overflow { dropped: 17 },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = Event {
                ts_us: i as f64 * 10.0,
                rank: 1,
                unit: -1,
                iteration: 3,
                kind,
            };
            let back = Event::from_json(&ev.to_json()).unwrap();
            assert_eq!(back, ev, "kind {:?}", kind.tag());
            assert!(!ev.describe().is_empty());
        }
        // The no-residual iteration encodes NaN as null and decodes to NaN.
        let ev = Event {
            ts_us: 0.0,
            rank: -1,
            unit: -1,
            iteration: 0,
            kind: EventKind::IterationDone {
                residual: f64::NAN,
                wall_secs: 1.0,
            },
        };
        let back = Event::from_json(&ev.to_json()).unwrap();
        match back.kind {
            EventKind::IterationDone { residual, .. } => assert!(residual.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn from_json_rejects_unknown_kinds() {
        let v = Json::parse(
            r#"{"ts_us": 0, "rank": -1, "unit": -1, "iteration": -1, "kind": "warp_core_breach"}"#,
        )
        .unwrap();
        assert!(Event::from_json(&v).is_err());
    }
}
