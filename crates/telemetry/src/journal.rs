//! Typed event journal: a lock-light, bounded flight recorder.
//!
//! Counters answer *how many*; the journal answers *what happened, in
//! what order, on which rank*. Every site that bumps a resilience or
//! balance counter also emits one typed [`Event`] here, so a chaos run
//! that goes wrong leaves a causal record (HeartbeatTimeout → RankDeath →
//! Retile) instead of an opaque aggregate.
//!
//! Events live in the journal lane of the emitting thread's
//! [`crate::recorder`] cell; this module is the fold over those lanes
//! plus the event codec. Overflow is never silent: a full lane overwrites
//! its oldest record (flight-recorder semantics — the newest events are
//! the ones a postmortem needs), but every overwrite bumps the
//! `journal.dropped` counter and the drain prepends one `Overflow{n}`
//! marker per overflowed lane.

use std::time::Instant;

use crate::counters::{self, Counter};
use crate::json::Json;
use crate::recorder;

/// The field codecs: integer, real (non-finite rides as `null`), boolean,
/// and a `u64` bit pattern (beyond f64's integer range) as a hex string.
struct Int;
struct Real;
struct Flag;
struct Hex;

impl Int {
    fn put(v: u64) -> Json {
        Json::Num(v as f64)
    }
    fn get(v: Option<&Json>) -> Option<u64> {
        v?.as_u64()
    }
}

impl Real {
    fn put(v: f64) -> Json {
        Json::Num(v)
    }
    fn get(v: Option<&Json>) -> Option<f64> {
        match v? {
            Json::Null => Some(f64::NAN),
            other => other.as_f64(),
        }
    }
}

impl Flag {
    fn put(v: bool) -> Json {
        Json::Bool(v)
    }
    fn get(v: Option<&Json>) -> Option<bool> {
        v?.as_bool()
    }
}

impl Hex {
    fn put(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }
    fn get(v: Option<&Json>) -> Option<u64> {
        u64::from_str_radix(v?.as_str()?.trim_start_matches("0x"), 16).ok()
    }
}

/// The one place an event kind is named: its variant, JSON tag, each
/// field with its codec and JSON key, and its timeline text. The enum,
/// [`EventKind::tag`], the kind half of the event codec and of
/// [`Event::describe`] are derived from the rows.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident $tag:literal $({$(
            $(#[$fdoc:meta])*
            $field:ident: $ty:ty = $codec:ident($key:literal),
        )*})? => $text:expr,
    )*) => {
        /// What happened. Variants are `Copy` — no owned data — so emitting
        /// an event never allocates.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum EventKind {$(
            $(#[$doc])*
            $kind $({$($(#[$fdoc])* $field: $ty,)*})?,
        )*}

        impl EventKind {
            /// Stable kind tag used in the JSON encoding and postmortem
            /// timeline.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(EventKind::$kind { .. } => $tag,)*
                }
            }

            /// The kind-specific fields in encoding order.
            fn fields(&self) -> Vec<(String, Json)> {
                match *self {$(
                    EventKind::$kind $({$($field,)*})? => vec![$($(
                        ($key.to_string(), $codec::put($field)),
                    )*)?],
                )*}
            }

            /// The timeline text of this kind.
            fn text(&self) -> String {
                match *self {
                    $(EventKind::$kind $({$($field,)*})? => $text.to_string(),)*
                }
            }

            /// Decode the kind tagged `tag` from the fields of `v`.
            fn decode(tag: &str, v: &Json) -> Result<EventKind, String> {
                Ok(match tag {
                    $($tag => EventKind::$kind $({$(
                        $field: $codec::get(v.get($key))
                            .ok_or(concat!($tag, " event lacks a valid ", stringify!($key)))?,
                    )*})?,)*
                    other => return Err(format!("unknown journal event kind {other:?}")),
                })
            }
        }
    };
}

event_kinds! {
    /// A grid point failed a numerical-health check and was excluded.
    QuarantinePoint "quarantine_point" {
        /// Flattened `(E, kz)` / `(ω, qz)` grid index.
        grid_index: u64 = Int("grid_index"),
    } => format!("quarantined grid point {grid_index}"),
    /// A Sancho-Rubio decimation was retried at bumped broadening.
    EtaRetry "eta_retry" => "eta-bump decimation retry",
    /// The adaptive SCF controller halved the mixing factor.
    MixingBackoff "mixing_backoff" {
        /// The new (halved) mixing factor.
        factor: f64 = Real("factor"),
    } => format!("mixing backoff -> factor {factor}"),
    /// A frame was retransmitted, timed out, or discarded as corrupt. No
    /// longer emitted; kept so older reports load.
    CommRetransmit "comm_retransmit" {
        /// Sending world slot.
        src: u64 = Int("src"),
        /// Receiving world slot.
        dst: u64 = Int("dst"),
        /// Wire attempt index (0-based).
        attempt: u64 = Int("attempt"),
    } => format!("comm retransmit {src}->{dst} attempt {attempt}"),
    /// A liveness probe of a peer failed: a receive or barrier poll expired
    /// while watching its epoch, or a send found its endpoint closed.
    HeartbeatTimeout "heartbeat_timeout" {
        /// The world slot whose heartbeat was being watched.
        watched: u64 = Int("watched"),
    } => format!("heartbeat timeout watching rank {watched}"),
    /// A rank was declared permanently dead.
    RankDeath "rank_death" {
        /// The dead world slot (original identity).
        rank: u64 = Int("dead_rank"),
    } => format!("rank {rank} declared dead"),
    /// Survivors re-tiled the decomposition after a death.
    Retile "retile" {
        /// Work units migrated onto survivors in this pass.
        moved_units: u64 = Int("moved_units"),
    } => format!("survivors re-tiled, {moved_units} units migrated"),
    /// An idle rank asked a peer for work. No longer emitted; kept so
    /// older postmortems load.
    StealRequest "steal_request" {
        /// The rank being asked.
        victim: u64 = Int("victim"),
    } => format!("steal request to rank {victim}"),
    /// A straggler granted a work unit to a thief. No longer emitted;
    /// kept so older postmortems load.
    StealGrant "steal_grant" {
        /// The requesting rank.
        thief: u64 = Int("thief"),
        /// The granted work unit.
        unit: u64 = Int("granted_unit"),
    } => format!("granted unit {unit} to thief {thief}"),
    /// A steal request was declined (empty queue or finished victim). No
    /// longer emitted; kept so older postmortems load.
    StealDeny "steal_deny" {
        /// The requesting rank.
        thief: u64 = Int("thief"),
    } => format!("denied steal request from {thief}"),
    /// An SCF checkpoint was written to disk.
    CheckpointWrite "checkpoint_write" => "checkpoint written",
    /// The kernel selector set or flipped a sticky per-coupling-block
    /// choice between the CSR sparse kernels and the blocked dense GEMM.
    /// No longer emitted; kept so older postmortems load.
    KernelChoice "kernel_choice" {
        /// Coupling-block index within the device (0-based).
        block: u64 = Int("block"),
        /// `true` when the CSR sparse route was chosen.
        sparse: bool = Flag("sparse"),
    } => {
        let kernel = if sparse { "sparse CSR" } else { "dense GEMM" };
        format!("coupling block {block} routed to {kernel} kernels")
    },
    /// An SCF iteration completed.
    IterationDone "iteration_done" {
        /// Convergence residual; NaN on the first iteration (none yet).
        residual: f64 = Real("residual"),
        /// Iteration wall time in seconds.
        wall_secs: f64 = Real("wall_secs"),
    } => match residual.is_finite() {
        true => format!("iteration done, residual {residual:.3e}, {wall_secs:.3}s"),
        false => format!("iteration done (no residual), {wall_secs:.3}s"),
    },
    /// A sweep request passed admission control and entered the queue.
    RequestAdmitted "request_admitted" {
        /// Service-assigned request id.
        request: u64 = Int("request"),
    } => format!("request {request} admitted into the sweep queue"),
    /// A sweep request was rejected with backpressure (queue full,
    /// breaker open, or shutdown).
    RequestRejected "request_rejected" {
        /// Service-assigned request id.
        request: u64 = Int("request"),
    } => format!("request {request} rejected with backpressure"),
    /// A sweep request finished with every point answered.
    RequestDone "request_done" {
        /// Service-assigned request id.
        request: u64 = Int("request"),
        /// Points that degraded from a warm start to a cold solve.
        degraded_points: u64 = Int("degraded_points"),
    } => match degraded_points {
        0 => format!("request {request} done"),
        n => format!("request {request} done ({n} points degraded to cold)"),
    },
    /// The deadline watchdog cancelled an in-flight request.
    DeadlineExpired "deadline_expired" {
        /// Service-assigned request id.
        request: u64 = Int("request"),
    } => format!("deadline expired, cancelling request {request}"),
    /// A warm-started point failed validation and re-ran cold.
    WarmFallback "warm_fallback" {
        /// Service-assigned request id.
        request: u64 = Int("request"),
        /// Sweep point index within the request.
        point: u64 = Int("point"),
    } => format!(
        "request {request} point {point} fell back from warm start to cold solve"
    ),
    /// The circuit breaker quarantined a device variant.
    BreakerOpen "breaker_open" {
        /// Variant slot in the service's variant table.
        variant: u64 = Int("variant"),
    } => format!("circuit breaker opened for device variant {variant}"),
    /// Drain-on-shutdown checkpointed an in-flight sweep point.
    DrainCheckpoint "drain_checkpoint" {
        /// Service-assigned request id.
        request: u64 = Int("request"),
        /// Sweep point index within the request.
        point: u64 = Int("point"),
    } => format!("drain checkpointed request {request} point {point}"),
    /// A corpus scenario's observable diverged from its golden record at
    /// one sweep point. The numeric diff rides the event as raw f64 bits
    /// so the postmortem timeline can reproduce the comparison exactly.
    CorpusMismatch "corpus_mismatch" {
        /// Sweep point index within the scenario.
        point: u64 = Int("point"),
        /// `f64::to_bits` of the golden value.
        golden_bits: u64 = Hex("golden_bits"),
        /// `f64::to_bits` of the observed value.
        got_bits: u64 = Hex("got_bits"),
    } => format!(
        "corpus point {point} diverged from golden: {:e} vs {:e}",
        f64::from_bits(golden_bits),
        f64::from_bits(got_bits)
    ),
    /// Marker prepended at drain time for a lane that overflowed:
    /// `dropped` older events were overwritten before this drain.
    Overflow "overflow" {
        /// Number of overwritten (lost) events.
        dropped: u64 = Int("dropped"),
    } => format!("[ring overflow: {dropped} older events lost]"),
}

/// One journal record: a timestamped [`EventKind`] with rank/unit/
/// iteration attribution (−1 = not attributed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder's epoch.
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

/// Record `kind` with the calling thread's attribution. No-op (one
/// relaxed load) while the journal is off.
#[inline]
pub fn emit(kind: EventKind) {
    if !recorder::is_on(recorder::JOURNAL) {
        return;
    }
    emit_now(kind);
}

#[cold]
fn emit_now(kind: EventKind) {
    let (rank, unit, iteration) = recorder::context();
    let ts_us = recorder::us_at(Instant::now());
    let ev = Event {
        ts_us,
        rank,
        unit,
        iteration,
        kind,
    };
    recorder::with_lanes(|l| {
        if l.journal.push(ev) {
            counters::add(Counter::JournalDropped, 1);
        }
    });
}

/// Drain every thread's journal lane into one timeline sorted by
/// timestamp, clearing the lanes. A lane that overflowed contributes an
/// `Overflow{n}` marker stamped at its oldest survivor, so the merged
/// timeline shows where the gap sits.
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    recorder::for_each(|_, l| {
        let lane = &mut l.journal;
        if let (dropped @ 1.., Some(&oldest)) = (lane.dropped, lane.iter().next()) {
            let kind = EventKind::Overflow { dropped };
            out.push(Event {
                unit: -1,
                iteration: -1,
                kind,
                ..oldest
            });
        }
        out.extend(lane.iter().copied());
        lane.clear();
    });
    out.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    out
}

/// Per-kind counts of the currently buffered events, sorted by kind tag.
/// Non-consuming — the report's journal summary must not eat the
/// postmortem's timeline.
pub fn kind_counts() -> Vec<(&'static str, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    recorder::for_each(|_, l| {
        for e in l.journal.iter() {
            *counts.entry(e.kind.tag()).or_insert(0) += 1;
        }
    });
    counts.into_iter().collect()
}

/// Number of events currently buffered (survivors of any overflow).
pub fn event_count() -> usize {
    kind_counts().iter().map(|&(_, n)| n as usize).sum()
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
        fields.extend(self.kind.fields());
        Json::Obj(fields)
    }

    /// Decode an event encoded by [`Event::to_json`].
    pub fn from_json(v: &Json) -> Result<Event, String> {
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("journal event lacks number {k:?}"))
        };
        let tag = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("journal event lacks kind tag")?;
        Ok(Event {
            kind: EventKind::decode(tag, v)?,
            ts_us: num("ts_us")?,
            rank: num("rank")? as i64,
            unit: num("unit")? as i64,
            iteration: num("iteration")? as i64,
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
        let what = self.kind.text();
        format!("{what}{ctx}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{self, test_lock as lock, JOURNAL};

    #[test]
    fn disabled_journal_records_nothing() {
        let _g = lock();
        recorder::clear();
        recorder::switch(JOURNAL, false);
        emit(EventKind::EtaRetry);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn events_carry_attribution_and_sort_by_time() {
        let _g = lock();
        recorder::clear();
        recorder::switch(JOURNAL, true);
        recorder::set_rank(3);
        recorder::set_unit(7);
        let iteration = recorder::enter_iteration(2);
        emit(EventKind::HeartbeatTimeout { watched: 1 });
        emit(EventKind::RankDeath { rank: 1 });
        recorder::switch(JOURNAL, false);
        recorder::set_rank(-1);
        recorder::set_unit(-1);
        drop(iteration);
        let events = drain();
        assert_eq!(events.len(), 2);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        let death = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::RankDeath { rank: 1 }))
            .unwrap();
        assert_eq!((death.rank, death.unit, death.iteration), (3, 7, 2));
        assert_eq!(event_count(), 0, "drain clears the lanes");
    }

    #[test]
    fn overflow_wraps_keeps_newest_and_accounts_drops() {
        let _g = lock();
        recorder::set_capacity(4);
        recorder::switch(JOURNAL, true);
        let dropped0 = counters::total(Counter::JournalDropped);
        for i in 0..10u64 {
            emit(EventKind::QuarantinePoint { grid_index: i });
        }
        recorder::switch(JOURNAL, false);
        let events = drain();
        recorder::set_capacity(recorder::DEFAULT_CAPACITY);
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
