//! Chrome/Perfetto `trace_event` export.
//!
//! Every closed span becomes one complete ("X") event; nesting is
//! reconstructed by the viewer from timestamps and durations per thread
//! track. Cross-rank causality — a send landing in a receive — is
//! encoded as flow-event pairs (`ph: "s"` on the sending rank's track,
//! `ph: "f"` on the receiving rank's) sharing an `id`, so the viewer draws
//! arrows between rank lanes. Load the emitted file in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

static TRACING: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
}

/// Chrome event phase: complete slices and the two ends of a flow arrow.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ph {
    Complete,
    FlowStart,
    FlowFinish,
}

struct Event {
    name: Cow<'static, str>,
    ts_us: f64,
    dur_us: f64,
    tid: u64,
    ph: Ph,
    /// Flow-pair correlation id; meaningful only for flow phases.
    flow_id: u64,
}

/// Track-id base for per-rank tracks: rank `r`'s slices land on tid
/// `RANK_TRACK_BASE + r`, far above the thread-local tids, so a trace
/// viewer shows one clean lane per world slot.
pub const RANK_TRACK_BASE: u64 = 1_000_000;

/// Turn trace-event buffering on or off. Turning it on pins the trace
/// epoch (timestamp zero) if not already set.
pub fn set_tracing(on: bool) {
    if on {
        let _ = EPOCH.set(Instant::now());
    }
    TRACING.store(on, Relaxed);
}

/// Is trace-event buffering enabled?
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Relaxed)
}

/// Append one complete event for a span that started at `t0` and ran for
/// `dur_ns`. No-op unless tracing is enabled.
pub fn record_event(name: &'static str, t0: Instant, dur_ns: u64) {
    record_on_track(Cow::Borrowed(name), t0, dur_ns, TID.with(|t| *t));
}

/// Append one complete event on the dedicated track of world slot `rank`
/// (tid `RANK_TRACK_BASE + rank`) — used for unit-granularity compute
/// slices so the trace shows one lane per rank regardless of which OS
/// thread backed it. Owned names allow per-unit labels like
/// `"sse/unit/7"`. No-op unless tracing is enabled.
pub fn record_rank_event(name: String, rank: usize, t0: Instant, dur_ns: u64) {
    record_on_track(Cow::Owned(name), t0, dur_ns, RANK_TRACK_BASE + rank as u64);
}

fn record_on_track(name: Cow<'static, str>, t0: Instant, dur_ns: u64, tid: u64) {
    if !tracing_enabled() {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let ts_us = t0.saturating_duration_since(epoch).as_nanos() as f64 / 1e3;
    EVENTS.lock().unwrap().push(Event {
        name,
        ts_us,
        dur_us: dur_ns as f64 / 1e3,
        tid,
        ph: Ph::Complete,
        flow_id: 0,
    });
}

/// Stable correlation id for a flow pair: FNV-1a over the identifying
/// words (e.g. `[salt, src, dst, tag, seq]` for a message). Both
/// endpoints must derive the id from the same words; the per-pair FIFO
/// channel order guarantees their ordinals agree.
pub fn flow_id(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Mask to 53 bits so the id survives the JSON number round-trip
    // exactly; 0 is reserved for "not a flow event".
    (h & ((1 << 53) - 1)).max(1)
}

/// Record the *initiating* end of a flow arrow (`ph: "s"`) on world slot
/// `rank`'s track, timestamped `at` (the send time). No-op unless tracing
/// is enabled.
pub fn record_flow_start(name: &'static str, rank: usize, id: u64, at: Instant) {
    record_flow(name, rank, id, Ph::FlowStart, at);
}

/// Record the *completing* end of a flow arrow (`ph: "f"`) on world slot
/// `rank`'s track, timestamped now. Must use the same `name` and `id` as
/// its matching [`record_flow_start`]. No-op unless tracing is enabled.
pub fn record_flow_finish(name: &'static str, rank: usize, id: u64) {
    record_flow(name, rank, id, Ph::FlowFinish, Instant::now());
}

fn record_flow(name: &'static str, rank: usize, id: u64, ph: Ph, at: Instant) {
    if !tracing_enabled() {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let ts_us = at.saturating_duration_since(epoch).as_nanos() as f64 / 1e3;
    EVENTS.lock().unwrap().push(Event {
        name: Cow::Borrowed(name),
        ts_us,
        dur_us: 0.0,
        tid: RANK_TRACK_BASE + rank as u64,
        ph,
        flow_id: id,
    });
}

/// Discard all buffered events.
pub fn clear_trace() {
    EVENTS.lock().unwrap().clear();
}

/// Number of buffered events.
pub fn event_count() -> usize {
    EVENTS.lock().unwrap().len()
}

/// Serialise the buffered events as Chrome `trace_event` JSON (object
/// format, complete events).
pub fn export_chrome_trace() -> String {
    let events = EVENTS.lock().unwrap();
    let items: Vec<Json> = events
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("name".to_string(), Json::Str(e.name.to_string())),
                (
                    "cat".to_string(),
                    Json::Str(category_of(&e.name).to_string()),
                ),
                (
                    "ph".to_string(),
                    Json::Str(
                        match e.ph {
                            Ph::Complete => "X",
                            Ph::FlowStart => "s",
                            Ph::FlowFinish => "f",
                        }
                        .to_string(),
                    ),
                ),
                ("ts".to_string(), Json::Num(e.ts_us)),
            ];
            match e.ph {
                Ph::Complete => fields.push(("dur".to_string(), Json::Num(e.dur_us))),
                Ph::FlowStart | Ph::FlowFinish => {
                    fields.push(("id".to_string(), Json::Num(e.flow_id as f64)));
                    if e.ph == Ph::FlowFinish {
                        // Bind to the enclosing slice so viewers draw the
                        // arrowhead inside the receiving rank's lane.
                        fields.push(("bp".to_string(), Json::Str("e".to_string())));
                    }
                }
            }
            fields.push(("pid".to_string(), Json::Num(1.0)));
            fields.push(("tid".to_string(), Json::Num(e.tid as f64)));
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(items)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
    .dump()
}

/// Check that `json` parses as a Chrome trace with at least one complete
/// event, returning the event count. Flow events (`ph: "s"` / `"f"`)
/// must pair up: every flow id carries exactly one start and one finish,
/// with non-decreasing timestamps and matching names. Used by the CI
/// smoke job and `reproduce profile --trace`.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let trace = Json::parse(json).map_err(|e| format!("trace does not parse: {e}"))?;
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("trace has no traceEvents array")?;
    if events.is_empty() {
        return Err("trace has no events".into());
    }
    // flow id → (name, starts, finishes, start ts, finish ts).
    let mut flows: std::collections::BTreeMap<u64, (String, u32, u32, f64, f64)> =
        std::collections::BTreeMap::new();
    let mut complete = 0usize;
    for ev in events {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event without name")?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {name:?} lacks ph"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {name:?} lacks ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {name:?} has bad ts {ts}"));
        }
        if ev.get("tid").and_then(Json::as_u64).is_none() {
            return Err(format!("event {name:?} lacks tid"));
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {name:?} lacks dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {name:?} has bad dur {dur}"));
                }
                complete += 1;
            }
            "s" | "f" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("flow event {name:?} lacks id"))?;
                let slot = flows
                    .entry(id)
                    .or_insert_with(|| (name.to_string(), 0, 0, 0.0, 0.0));
                if slot.0 != name {
                    return Err(format!(
                        "flow id {id} mixes names {:?} and {name:?}",
                        slot.0
                    ));
                }
                if ph == "s" {
                    slot.1 += 1;
                    slot.3 = ts;
                } else {
                    slot.2 += 1;
                    slot.4 = ts;
                }
            }
            other => {
                return Err(format!("event {name:?} has unsupported phase {other:?}"));
            }
        }
    }
    if complete == 0 {
        return Err("trace has no complete events".into());
    }
    for (id, (name, starts, finishes, s_ts, f_ts)) in &flows {
        if *starts != 1 || *finishes != 1 {
            return Err(format!(
                "flow {name:?} id {id} is unpaired: {starts} start(s), {finishes} finish(es)"
            ));
        }
        if f_ts < s_ts {
            return Err(format!(
                "flow {name:?} id {id} finishes before it starts ({f_ts} < {s_ts})"
            ));
        }
    }
    Ok(events.len())
}

/// Number of paired flow arrows in a trace that already passed
/// [`validate_chrome_trace`], grouped by name prefix. Convenience for
/// tests and the CI smoke assertions.
pub fn count_flows(json: &str, name: &str) -> usize {
    let Ok(trace) = Json::parse(json) else {
        return 0;
    };
    let Some(events) = trace.get("traceEvents").and_then(Json::as_array) else {
        return 0;
    };
    events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("s")
                && e.get("name").and_then(Json::as_str) == Some(name)
        })
        .count()
}

/// First path segment, used as the event category (`sse/sigma/dace` →
/// `sse`).
fn category_of(name: &str) -> &str {
    name.split(['/', '.']).next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace buffer is process-global: tests that record flow pairs
    // and tests that export/validate must not interleave (an export
    // between a flow's start and finish would see it unpaired).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn export_roundtrips_through_validation() {
        let _g = lock();
        set_tracing(true);
        record_event("test/trace/a", Instant::now(), 1_500);
        record_event("test/trace/b", Instant::now(), 2_500);
        set_tracing(false);
        let json = export_chrome_trace();
        let n = validate_chrome_trace(&json).unwrap();
        assert!(n >= 2);
    }

    #[test]
    fn rank_events_land_on_rank_tracks() {
        let _g = lock();
        set_tracing(true);
        record_rank_event("sse/unit/7".to_string(), 3, Instant::now(), 900);
        set_tracing(false);
        let json = export_chrome_trace();
        validate_chrome_trace(&json).unwrap();
        let trace = Json::parse(&json).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let ev = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("sse/unit/7"))
            .expect("rank event exported");
        assert_eq!(
            ev.get("tid").and_then(Json::as_u64),
            Some(RANK_TRACK_BASE + 3)
        );
    }

    #[test]
    fn categories_split_on_both_separators() {
        assert_eq!(category_of("sse/sigma/dace"), "sse");
        assert_eq!(category_of("gemm.pack"), "gemm");
        assert_eq!(category_of("scf"), "scf");
    }

    #[test]
    fn validation_rejects_eventless_trace() {
        assert!(validate_chrome_trace(r#"{"traceEvents": []}"#).is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn paired_flows_validate_and_are_countable() {
        // No clear_trace here: sibling tests share the global buffer, and
        // their complete events are harmless to this validation.
        let _g = lock();
        set_tracing(true);
        record_event("test/flow/slice", Instant::now(), 1_000);
        let id = flow_id(&[0, 1, 7, 42]);
        record_flow_start("comm/msg", 0, id, Instant::now());
        record_flow_finish("comm/msg", 1, id);
        let id2 = flow_id(&[2, 3, 7, 42]);
        assert_ne!(id, id2);
        record_flow_start("test/flow/arc", 2, id2, Instant::now());
        record_flow_finish("test/flow/arc", 3, id2);
        set_tracing(false);
        let json = export_chrome_trace();
        validate_chrome_trace(&json).unwrap();
        assert!(count_flows(&json, "comm/msg") >= 1);
        assert!(count_flows(&json, "test/flow/arc") >= 1);
    }

    #[test]
    fn unpaired_or_time_reversed_flows_are_rejected() {
        // A start with no finish.
        let json = r#"{"traceEvents": [
            {"name": "x", "cat": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
            {"name": "comm/msg", "cat": "comm", "ph": "s", "ts": 1, "id": 9, "pid": 1, "tid": 1}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("unpaired"), "got {err}");
        // A finish that precedes its start.
        let json = r#"{"traceEvents": [
            {"name": "x", "cat": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
            {"name": "comm/msg", "cat": "comm", "ph": "s", "ts": 5, "id": 9, "pid": 1, "tid": 1},
            {"name": "comm/msg", "cat": "comm", "ph": "f", "bp": "e", "ts": 2, "id": 9, "pid": 1, "tid": 2}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("finishes before"), "got {err}");
        // Two flows must not share an id under different names.
        let json = r#"{"traceEvents": [
            {"name": "x", "cat": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
            {"name": "a", "cat": "a", "ph": "s", "ts": 1, "id": 9, "pid": 1, "tid": 1},
            {"name": "b", "cat": "b", "ph": "f", "bp": "e", "ts": 2, "id": 9, "pid": 1, "tid": 2}
        ]}"#;
        assert!(validate_chrome_trace(json).unwrap_err().contains("mixes"));
        // A flow-only trace has no complete events and is rejected.
        let json = r#"{"traceEvents": [
            {"name": "a", "cat": "a", "ph": "s", "ts": 1, "id": 9, "pid": 1, "tid": 1},
            {"name": "a", "cat": "a", "ph": "f", "bp": "e", "ts": 2, "id": 9, "pid": 1, "tid": 2}
        ]}"#;
        assert!(validate_chrome_trace(json)
            .unwrap_err()
            .contains("no complete events"));
    }
}
