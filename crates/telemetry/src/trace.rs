//! Chrome/Perfetto `trace_event` export.
//!
//! Every closed span becomes one complete ("X") event; nesting is
//! reconstructed by the viewer from timestamps and durations per thread
//! track. Cross-rank causality — a send landing in a receive — is
//! encoded as flow-event pairs (`ph: "s"` on the sending rank's track,
//! `ph: "f"` on the receiving rank's) sharing an `id`, so the viewer draws
//! arrows between rank lanes. Load the emitted file in `chrome://tracing` or
//! <https://ui.perfetto.dev>. Both live in bounded [`crate::recorder`]
//! lanes; the export states how many records they dropped.

use std::time::Instant;

use crate::json::Json;
use crate::recorder;

/// One complete ("X") slice.
pub(crate) struct Slice {
    name: &'static str,
    /// `(rank, unit)` of a unit slice, which lands on the rank's track as
    /// `{name}/{unit}`; `None` for a span on its thread's track.
    at: Option<(usize, usize)>,
    ts_us: f64,
    dur_us: f64,
}

/// One send→receive arrow: both ends in one record, so an overflowing
/// lane loses whole pairs and the export never holds half of one.
pub(crate) struct Flow {
    name: &'static str,
    id: u64,
    src: usize,
    dst: usize,
    sent_us: f64,
    recv_us: f64,
}

/// Track-id base for per-rank tracks: rank `r`'s slices land on tid
/// `RANK_TRACK_BASE + r`, far above the per-thread tracks, so a trace
/// viewer shows one clean lane per world slot.
pub const RANK_TRACK_BASE: u64 = 1_000_000;

/// Append one complete slice that started at `t0` and ran `ns`: a span on
/// the calling thread's track, or with `at = (rank, unit)` a unit compute
/// slice named `{name}/{unit}` on world slot `rank`'s track (tid
/// `RANK_TRACK_BASE + rank`), so the trace shows one lane per rank whichever
/// OS thread backed it. The name is rendered at export, so the call
/// allocates nothing. No-op unless tracing is on.
pub fn record_slice(name: &'static str, at: Option<(usize, usize)>, t0: Instant, ns: u64) {
    if !recorder::is_on(recorder::TRACE) {
        return;
    }
    let slice = Slice {
        name,
        at,
        ts_us: recorder::us_at(t0),
        dur_us: ns as f64 / 1e3,
    };
    recorder::with_lanes(|l| {
        l.slices.push(slice);
    });
}

/// Stable correlation id for a flow pair: FNV-1a over the identifying
/// words (e.g. `[salt, src, dst, tag, seq]` for a message). The per-pair
/// FIFO channel order makes the ordinals of both endpoints agree.
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

/// Record one flow arrow, received now: its start (`ph: "s"`) on world
/// slot `src`'s track at `sent_at`, its finish (`ph: "f"`) on `dst`'s.
/// No-op unless tracing is on.
pub fn record_flow(name: &'static str, src: usize, dst: usize, id: u64, sent_at: Instant) {
    if !recorder::is_on(recorder::TRACE) {
        return;
    }
    let (sent_us, recv_us) = (recorder::us_at(sent_at), recorder::us_at(Instant::now()));
    let flow = Flow {
        name,
        id,
        src,
        dst,
        sent_us,
        recv_us,
    };
    recorder::with_lanes(|l| {
        l.flows.push(flow);
    });
}

/// One exported trace event: `tail` goes between `ts` and `pid`.
fn event(name: &str, ph: &str, ts: f64, tail: Vec<(&str, Json)>, tid: u64) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.to_string())),
        ("cat", Json::Str(category_of(name).to_string())),
        ("ph", Json::Str(ph.to_string())),
        ("ts", Json::Num(ts)),
    ];
    fields.extend(tail);
    fields.extend([("pid", Json::Num(1.0)), ("tid", Json::Num(tid as f64))]);
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialise every thread's slices and flow pairs as Chrome
/// `trace_event` JSON (object format). `otherData` counts the records the
/// bounded lanes dropped.
pub fn export_chrome_trace() -> String {
    let (mut events, mut dropped) = (Vec::new(), [0u64; 2]);
    let rank_track = |rank: usize| RANK_TRACK_BASE + rank as u64;
    recorder::for_each(|track, l| {
        for s in l.slices.iter() {
            let (name, tid) = match s.at {
                None => (s.name.to_string(), track),
                Some((rank, unit)) => (format!("{}/{unit}", s.name), rank_track(rank)),
            };
            events.push(event(
                &name,
                "X",
                s.ts_us,
                vec![("dur", Json::Num(s.dur_us))],
                tid,
            ));
        }
        for f in l.flows.iter() {
            let id = || ("id", Json::Num(f.id as f64));
            events.push(event(f.name, "s", f.sent_us, vec![id()], rank_track(f.src)));
            // `bp: e` binds the finish to the enclosing slice, so viewers
            // draw the arrowhead inside the receiving rank's lane.
            let tail = vec![id(), ("bp", Json::Str("e".to_string()))];
            events.push(event(f.name, "f", f.recv_us, tail, rank_track(f.dst)));
        }
        dropped[0] += l.slices.dropped;
        dropped[1] += l.flows.dropped;
    });
    let other = [
        ("dropped_slices", dropped[0]),
        ("dropped_flows", dropped[1]),
    ];
    let other = other.map(|(k, n)| (k.to_string(), Json::Num(n as f64)));
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ("otherData".to_string(), Json::Obj(other.to_vec())),
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
        let time = |k: &str| match ev.get(k).and_then(Json::as_f64) {
            None => Err(format!("event {name:?} lacks {k}")),
            Some(t) if !t.is_finite() || t < 0.0 => Err(format!("event {name:?} has bad {k} {t}")),
            Some(t) => Ok(t),
        };
        let ts = time("ts")?;
        if ev.get("tid").and_then(Json::as_u64).is_none() {
            return Err(format!("event {name:?} lacks tid"));
        }
        match ph {
            "X" => {
                time("dur")?;
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

/// First path segment, used as the event category (`sse/sigma/dace` →
/// `sse`).
fn category_of(name: &str) -> &str {
    name.split(['/', '.']).next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{test_lock as lock, TRACE};

    /// Number of flow arrows named `name` in a validated trace.
    fn count_flows(json: &str, name: &str) -> usize {
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

    #[test]
    fn export_roundtrips_through_validation() {
        let _g = lock();
        recorder::switch(TRACE, true);
        record_slice("test/trace/a", None, Instant::now(), 1_500);
        record_slice("test/trace/b", None, Instant::now(), 2_500);
        recorder::switch(TRACE, false);
        let json = export_chrome_trace();
        let n = validate_chrome_trace(&json).unwrap();
        assert!(n >= 2);
    }

    #[test]
    fn rank_events_land_on_rank_tracks() {
        let _g = lock();
        recorder::switch(TRACE, true);
        record_slice("sse/unit", Some((3, 7)), Instant::now(), 900);
        recorder::switch(TRACE, false);
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
        // No clear here: sibling tests' complete events are harmless to
        // this validation.
        let _g = lock();
        recorder::switch(TRACE, true);
        record_slice("test/flow/slice", None, Instant::now(), 1_000);
        let id = flow_id(&[0, 1, 7, 42]);
        record_flow("comm/msg", 0, 1, id, Instant::now());
        let id2 = flow_id(&[2, 3, 7, 42]);
        assert_ne!(id, id2);
        record_flow("test/flow/arc", 2, 3, id2, Instant::now());
        recorder::switch(TRACE, false);
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
