//! Postmortem dumps: the flight recorder's crash artifact.
//!
//! When a run ends abnormally — a supervisor-observed rank death, whether
//! recovered or ended in `RankLoss`, or a panic — the journal
//! rings are drained into one versioned `POSTMORTEM.json`: the merged
//! event timeline, per-rank progress watermarks, and the last telemetry
//! report snapshot. `reproduce postmortem <file>` pretty-prints the
//! causal timeline (HeartbeatTimeout → RankDeath → Retile) so a failed
//! chaos run can be debugged from the artifact alone.
//!
//! The loader classifies corruption the same way the checkpoint reader
//! does: garbage is [`PostmortemError::NotJson`], a real postmortem from
//! an incompatible build is [`PostmortemError::UnsupportedVersion`], and
//! a structurally broken file is [`PostmortemError::Invalid`] — never a
//! silent partial load.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use crate::journal::{self, Event, EventKind};
use crate::json::Json;
use crate::report::TelemetryReport;

/// Postmortem format version written by this build.
pub const POSTMORTEM_VERSION: u64 = 1;

/// Why a postmortem could not be read.
#[derive(Debug)]
pub enum PostmortemError {
    /// The file could not be opened or read at all.
    Io(io::Error),
    /// The bytes are not JSON (garbage or truncated mid-document).
    NotJson(String),
    /// Valid JSON but not a postmortem (missing the version marker).
    NotAPostmortem,
    /// A real postmortem from an incompatible build.
    UnsupportedVersion {
        /// The on-disk version field.
        found: u64,
        /// The version this build reads.
        supported: u64,
    },
    /// A structurally broken field inside a version-matched file.
    Invalid(String),
}

impl fmt::Display for PostmortemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PostmortemError::Io(e) => write!(f, "postmortem I/O error: {e}"),
            PostmortemError::NotJson(e) => write!(f, "not JSON (garbage or truncated): {e}"),
            PostmortemError::NotAPostmortem => write!(f, "JSON but not a postmortem (no version)"),
            PostmortemError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported postmortem version {found} (this build reads {supported})"
            ),
            PostmortemError::Invalid(what) => write!(f, "corrupt postmortem: {what}"),
        }
    }
}

impl std::error::Error for PostmortemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PostmortemError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PostmortemError {
    fn from(e: io::Error) -> Self {
        PostmortemError::Io(e)
    }
}

/// Per-rank progress watermark derived from the drained journal: how far
/// each world slot got before the run ended.
#[derive(Clone, Debug, PartialEq)]
pub struct RankWatermark {
    /// World slot.
    pub rank: u64,
    /// Timestamp of the rank's last journal event (µs since epoch).
    pub last_event_us: f64,
    /// Events the rank emitted.
    pub events: u64,
    /// Highest SCF iteration the rank was seen in (−1 if none).
    pub iteration: i64,
}

/// The versioned crash artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Postmortem {
    /// Format version ([`POSTMORTEM_VERSION`]).
    pub version: u64,
    /// Trigger class: `"rank_death"` (recovered), `"rank_loss"` (ended in
    /// `RankLoss`) or `"panic"`; dumps from older builds may carry
    /// `"degraded_completion"`, which loads like any other.
    pub reason: String,
    /// Free-form detail (dead ranks, panic message, …).
    pub detail: String,
    /// The merged journal timeline, sorted by timestamp.
    pub events: Vec<Event>,
    /// Journal events lost to ring overflow before the dump.
    pub dropped: u64,
    /// Per-rank progress watermarks.
    pub watermarks: Vec<RankWatermark>,
    /// Last telemetry report snapshot, when one was available.
    pub report: Option<TelemetryReport>,
}

impl Postmortem {
    /// Drain the journal and assemble a postmortem. The journal rings are
    /// consumed — a second capture sees only events emitted after this
    /// one.
    pub fn capture(reason: &str, detail: &str, report: Option<TelemetryReport>) -> Postmortem {
        let events = journal::drain();
        let dropped = events
            .iter()
            .map(|e| match e.kind {
                EventKind::Overflow { dropped } => dropped,
                _ => 0,
            })
            .sum();
        let watermarks = watermarks_of(&events);
        Postmortem {
            version: POSTMORTEM_VERSION,
            reason: reason.to_string(),
            detail: detail.to_string(),
            events,
            dropped,
            watermarks,
            report,
        }
    }

    /// Serialise as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(Event::to_json).collect();
        let watermarks = self
            .watermarks
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("rank".to_string(), Json::Num(w.rank as f64)),
                    ("last_event_us".to_string(), Json::Num(w.last_event_us)),
                    ("events".to_string(), Json::Num(w.events as f64)),
                    ("iteration".to_string(), Json::Num(w.iteration as f64)),
                ])
            })
            .collect();
        let report = match &self.report {
            None => Json::Null,
            // The report has its own serializer; nest it as a parsed tree
            // so the postmortem stays one JSON document.
            Some(r) => Json::parse(&r.to_json()).expect("report JSON parses"),
        };
        Json::Obj(vec![
            ("version".to_string(), Json::Num(self.version as f64)),
            ("reason".to_string(), Json::Str(self.reason.clone())),
            ("detail".to_string(), Json::Str(self.detail.clone())),
            ("events".to_string(), Json::Arr(events)),
            ("dropped".to_string(), Json::Num(self.dropped as f64)),
            ("watermarks".to_string(), Json::Arr(watermarks)),
            ("report".to_string(), report),
        ])
        .dump()
    }

    /// Parse a postmortem, classifying any corruption.
    pub fn from_json(json: &str) -> Result<Postmortem, PostmortemError> {
        let root = Json::parse(json).map_err(PostmortemError::NotJson)?;
        let version = root
            .get("version")
            .and_then(Json::as_u64)
            .ok_or(PostmortemError::NotAPostmortem)?;
        if version != POSTMORTEM_VERSION {
            return Err(PostmortemError::UnsupportedVersion {
                found: version,
                supported: POSTMORTEM_VERSION,
            });
        }
        let invalid = |what: String| PostmortemError::Invalid(what);
        let str_field = |key: &str| -> Result<String, PostmortemError> {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("missing string {key:?}")))
        };
        let events = root
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("missing events array".into()))?
            .iter()
            .map(Event::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(invalid)?;
        let watermarks = root
            .get("watermarks")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("missing watermarks array".into()))?
            .iter()
            .map(|w| -> Result<RankWatermark, PostmortemError> {
                let int = |k: &str| {
                    w.get(k)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| invalid(format!("watermark lacks {k:?}")))
                };
                Ok(RankWatermark {
                    rank: int("rank")? as u64,
                    last_event_us: int("last_event_us")?,
                    events: int("events")? as u64,
                    iteration: int("iteration")? as i64,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let report = match root.get("report") {
            Some(Json::Null) | None => None,
            Some(r) => Some(TelemetryReport::from_json(&r.dump()).map_err(invalid)?),
        };
        Ok(Postmortem {
            version,
            reason: str_field("reason")?,
            detail: str_field("detail")?,
            events,
            dropped: root
                .get("dropped")
                .and_then(Json::as_u64)
                .ok_or_else(|| invalid("missing dropped count".into()))?,
            watermarks,
            report,
        })
    }

    /// Write atomically (temp file + rename), like the SCF checkpoint.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_json())?;
        fs::rename(&tmp, path)
    }

    /// Load a postmortem written by [`Postmortem::save`].
    pub fn load(path: &Path) -> Result<Postmortem, PostmortemError> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Render the causal timeline as human-readable text: header, one
    /// line per event (timestamped, attributed), then the per-rank
    /// watermarks.
    pub fn timeline(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "POSTMORTEM v{} — {}: {}\n",
            self.version, self.reason, self.detail
        ));
        out.push_str(&format!(
            "{} events ({} lost to ring overflow)\n\n",
            self.events.len(),
            self.dropped
        ));
        for e in &self.events {
            out.push_str(&format!("{:>12.1} us  {}\n", e.ts_us, e.describe()));
        }
        if !self.watermarks.is_empty() {
            out.push_str("\nper-rank progress watermarks:\n");
            for w in &self.watermarks {
                out.push_str(&format!(
                    "  rank {:>3}: {} events, last at {:.1} us, iteration {}\n",
                    w.rank, w.events, w.last_event_us, w.iteration
                ));
            }
        }
        out
    }
}

fn watermarks_of(events: &[Event]) -> Vec<RankWatermark> {
    let mut marks: Vec<RankWatermark> = Vec::new();
    for e in events {
        if e.rank < 0 {
            continue;
        }
        let rank = e.rank as u64;
        let mark = match marks.iter_mut().find(|m| m.rank == rank) {
            Some(m) => m,
            None => {
                marks.push(RankWatermark {
                    rank,
                    last_event_us: 0.0,
                    events: 0,
                    iteration: -1,
                });
                marks.last_mut().unwrap()
            }
        };
        mark.events += 1;
        mark.last_event_us = mark.last_event_us.max(e.ts_us);
        mark.iteration = mark.iteration.max(e.iteration);
    }
    marks.sort_by_key(|m| m.rank);
    marks
}

/// Install a panic hook that dumps a postmortem to `path` before the
/// default hook runs. Installs at most once per process; later calls
/// retarget the path.
pub fn install_panic_hook(path: std::path::PathBuf) {
    static TARGET: Mutex<Option<std::path::PathBuf>> = Mutex::new(None);
    let mut target = TARGET.lock().unwrap();
    let first = target.is_none();
    *target = Some(path);
    if !first {
        return;
    }
    drop(target);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let detail = info.to_string();
        let pm = Postmortem::capture("panic", &detail, None);
        if let Some(path) = TARGET.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
            let _ = pm.save(path);
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts_us: 10.0,
                rank: 0,
                unit: -1,
                iteration: 1,
                kind: EventKind::HeartbeatTimeout { watched: 3 },
            },
            Event {
                ts_us: 20.0,
                rank: -1,
                unit: -1,
                iteration: 1,
                kind: EventKind::RankDeath { rank: 3 },
            },
            Event {
                ts_us: 30.0,
                rank: -1,
                unit: -1,
                iteration: 1,
                kind: EventKind::Retile { moved_units: 2 },
            },
            Event {
                ts_us: 5.0,
                rank: 1,
                unit: 4,
                iteration: 2,
                kind: EventKind::Overflow { dropped: 9 },
            },
        ]
    }

    fn sample() -> Postmortem {
        let events = sample_events();
        let watermarks = watermarks_of(&events);
        Postmortem {
            version: POSTMORTEM_VERSION,
            reason: "rank-death".to_string(),
            detail: "rank 3 died mid-exchange".to_string(),
            events,
            dropped: 9,
            watermarks,
            report: None,
        }
    }

    #[test]
    fn roundtrips_through_json_and_disk() {
        let pm = sample();
        let back = Postmortem::from_json(&pm.to_json()).unwrap();
        assert_eq!(back, pm);

        let dir = std::env::temp_dir().join("qt-postmortem-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("POSTMORTEM.json");
        pm.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");
        let back = Postmortem::load(&path).unwrap();
        assert_eq!(back, pm);
        fs::remove_file(&path).unwrap();
    }

    /// A version-1 dump written by the parent commit (hand-written report
    /// blocks) still loads, with its embedded report, and re-serialises to
    /// the same bytes.
    #[test]
    fn parent_written_postmortem_still_loads() {
        const PARENT: &str = include_str!("../tests/fixtures/parent_postmortem.json");
        assert_eq!(POSTMORTEM_VERSION, 1);
        let pm = Postmortem::from_json(PARENT).unwrap();
        assert_eq!(pm.reason, "rank_death");
        assert_eq!(pm.events.len(), 4);
        let rep = pm.report.as_ref().expect("embedded report");
        rep.validate().unwrap();
        assert_eq!(rep.counter(crate::Counter::ElasticRankDeaths), 2);
        assert_eq!(pm.to_json(), PARENT);
    }

    #[test]
    fn parent_written_degraded_completion_postmortem_still_loads_and_prints() {
        // Written by the build whose supervisor completed an unrecovered
        // death degraded, under the reason it used for that outcome.
        const PARENT: &str = include_str!("../tests/fixtures/parent_postmortem_degraded.json");
        let pm = Postmortem::from_json(PARENT).unwrap();
        assert_eq!(pm.reason, "degraded_completion");
        assert!(pm.report.is_none());
        let timeline = pm.timeline();
        assert!(timeline.starts_with("POSTMORTEM v1 — degraded_completion: deaths=[0]"));
        assert!(timeline.contains("rank 0 declared dead"));
        assert_eq!(pm.to_json(), PARENT);
    }

    #[test]
    fn parent_written_retransmit_postmortem_still_loads() {
        // Written by the build that still injected frame drops, before
        // `CommRetransmit` and `health.comm_retries` stopped being emitted.
        const PARENT: &str = include_str!("../tests/fixtures/parent_postmortem_retransmit.json");
        let pm = Postmortem::from_json(PARENT).unwrap();
        assert_eq!(pm.reason, "rank_death");
        assert!(pm
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CommRetransmit { .. })));
        let rep = pm.report.as_ref().expect("embedded report");
        rep.validate().unwrap();
        assert!(rep.counter(crate::Counter::HealthCommRetries) > 0);
        assert_eq!(pm.to_json(), PARENT);
    }

    #[test]
    fn deeply_nested_input_is_an_error() {
        // Both loaders `reproduce` exposes refuse it instead of
        // overflowing the stack.
        let deep = "[".repeat(100_000);
        assert!(Postmortem::from_json(&deep).is_err());
        assert!(crate::TelemetryReport::from_json(&deep).is_err());
    }

    #[test]
    fn timeline_shows_the_causal_chain_in_order() {
        let pm = sample();
        let text = pm.timeline();
        let hb = text.find("heartbeat timeout watching rank 3").unwrap();
        let death = text.find("rank 3 declared dead").unwrap();
        let retile = text.find("re-tiled, 2 units migrated").unwrap();
        assert!(hb < death && death < retile, "chain out of order:\n{text}");
        assert!(text.contains("9 lost to ring overflow"));
        assert!(text.contains("rank   1: 1 events"));
    }

    #[test]
    fn watermarks_track_per_rank_progress() {
        let marks = watermarks_of(&sample_events());
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].rank, 0);
        assert_eq!(marks[0].iteration, 1);
        assert_eq!(marks[1].rank, 1);
        assert_eq!(marks[1].iteration, 2);
        assert_eq!(marks[1].last_event_us, 5.0);
    }

    #[test]
    fn error_variants_classify_the_corruption() {
        // Garbage → NotJson.
        assert!(matches!(
            Postmortem::from_json("garbage!"),
            Err(PostmortemError::NotJson(_))
        ));
        // Truncated mid-document → NotJson.
        let good = sample().to_json();
        assert!(matches!(
            Postmortem::from_json(&good[..good.len() / 2]),
            Err(PostmortemError::NotJson(_))
        ));
        // Valid JSON without the version marker → NotAPostmortem.
        assert!(matches!(
            Postmortem::from_json(r#"{"reason": "x"}"#),
            Err(PostmortemError::NotAPostmortem)
        ));
        // Future version → UnsupportedVersion naming both versions.
        match Postmortem::from_json(r#"{"version": 99}"#) {
            Err(PostmortemError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, POSTMORTEM_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // Version-matched but structurally broken → Invalid.
        let broken = r#"{"version": 1, "reason": "x", "detail": "y", "dropped": 0,
            "events": [{"ts_us": 0}], "watermarks": []}"#;
        assert!(matches!(
            Postmortem::from_json(broken),
            Err(PostmortemError::Invalid(_))
        ));
        // Missing file → Io with a source.
        let err = Postmortem::load(Path::new("/nonexistent/qt.postmortem")).unwrap_err();
        assert!(matches!(err, PostmortemError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(format!("{err}").contains("I/O"));
    }

    #[test]
    fn capture_drains_the_journal() {
        let _g = recorder::test_lock();
        recorder::clear();
        recorder::switch(recorder::JOURNAL, true);
        recorder::set_rank(2);
        journal::emit(EventKind::CheckpointWrite);
        recorder::switch(recorder::JOURNAL, false);
        recorder::set_rank(-1);
        let pm = Postmortem::capture("rank_loss", "test", None);
        assert!(pm
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CheckpointWrite) && e.rank == 2));
        assert_eq!(journal::event_count(), 0);
    }
}
