//! Metrics time-series: periodic counter snapshots in a bounded ring.
//!
//! The counters answer "how much in total"; the series answers "when".
//! [`sample_now`] snapshots every counter of [`Counter::SERIES`] (the
//! counter table's sampled rows) into one [`Sample`]; the SCF loop
//! takes one per iteration. Samples live in a global bounded ring (newest
//! kept, drops accounted) and are exported two ways: the report's
//! `series` block and a Prometheus-style text rendering (`reproduce
//! profile --metrics-out`) that gives a future scrape endpoint its surface
//! for free.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::counters::{Counter, Snapshot, N_SERIES};
use crate::json::Json;

/// Default capacity of the sample ring.
pub const DEFAULT_SERIES_CAPACITY: usize = 1024;

/// One snapshot of every tracked counter total.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Microseconds since the series epoch.
    pub ts_us: f64,
    /// SCF iteration the sample was taken in, or −1 outside the loop.
    pub iteration: i64,
    /// Counter totals, indexed like [`Counter::SERIES`].
    pub values: [u64; N_SERIES],
}

struct SeriesRing {
    buf: Vec<Sample>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static ITERATION: AtomicI64 = AtomicI64::new(-1);
static RING: Mutex<Option<SeriesRing>> = Mutex::new(None);

/// Turn series sampling on or off. Turning it on pins the epoch and
/// preallocates the ring.
pub fn set_series_enabled(on: bool) {
    if on {
        let _ = EPOCH.set(Instant::now());
        let mut g = RING.lock().unwrap();
        if g.is_none() {
            *g = Some(SeriesRing {
                buf: Vec::with_capacity(DEFAULT_SERIES_CAPACITY),
                head: 0,
                dropped: 0,
                capacity: DEFAULT_SERIES_CAPACITY,
            });
        }
    }
    ENABLED.store(on, Relaxed);
}

/// Is series sampling enabled? One relaxed load when disabled.
#[inline]
pub fn series_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Resize the sample ring (clearing it). Test hook; not a warm path.
pub fn set_series_capacity(cap: usize) {
    let cap = cap.max(1);
    let mut g = RING.lock().unwrap();
    *g = Some(SeriesRing {
        buf: Vec::with_capacity(cap),
        head: 0,
        dropped: 0,
        capacity: cap,
    });
}

/// Set the iteration tag applied to subsequent samples (−1 clears).
pub fn set_series_iteration(iteration: i64) {
    ITERATION.store(iteration, Relaxed);
}

/// Snapshot every tracked counter total right now. No-op while sampling
/// is disabled.
pub fn sample_now() {
    if !series_enabled() {
        return;
    }
    let ts_us = EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as f64 / 1e3;
    let snap = Snapshot::take();
    let sample = Sample {
        ts_us,
        iteration: ITERATION.load(Relaxed),
        values: Counter::SERIES.map(|c| snap[c]),
    };
    let mut g = RING.lock().unwrap();
    let Some(ring) = g.as_mut() else { return };
    if ring.buf.len() < ring.capacity {
        ring.buf.push(sample);
    } else {
        ring.buf[ring.head] = sample;
        ring.head = (ring.head + 1) % ring.capacity;
        ring.dropped += 1;
    }
}

/// Samples in chronological order, plus the count of samples lost to
/// ring overflow.
pub fn snapshot() -> (Vec<Sample>, u64) {
    let g = RING.lock().unwrap();
    let Some(ring) = g.as_ref() else {
        return (Vec::new(), 0);
    };
    let mut out = Vec::with_capacity(ring.buf.len());
    out.extend_from_slice(&ring.buf[ring.head..]);
    out.extend_from_slice(&ring.buf[..ring.head]);
    (out, ring.dropped)
}

/// Clear the ring and the iteration tag. Part of
/// `qt_telemetry::reset_all`.
pub fn reset_series() {
    let mut g = RING.lock().unwrap();
    if let Some(ring) = g.as_mut() {
        ring.buf.clear();
        ring.head = 0;
        ring.dropped = 0;
    }
    ITERATION.store(-1, Relaxed);
}

impl Sample {
    /// Encode with metric values keyed by their [`Counter::name`]s.
    pub fn to_json(&self) -> Json {
        let values = Counter::SERIES
            .iter()
            .zip(self.values.iter())
            .map(|(c, &v)| (c.name().to_string(), Json::Num(v as f64)))
            .collect();
        Json::Obj(vec![
            ("ts_us".to_string(), Json::Num(self.ts_us)),
            ("iteration".to_string(), Json::Num(self.iteration as f64)),
            ("values".to_string(), Json::Obj(values)),
        ])
    }

    /// Decode a sample encoded by [`Sample::to_json`]. Unknown metric
    /// keys are an error (they indicate a typo-forked name).
    pub fn from_json(v: &Json) -> Result<Sample, String> {
        let ts_us = v
            .get("ts_us")
            .and_then(Json::as_f64)
            .ok_or("sample lacks ts_us")?;
        let iteration = v
            .get("iteration")
            .and_then(Json::as_f64)
            .ok_or("sample lacks iteration")? as i64;
        let obj = v.get("values").ok_or("sample lacks values")?;
        let Json::Obj(fields) = obj else {
            return Err("sample values is not an object".into());
        };
        let mut values = [0u64; N_SERIES];
        for (k, val) in fields {
            let idx = Counter::SERIES
                .iter()
                .position(|c| c.name() == k)
                .ok_or(format!("sample has unregistered metric {k:?}"))?;
            values[idx] = val.as_u64().ok_or(format!("bad value for metric {k:?}"))?;
        }
        Ok(Sample {
            ts_us,
            iteration,
            values,
        })
    }
}

/// Render the latest counter totals as Prometheus text exposition
/// (counter metrics, `qt_` prefix, `.` mapped to `_`). Always reflects
/// the live counters, so it is a valid scrape body even before any
/// sample was taken.
pub fn render_prometheus() -> String {
    let snap = Snapshot::take();
    let mut out = String::new();
    let mut line = |name: &str, kind: &str, v: u64| {
        let prom = format!("qt_{}", name.replace('.', "_"));
        out.push_str(&format!("# TYPE {prom} {kind}\n{prom} {v}\n"));
    };
    for c in Counter::SERIES.into_iter().chain([Counter::JournalDropped]) {
        line(c.name(), "counter", snap[c]);
    }
    let events = crate::journal::event_count() as u64;
    line("journal.events", "gauge", events);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn sampling_is_inert_while_disabled() {
        let _g = lock();
        set_series_enabled(false);
        reset_series();
        sample_now();
        assert_eq!(snapshot().0.len(), 0);
    }

    #[test]
    fn samples_accumulate_and_ring_drops_oldest() {
        let _g = lock();
        set_series_enabled(true);
        set_series_capacity(3);
        set_series_iteration(5);
        for _ in 0..5 {
            sample_now();
        }
        let (samples, dropped) = snapshot();
        assert_eq!(samples.len(), 3);
        assert_eq!(dropped, 2);
        assert!(samples.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(samples.iter().all(|s| s.iteration == 5));
        set_series_enabled(false);
        set_series_capacity(DEFAULT_SERIES_CAPACITY);
        set_series_iteration(-1);
    }

    #[test]
    fn samples_roundtrip_through_json() {
        let mut values = [0u64; N_SERIES];
        for (i, v) in values.iter_mut().enumerate() {
            *v = (i as u64 + 1) * 10;
        }
        let s = Sample {
            ts_us: 1234.5,
            iteration: 2,
            values,
        };
        let back = Sample::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // A forked metric name must be rejected, not silently dropped.
        let forged = Json::Obj(vec![
            ("ts_us".to_string(), Json::Num(0.0)),
            ("iteration".to_string(), Json::Num(0.0)),
            (
                "values".to_string(),
                Json::Obj(vec![("health.quarantine".to_string(), Json::Num(1.0))]),
            ),
        ]);
        assert!(Sample::from_json(&forged).is_err());
    }

    #[test]
    fn prometheus_rendering_covers_every_metric() {
        let text = render_prometheus();
        for c in Counter::SERIES {
            let prom = format!("qt_{}", c.name().replace('.', "_"));
            assert!(text.contains(&prom), "missing {prom}");
        }
        assert!(text.contains("qt_journal_dropped"));
        for line in text.lines() {
            assert!(line.starts_with("# TYPE") || line.starts_with("qt_"));
        }
    }
}
