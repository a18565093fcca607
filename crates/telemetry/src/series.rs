//! Metrics time-series: periodic counter snapshots in a bounded lane.
//!
//! The counters answer "how much in total"; the series answers "when".
//! [`sample_now`] snapshots every counter of [`Counter::SERIES`] (the
//! counter table's sampled rows) into one [`Sample`]; the SCF loop
//! takes one per iteration. Samples live in the sampling thread's series
//! lane of the [`crate::recorder`] (newest kept, drops accounted) and are
//! exported two ways: the report's `series` block and a Prometheus-style
//! text rendering (`reproduce profile --metrics-out`) that gives a future
//! scrape endpoint its surface for free.

use crate::counters::{Counter, Snapshot, N_SERIES};
use crate::json::Json;
use crate::recorder;

/// One snapshot of every tracked counter total.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Microseconds since the recorder's epoch.
    pub ts_us: f64,
    /// SCF iteration the sample was taken in, or −1 outside the loop.
    pub iteration: i64,
    /// Counter totals, indexed like [`Counter::SERIES`].
    pub values: [u64; N_SERIES],
}

/// Snapshot every tracked counter total right now into the calling
/// thread's series lane. No-op while the series is off.
pub fn sample_now() {
    if !recorder::is_on(recorder::SERIES) {
        return;
    }
    let ts_us = recorder::us_at(std::time::Instant::now());
    let snap = Snapshot::take();
    let sample = Sample {
        ts_us,
        iteration: recorder::context().2,
        values: Counter::SERIES.map(|c| snap[c]),
    };
    recorder::with_lanes(|l| {
        l.series.push(sample);
    });
}

/// Samples of every thread in chronological order, plus the count of
/// samples lost to lane overflow.
pub fn snapshot() -> (Vec<Sample>, u64) {
    let (mut out, mut dropped) = (Vec::new(), 0);
    recorder::for_each(|_, l| {
        out.extend(l.series.iter().cloned());
        dropped += l.series.dropped;
    });
    out.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    (out, dropped)
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
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("sample lacks {k}"))
        };
        let (ts_us, iteration) = (num("ts_us")?, num("iteration")? as i64);
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
    use crate::recorder::{test_lock as lock, SERIES};

    #[test]
    fn sampling_is_inert_while_disabled() {
        let _g = lock();
        recorder::switch(SERIES, false);
        recorder::clear();
        sample_now();
        assert_eq!(snapshot().0.len(), 0);
    }

    #[test]
    fn samples_accumulate_and_ring_drops_oldest() {
        let _g = lock();
        recorder::switch(SERIES, true);
        recorder::set_capacity(3);
        let iteration = recorder::enter_iteration(5);
        for _ in 0..5 {
            sample_now();
        }
        drop(iteration);
        let (samples, dropped) = snapshot();
        assert_eq!(samples.len(), 3);
        assert_eq!(dropped, 2);
        assert!(samples.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(samples.iter().all(|s| s.iteration == 5));
        recorder::switch(SERIES, false);
        recorder::set_capacity(recorder::DEFAULT_CAPACITY);
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
        let _g = lock();
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
