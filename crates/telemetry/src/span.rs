//! Phase spans: RAII guards that attribute wall-time, flops and bytes to
//! a phase path on drop.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

use crate::counters::{self, Counter};
use crate::{registry, trace};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn telemetry collection on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Is telemetry collection enabled? One relaxed load — this is the entire
/// disabled-mode cost of every span and hot section.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// The counters a span attributes to its phase, in `registry::record`
/// argument order.
const ATTRIBUTED: [Counter; 4] = [
    Counter::Flops,
    Counter::Bytes,
    Counter::AllocBytes,
    Counter::AllocCount,
];

fn read(global: bool) -> [u64; 4] {
    ATTRIBUTED.map(|c| {
        if global {
            counters::total(c)
        } else {
            counters::local(c)
        }
    })
}

struct Active {
    path: &'static str,
    t0: Instant,
    start: [u64; 4],
    global: bool,
}

/// An open phase span. Dropping it records the elapsed time and the
/// counter deltas since entry into the [`registry`] (and, when tracing is
/// on, appends a trace event).
pub struct Span {
    active: Option<Active>,
}

impl Span {
    /// Open a span with *thread-local* counter attribution: the flop/byte
    /// delta of the calling thread only. Use inside parallel worker
    /// bodies (one RGF solve, one boundary contour), where work from
    /// sibling workers must not leak into this span.
    #[inline]
    pub fn enter(path: &'static str) -> Span {
        if !enabled() {
            return Span { active: None };
        }
        Span {
            active: Some(Active {
                path,
                t0: Instant::now(),
                start: read(false),
                global: false,
            }),
        }
    }

    /// Open a span with *global* counter attribution: the delta of the
    /// summed counters across all threads. Correct for sequential
    /// orchestration phases (the SCF loop body, one SSE pass) that fan
    /// out over threads internally; two `enter_global` spans must not run
    /// concurrently on different threads.
    pub fn enter_global(path: &'static str) -> Span {
        if !enabled() {
            return Span { active: None };
        }
        Span {
            active: Some(Active {
                path,
                t0: Instant::now(),
                start: read(true),
                global: true,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let wall_ns = a.t0.elapsed().as_nanos() as u64;
        let now = read(a.global);
        let delta = |i: usize| now[i].saturating_sub(a.start[i]);
        registry::record(a.path, wall_ns, delta(0), delta(1), delta(2), delta(3));
        trace::record_event(a.path, a.t0, wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the enable flag is global, so the
    // disabled/enabled assertions must run in a fixed order.
    #[test]
    fn span_enable_disable_cycle() {
        set_enabled(false);
        {
            let _s = Span::enter("test/span/disabled");
            counters::add(Counter::Flops, 1);
        }
        assert!(registry::phase("test/span/disabled").is_none());

        set_enabled(true);
        {
            let _s = Span::enter("test/span/local");
            counters::add(Counter::Flops, 123);
        }
        {
            let _g = Span::enter_global("test/span/global");
            counters::add(Counter::Flops, 45);
        }
        set_enabled(false);

        let s = registry::phase("test/span/local").unwrap();
        assert_eq!(s.flops, 123);
        assert_eq!(s.calls, 1);
        let g = registry::phase("test/span/global").unwrap();
        // Global attribution may absorb concurrent test threads' flops,
        // but never less than this span's own work.
        assert!(g.flops >= 45);
    }
}
