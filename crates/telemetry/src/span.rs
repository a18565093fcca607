//! Phase spans: RAII guards that attribute wall-time, flops and bytes to
//! a phase path on drop.

use std::time::Instant;

use crate::counters::{self, Counter};
use crate::{recorder, registry, trace};

/// Turn span collection on or off globally: the recorder's
/// [`recorder::SPANS`] bit.
pub fn set_enabled(on: bool) {
    recorder::switch(recorder::SPANS, on);
}

/// Is span collection enabled? One relaxed load — this is the entire
/// disabled-mode cost of every span and hot section.
#[inline]
pub fn enabled() -> bool {
    recorder::is_on(recorder::SPANS)
}

/// The counters a span attributes to its phase, in `registry::record`
/// argument order.
const ATTRIBUTED: [Counter; 4] = [
    Counter::Flops,
    Counter::Bytes,
    Counter::AllocBytes,
    Counter::AllocCount,
];

struct Active {
    path: &'static str,
    t0: Instant,
    start: [u64; 4],
    /// `counters::local` or `counters::total`: how the deltas are read.
    read: fn(Counter) -> u64,
}

/// An open phase span. Dropping it records the elapsed time and the
/// counter deltas since entry into the calling thread's phase totals (and,
/// when tracing is on, appends a trace slice).
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
        Span::open(path, counters::local)
    }

    /// Open a span with *global* counter attribution: the delta of the
    /// summed counters across all threads. Correct for sequential
    /// orchestration phases (the SCF loop body, one SSE pass) that fan
    /// out over threads internally; two `enter_global` spans must not run
    /// concurrently on different threads.
    #[inline]
    pub fn enter_global(path: &'static str) -> Span {
        Span::open(path, counters::total)
    }

    #[inline]
    fn open(path: &'static str, read: fn(Counter) -> u64) -> Span {
        let active = enabled().then(|| Active {
            path,
            t0: Instant::now(),
            start: ATTRIBUTED.map(read),
            read,
        });
        Span { active }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let wall_ns = a.t0.elapsed().as_nanos() as u64;
        let now = ATTRIBUTED.map(a.read);
        let delta = |i: usize| now[i].saturating_sub(a.start[i]);
        registry::record(a.path, wall_ns, delta(0), delta(1), delta(2), delta(3));
        trace::record_slice(a.path, None, a.t0, wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the enable flag is global, so the
    // disabled/enabled assertions must run in a fixed order.
    #[test]
    fn span_enable_disable_cycle() {
        let _g = recorder::test_lock();
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
