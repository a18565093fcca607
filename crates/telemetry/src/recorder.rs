//! The one recorder: spans, the journal, the metrics series and the trace
//! record into it, and [`crate::registry`], [`crate::journal`],
//! [`crate::series`] and [`crate::trace`] fold over it. As in
//! [`crate::counters`], each thread owns one cell in a global list. A cell
//! holds the thread's exact phase totals and one bounded `Ring` lane per
//! record kind, so the trace cannot evict the journal a postmortem needs.
//! One switch with a kind mask, one epoch and one context (rank, unit,
//! SCF iteration) serve every kind.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::{journal::Event, registry::PhaseStat, series::Sample, trace};

/// Kind bit of the switch: phase spans.
pub const SPANS: u8 = 1;
/// Kind bit: journal events.
pub const JOURNAL: u8 = 2;
/// Kind bit: metrics-series samples.
pub const SERIES: u8 = 4;
/// Kind bit: trace slices and flow pairs.
pub const TRACE: u8 = 8;

/// Default records per lane, per thread and kind (a full journal lane is
/// ~256 KiB; a traced `reproduce profile` fills ~500 slices per thread).
pub const DEFAULT_CAPACITY: usize = 4096;

/// A bounded lane. It grows with use up to its capacity; then each record
/// overwrites the oldest and counts one drop, so the newest survive.
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    /// Index of the oldest record once the lane has wrapped.
    head: usize,
    cap: usize,
    /// Records overwritten since the lane was last cleared.
    pub(crate) dropped: u64,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Ring<T> {
        Ring {
            buf: Vec::new(),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    /// Append `v`; returns whether an older record was overwritten.
    pub(crate) fn push(&mut self, v: T) -> bool {
        if self.buf.len() < self.cap {
            self.buf.push(v);
            return false;
        }
        self.buf[self.head] = v;
        self.head = (self.head + 1) % self.cap;
        self.dropped += 1;
        true
    }

    /// The surviving records, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    pub(crate) fn clear(&mut self) {
        *self = Ring::new(self.cap);
    }
}

/// What one thread recorded.
pub(crate) struct Lanes {
    pub(crate) phases: BTreeMap<&'static str, PhaseStat>,
    pub(crate) journal: Ring<Event>,
    pub(crate) series: Ring<Sample>,
    pub(crate) slices: Ring<trace::Slice>,
    pub(crate) flows: Ring<trace::Flow>,
}

static SWITCH: AtomicU8 = AtomicU8::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// The SCF iteration, or −1. Global: the loop is sequential and its
/// worker threads inherit it.
static ITERATION: AtomicI64 = AtomicI64::new(-1);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static CELLS: Mutex<Vec<Arc<Mutex<Lanes>>>> = Mutex::new(Vec::new());

thread_local! {
    static CELL: Arc<Mutex<Lanes>> = {
        let mut cells = lock(&CELLS);
        let cap = CAPACITY.load(Relaxed);
        let cell = Arc::new(Mutex::new(Lanes {
            phases: BTreeMap::new(),
            journal: Ring::new(cap),
            series: Ring::new(cap),
            slices: Ring::new(cap),
            flows: Ring::new(cap),
        }));
        cells.push(cell.clone());
        cell
    };
    /// The thread's (rank, unit) attribution; −1 = none.
    static PLACE: std::cell::Cell<(i64, i64)> = const { std::cell::Cell::new((-1, -1)) };
}

/// Turn the kinds in the mask `kinds` on or off; the others keep their
/// state. Turning a kind on pins the epoch if it is not yet.
pub fn switch(kinds: u8, on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
        SWITCH.fetch_or(kinds, Relaxed);
    } else {
        SWITCH.fetch_and(!kinds, Relaxed);
    }
}

/// Is any kind in the mask `kinds` on? One relaxed load — the entire
/// cost of a record site while its kind is off.
#[inline]
pub fn is_on(kinds: u8) -> bool {
    SWITCH.load(Relaxed) & kinds != 0
}

/// Microseconds from the epoch to `at` (0 before it).
pub(crate) fn us_at(at: Instant) -> f64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(epoch).as_nanos() as f64 / 1e3
}

/// Set the calling thread's world-slot attribution (−1 clears it).
pub fn set_rank(rank: i64) {
    PLACE.with(|p| p.set((rank, p.get().1)));
}

/// Set the calling thread's work-unit attribution (−1 clears it).
pub fn set_unit(unit: i64) {
    PLACE.with(|p| p.set((p.get().0, unit)));
}

/// The calling thread's `(rank, unit, iteration)` attribution.
pub(crate) fn context() -> (i64, i64, i64) {
    let (rank, unit) = PLACE.with(|p| p.get());
    (rank, unit, ITERATION.load(Relaxed))
}

/// Attributes records to one SCF iteration until dropped, on any exit.
#[must_use = "the iteration attribution ends when the guard drops"]
pub struct Iteration(());

/// Attribute every record to SCF iteration `iter` until the guard drops.
pub fn enter_iteration(iter: usize) -> Iteration {
    ITERATION.store(iter as i64, Relaxed);
    Iteration(())
}

impl Drop for Iteration {
    fn drop(&mut self) {
        ITERATION.store(-1, Relaxed);
    }
}

/// Run `f` on the calling thread's lanes (skipped during thread teardown).
pub(crate) fn with_lanes(f: impl FnOnce(&mut Lanes)) {
    let _ = CELL.try_with(|c| f(&mut lock(c)));
}

/// Visit every thread's lanes, alive or exited, with its trace track id.
pub(crate) fn for_each(mut f: impl FnMut(u64, &mut Lanes)) {
    for (i, c) in lock(&CELLS).iter().enumerate() {
        f(i as u64 + 1, &mut lock(c));
    }
}

/// Every update of a lane leaves it valid at each step, so a lock poisoned
/// by a panicking thread stays usable — and a span closing in `Drop` must
/// not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Set every lane's capacity, now and later, clearing the lanes but not
/// the phase totals. A test hook for overflow; never on a warm path.
pub fn set_capacity(cap: usize) {
    let cap = cap.max(1);
    CAPACITY.store(cap, Relaxed);
    for_each(|_, l| {
        (l.journal, l.series) = (Ring::new(cap), Ring::new(cap));
        (l.slices, l.flows) = (Ring::new(cap), Ring::new(cap));
    });
}

/// Clear every lane, phase total and the iteration; the switch stays.
pub fn clear() {
    set_capacity(CAPACITY.load(Relaxed));
    for_each(|_, l| l.phases.clear());
    ITERATION.store(-1, Relaxed);
}

/// The one lock for every test that touches the recorder: its lanes,
/// switch and capacity are process-global.
#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_and_counts_drops() {
        let mut r = Ring::new(3);
        let lost: Vec<bool> = (0..5).map(|i| r.push(i)).collect();
        assert_eq!(lost, [false, false, false, true, true]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(r.dropped, 2);
        r.clear();
        assert_eq!((r.iter().count(), r.dropped), (0, 0));
    }
}
