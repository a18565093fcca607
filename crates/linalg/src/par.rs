//! The one intra-rank parallelism substrate (DESIGN.md "Parallelism").
//!
//! `available_parallelism() − 1` persistent helper threads park on a
//! condvar and share **one job slot** with every caller in the process.
//! A job is "call `task(i)` once for every `i < n`": the caller posts it,
//! takes part, and returns once every helper it invited has come and gone.
//! The helpers never spin (CPU time per unit of work is a gated metric) and
//! never exit, so their per-thread [`crate::workspace`] arenas and GEMM pack
//! pools stay warm between calls.
//!
//! Each participant starts with the index equal to its own number and then
//! claims the rest from a shared counter. The self-scheduled part keeps a
//! slow index from delaying anything but itself; the reserved first index
//! means every invited thread meets every phase of every iteration, so how
//! warm a thread's arena is does not depend on who won a race.
//!
//! A call runs **inline on the calling thread**, in index order, when it is
//! made inside a task or inside [`sequential`], when the core budget leaves
//! no helper (see [`lane`]), or while another caller's job occupies the
//! slot. So there is never a pool per caller and never nested fan-out:
//! whichever level of the program reaches the slot first owns the cores,
//! and everything below it is serial.
//!
//! Nothing is reduced here. [`map`] returns its results slot-addressed in
//! index order and [`for_each_chunk_mut`] hands out disjoint chunks, so
//! which thread ran which index is unobservable in the output bits.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

type Task<'a> = dyn Fn(usize) + Sync + 'a;
type Payload = Box<dyn Any + Send>;

/// One posted call: `task(i)` for every `i < n`, each exactly once.
struct Job<'a> {
    task: &'a Task<'a>,
    n: usize,
    /// Next unreserved index; starts at the number of participants.
    next: AtomicUsize,
}

impl Job<'_> {
    /// Participant `who`'s part: its reserved index, then whatever it can
    /// claim. `who` is below the participant count, which is at most `n`.
    fn share(&self, who: usize) {
        (self.task)(who);
        loop {
            let i = self.next.fetch_add(1, Relaxed);
            if i >= self.n {
                break;
            }
            (self.task)(i);
        }
    }
}

/// The single job slot. Every field changes only under [`SLOT`]'s lock.
struct Slot {
    /// The posted job, lifetime-erased; `None` while the slot is free.
    job: Option<&'static Job<'static>>,
    /// Invited helpers that have not joined yet. A helper's ticket number
    /// is its participant number (the poster is participant 0).
    tickets: usize,
    /// Helpers currently inside the job.
    active: usize,
    /// The first panic a helper caught in the job, re-raised by the poster.
    panic: Option<Payload>,
}

static SLOT: Mutex<Slot> = Mutex::new(Slot {
    job: None,
    tickets: 0,
    active: 0,
    panic: None,
});
/// Parked helpers wait here for a job with tickets left.
static WAKE: Condvar = Condvar::new();
/// The poster waits here for its invited helpers to come and go.
static DRAINED: Condvar = Condvar::new();
/// Top-level compute threads alive right now (see [`lane`]). A budget
/// hint that publishes no data, hence `Relaxed`.
static LANES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Non-zero inside a task or [`sequential`]: calls run inline.
    static INLINE: Cell<usize> = const { Cell::new(0) };
}

/// The slot lock is never held across task code, and every update under it
/// is a plain field store, so a poisoned guard still holds valid data.
fn slot() -> MutexGuard<'static, Slot> {
    SLOT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(cores, helpers spawned)`; the first call spawns the helpers. They are
/// detached on purpose: the pool lives as long as the process, and a panic
/// inside a task is caught and re-raised on the poster, so a dropped
/// `JoinHandle` hides nothing.
fn pool() -> (usize, usize) {
    static POOL: OnceLock<(usize, usize)> = OnceLock::new();
    *POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let spawned = (1..cores)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("qt-par-{i}"))
                    .spawn(helper)
                    .is_ok()
            })
            .count();
        (cores, spawned)
    })
}

fn helper() {
    // A helper only ever runs tasks, so everything it calls is nested.
    INLINE.with(|c| c.set(1));
    let mut s = slot();
    loop {
        match s.job {
            Some(job) if s.tickets > 0 => {
                let who = s.tickets;
                s.tickets -= 1;
                s.active += 1;
                drop(s);
                let result = panic::catch_unwind(AssertUnwindSafe(|| job.share(who)));
                s = slot();
                if let Err(payload) = result {
                    s.panic.get_or_insert(payload);
                }
                s.active -= 1;
                if s.active == 0 {
                    DRAINED.notify_one();
                }
            }
            _ => s = WAKE.wait(s).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Helpers a call made now, from this thread, may use.
fn usable_helpers() -> usize {
    if INLINE.with(Cell::get) > 0 {
        return 0;
    }
    let (cores, spawned) = pool();
    spawned.min(cores.saturating_sub(LANES.load(Relaxed).max(1)))
}

/// Marks the calling thread as running inline until dropped.
struct Inline;

impl Inline {
    fn enter() -> Inline {
        INLINE.with(|c| c.set(c.get() + 1));
        Inline
    }
}

impl Drop for Inline {
    fn drop(&mut self) {
        INLINE.with(|c| c.set(c.get() - 1));
    }
}

/// A posted job. Closing it (explicitly, or by unwinding out of the
/// poster's own share) waits for every invited helper to have joined and
/// left, then frees the slot.
struct Posted {
    open: bool,
}

impl Posted {
    /// Put `job` in the slot with `helpers` tickets, unless it is taken.
    fn post(job: &Job<'_>, helpers: usize) -> Option<Posted> {
        let mut s = slot();
        if s.job.is_some() {
            return None;
        }
        // SAFETY: only the lifetimes are erased. A helper dereferences the
        // job strictly between `active += 1` and `active -= 1`, both under
        // the slot lock, and only after taking a ticket. `close` — which
        // `run` reaches before it returns or unwinds, `job` still alive —
        // does not come back before it has, under that same lock, seen
        // `tickets == 0` and `active == 0` and cleared the slot, so no
        // helper can touch `job` or its `task` once the borrows erased
        // here have ended.
        s.job = Some(unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) });
        s.tickets = helpers;
        Some(Posted { open: true })
    }

    fn close(&mut self) -> Option<Payload> {
        if !std::mem::replace(&mut self.open, false) {
            return None;
        }
        let mut s = slot();
        while s.tickets > 0 || s.active > 0 {
            s = DRAINED.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.job = None;
        s.panic.take()
    }
}

impl Drop for Posted {
    fn drop(&mut self) {
        // Unwinding: the poster's own panic is the one that propagates.
        drop(self.close());
    }
}

/// Call `task(i)` exactly once for every `i < n`, on the calling thread and
/// on as many helpers as the budget and `n` allow.
fn run(n: usize, task: &Task<'_>) {
    let helpers = n.saturating_sub(1).min(usable_helpers());
    let job = Job {
        task,
        n,
        next: AtomicUsize::new(helpers + 1),
    };
    // Declared after `job`, so on unwinding it closes before `job` drops.
    let posted = if helpers > 0 {
        Posted::post(&job, helpers)
    } else {
        None
    };
    let Some(mut posted) = posted else {
        return (0..n).for_each(task);
    };
    if helpers == 1 {
        WAKE.notify_one();
    } else {
        WAKE.notify_all();
    }
    {
        let _nested = Inline::enter();
        job.share(0);
    }
    if let Some(payload) = posted.close() {
        panic::resume_unwind(payload);
    }
}

/// A raw pointer the chunk tasks of one call share.
struct SendPtr<T>(*mut T);

// SAFETY: the pointer is only ever offset to chunks no two tasks share (see
// `for_each_chunk_mut`), so sharing it hands each thread `&mut` access to
// its own `T`s — sound exactly when `T` may move to another thread.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Call `f(idx, chunk)` once for each consecutive `len`-element chunk of
/// `slice` (the last one may be shorter), possibly at the same time on
/// several threads.
pub fn for_each_chunk_mut<T: Send>(
    slice: &mut [T],
    len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(len > 0, "chunk length must be positive");
    let total = slice.len();
    let base = SendPtr(slice.as_mut_ptr());
    run(total.div_ceil(len), &|idx| {
        // Capture the wrapper, not its raw-pointer field.
        let base = &base;
        let start = idx * len;
        // SAFETY: `run` hands each `idx < ⌈total/len⌉` to exactly one
        // thread, and chunk `idx` is `[idx·len, min((idx+1)·len, total))`:
        // in bounds of `slice` and disjoint from every other chunk. `slice`
        // stays mutably borrowed until `run` returns, which is after every
        // thread has left this closure.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.0.add(start), len.min(total - start)) };
        f(idx, chunk);
    });
}

/// `[f(0), f(1), …, f(n − 1)]`, the calls possibly running at the same time
/// on several threads. Results land in index order whatever the schedule.
pub fn map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_chunk_mut(&mut slots, 1, |i, slot| slot[0] = Some(f(i)));
    slots
        .into_iter()
        .map(|s| s.expect("every index below n was claimed and ran"))
        .collect()
}

/// Threads a call made now, from this thread, would run on: 1 inside a
/// task or [`sequential`], else 1 + the helpers the core budget allows.
pub fn width() -> usize {
    1 + usable_helpers()
}

/// Run `f` with every `par` call made from this thread inline.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    let _inline = Inline::enter();
    f()
}

/// Held by a top-level compute thread (a `qt_dist` rank thread, a
/// `qt-serve` worker running a request) for as long as it computes: each
/// lane beyond the first takes one helper out of the budget, so with as
/// many lanes as cores every call is inline.
#[must_use = "the lane is released when the guard drops"]
pub struct Lane(());

/// Take a [`Lane`] for the calling thread.
pub fn lane() -> Lane {
    LANES.fetch_add(1, Relaxed);
    Lane(())
}

impl Drop for Lane {
    fn drop(&mut self) {
        LANES.fetch_sub(1, Relaxed);
    }
}
