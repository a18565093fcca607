//! `qt_linalg::par` — the contract every fan-out site relies on: results in
//! index order, disjoint chunks, no nested fan-out, panics re-raised on the
//! caller, one core budget, one job slot.
//!
//! The slot and the lane count are process-wide, so the tests take turns.
//! Where a test needs a helper thread to really take part it says so with
//! [`Rendezvous`]: a task blocks until a second thread has shown up, instead
//! of hoping the schedule works out. On a one-core host `par` has no
//! helpers, every call is inline, and those waits are skipped.

use qt_linalg::par;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The threads that ran a task of one call, and a way to wait for company.
#[derive(Default)]
struct Rendezvous {
    seen: Mutex<HashSet<ThreadId>>,
    arrived: Condvar,
}

impl Rendezvous {
    /// Record the calling thread.
    fn check_in(&self) {
        self.seen.lock().unwrap().insert(thread::current().id());
        self.arrived.notify_all();
    }

    /// Block until a second thread has checked in. The bound only turns a
    /// helper that never joins into a failure instead of a hang.
    fn wait_for_company(&self) {
        let seen = self.seen.lock().unwrap();
        let (seen, timeout) = self
            .arrived
            .wait_timeout_while(seen, Duration::from_secs(30), |s| s.len() < 2)
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "no helper joined a posted job ({} thread seen)",
            seen.len()
        );
    }

    fn threads(&self) -> usize {
        self.seen.lock().unwrap().len()
    }
}

#[test]
fn map_returns_index_order_under_skewed_task_costs() {
    let _turn = turn();
    let fanned = par::width() > 1;
    let rv = Rendezvous::default();
    // Index 0 is by far the slowest task — it does not finish before some
    // other thread has run a later index — so completion order is nothing
    // like index order.
    let out = par::map(64, |i| {
        rv.check_in();
        if i == 0 && fanned {
            rv.wait_for_company();
        }
        (0..(64 - i) * 1000).fold(i as u64, |acc, x| {
            acc.wrapping_mul(31).wrapping_add(x as u64)
        })
    });
    let want: Vec<u64> = (0..64usize)
        .map(|i| {
            (0..(64 - i) * 1000).fold(i as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        })
        .collect();
    assert_eq!(out, want);
    assert_eq!(rv.threads() > 1, fanned);
    assert!(par::map(0, |i| i).is_empty());
}

#[test]
fn for_each_chunk_mut_covers_ragged_slices_disjointly() {
    let _turn = turn();
    for (total, len) in [
        (103usize, 10usize),
        (64, 64),
        (5, 9),
        (1, 1),
        (0, 4),
        (97, 1),
    ] {
        let mut data = vec![0usize; total];
        let calls = Mutex::new(Vec::new());
        par::for_each_chunk_mut(&mut data, len, |idx, chunk| {
            calls.lock().unwrap().push((idx, chunk.len()));
            for x in chunk {
                // A second visit of an element would show as a wrong sum.
                *x += idx + 1;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i / len + 1, "element {i} of {total} in chunks of {len}");
        }
        let mut calls = calls.into_inner().unwrap();
        calls.sort_unstable();
        let want: Vec<(usize, usize)> = (0..total.div_ceil(len))
            .map(|c| (c, len.min(total - c * len)))
            .collect();
        assert_eq!(calls, want, "{total} in chunks of {len}");
    }
}

#[test]
fn a_nested_call_runs_inline_on_the_thread_that_made_it() {
    let _turn = turn();
    let fanned = par::width() > 1;
    let rv = Rendezvous::default();
    let nested_ok = par::map(8, |i| {
        rv.check_in();
        if i == 0 && fanned {
            rv.wait_for_company();
        }
        let me = thread::current().id();
        par::width() == 1
            && par::map(6, |_| thread::current().id())
                .iter()
                .all(|&t| t == me)
    });
    assert!(nested_ok.iter().all(|&ok| ok), "{nested_ok:?}");
    // `sequential` is the same switch, thrown by hand.
    let me = thread::current().id();
    let (w, ids) = par::sequential(|| (par::width(), par::map(6, |_| thread::current().id())));
    assert_eq!(w, 1);
    assert!(ids.iter().all(|&t| t == me));
    assert_eq!(
        par::width() > 1,
        fanned,
        "sequential must not outlive its closure"
    );
}

#[test]
fn a_panicking_task_reraises_on_the_caller_and_the_pool_stays_usable() {
    let _turn = turn();
    let fanned = par::width() > 1;
    let caller = thread::current().id();
    // Whichever thread claims index 3.
    let err = catch_unwind(AssertUnwindSafe(|| {
        par::map(8, |i| if i == 3 { panic!("task {i}") } else { i })
    }))
    .expect_err("the panic must reach the caller");
    assert_eq!(
        err.downcast_ref::<String>().map(String::as_str),
        Some("task 3")
    );
    // A helper, for certain: the caller's tasks wait until one has joined,
    // and every task a helper claims panics.
    if fanned {
        let rv = Rendezvous::default();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par::map(8, |i| {
                rv.check_in();
                if thread::current().id() != caller {
                    panic!("helper");
                }
                rv.wait_for_company();
                i
            })
        }))
        .expect_err("a helper's panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"helper"));
    }
    // The slot is free again and helpers still take part.
    let rv = Rendezvous::default();
    let out = par::map(16, |i| {
        rv.check_in();
        if i == 0 && fanned {
            rv.wait_for_company();
        }
        i * i
    });
    assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    assert_eq!(rv.threads() > 1, fanned);
}

#[test]
fn lanes_drive_width_to_one_and_back() {
    let _turn = turn();
    let n = thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(
        par::width(),
        n,
        "no lanes: the caller plus every other core"
    );
    {
        let _first = par::lane();
        assert_eq!(par::width(), n, "the first lane is the caller's own core");
        let rest: Vec<par::Lane> = (1..n).map(|_| par::lane()).collect();
        assert_eq!(par::width(), 1, "as many lanes as cores: nothing to spare");
        let me = thread::current().id();
        assert!(par::map(8, |_| thread::current().id())
            .iter()
            .all(|&t| t == me));
        let _over = par::lane();
        assert_eq!(par::width(), 1, "more lanes than cores");
        drop(rest);
    }
    assert_eq!(par::width(), n);
}

#[test]
fn a_call_made_while_the_slot_is_busy_runs_inline() {
    let _turn = turn();
    // While task 0 of the outer call runs, the outer job holds the slot (on
    // a one-core host nothing was posted, and there is no helper to take).
    let inner_inline = par::map(2, |i| {
        if i != 0 {
            return true;
        }
        thread::scope(|s| {
            s.spawn(|| {
                // A fresh thread: not a task, not `sequential`, lanes free.
                let me = thread::current().id();
                par::map(8, |_| thread::current().id())
                    .iter()
                    .all(|&t| t == me)
            })
            .join()
            .expect("inner caller panicked")
        })
    });
    assert_eq!(inner_inline, [true, true]);
}
