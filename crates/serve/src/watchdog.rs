//! Deadline watchdog: one thread that cancels overdue requests.
//!
//! Workers register `(deadline, token)` when a deadlined sweep starts
//! and deregister on completion. The watchdog sleeps until the nearest
//! deadline, cancels expired tokens asynchronously, and marks the
//! request's `expired` flag so the worker can tell a deadline cancel
//! from a shutdown drain (both ride the same `CancelToken`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use qt_core::scf::CancelToken;
use qt_telemetry::counters::{self, Counter};

struct Entry {
    deadline: Instant,
    token: CancelToken,
    expired: Arc<AtomicBool>,
    request: u64,
}

#[derive(Default)]
struct State {
    entries: Vec<Entry>,
    shutdown: bool,
}

/// Shared handle workers use to (de)register deadlines.
#[derive(Clone)]
pub struct WatchdogHandle {
    state: Arc<(Mutex<State>, Condvar)>,
}

/// A registered deadline; deregisters on drop (success and failure
/// paths alike — RAII, like the pool lease).
pub struct DeadlineGuard {
    handle: WatchdogHandle,
    request: u64,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.handle.state;
        let mut st = lock.lock().unwrap();
        st.entries.retain(|e| e.request != self.request);
        cvar.notify_all();
    }
}

impl WatchdogHandle {
    /// Register `request`'s deadline. The returned guard keeps the
    /// registration alive; `expired` flips to true if the watchdog fires.
    pub fn register(
        &self,
        request: u64,
        deadline: Instant,
        token: CancelToken,
        expired: Arc<AtomicBool>,
    ) -> DeadlineGuard {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        st.entries.push(Entry {
            deadline,
            token,
            expired,
            request,
        });
        cvar.notify_all();
        DeadlineGuard {
            handle: self.clone(),
            request,
        }
    }
}

/// The watchdog thread plus its shared handle.
pub struct Watchdog {
    pub handle: WatchdogHandle,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn spawn() -> Watchdog {
        let handle = WatchdogHandle {
            state: Arc::new((Mutex::new(State::default()), Condvar::new())),
        };
        let run_handle = handle.clone();
        let thread = std::thread::Builder::new()
            .name("qt-serve-watchdog".into())
            .spawn(move || run(run_handle))
            .expect("spawn watchdog thread");
        Watchdog {
            handle,
            thread: Some(thread),
        }
    }

    /// Stop the thread (idempotent). Outstanding registrations are left
    /// uncancelled — shutdown cancels tokens through its own drain path.
    pub fn stop(&mut self) {
        let (lock, cvar) = &*self.handle.state;
        lock.lock().unwrap().shutdown = true;
        cvar.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run(handle: WatchdogHandle) {
    let (lock, cvar) = &*handle.state;
    let mut st = lock.lock().unwrap();
    loop {
        if st.shutdown {
            return;
        }
        let now = Instant::now();
        // Fire everything overdue.
        let mut fired = Vec::new();
        st.entries.retain(|e| {
            if e.deadline <= now {
                fired.push((e.token.clone(), e.expired.clone(), e.request));
                false
            } else {
                true
            }
        });
        let nearest = st.entries.iter().map(|e| e.deadline).min();
        if !fired.is_empty() {
            // Cancel outside the retain pass but under the lock is fine:
            // cancel() is a store, never blocks.
            for (token, expired, request) in fired {
                expired.store(true, Ordering::SeqCst);
                token.cancel();
                counters::add(Counter::ServiceDeadlineCancels, 1);
                qt_telemetry::journal::emit(qt_telemetry::EventKind::DeadlineExpired { request });
            }
            continue;
        }
        st = match nearest {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(now);
                cvar.wait_timeout(st, wait).unwrap().0
            }
            // Nothing registered: sleep until a register/stop wakes us.
            None => cvar.wait(st).unwrap(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn expired_deadline_cancels_the_token_and_flags_the_request() {
        let mut wd = Watchdog::spawn();
        let token = CancelToken::new();
        let expired = Arc::new(AtomicBool::new(false));
        let _guard = wd.handle.register(
            7,
            Instant::now() + Duration::from_millis(20),
            token.clone(),
            expired.clone(),
        );
        let t0 = Instant::now();
        while !token.is_cancelled() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled(), "watchdog must fire the deadline");
        assert!(expired.load(Ordering::SeqCst));
        wd.stop();
    }

    #[test]
    fn deregistered_deadline_never_fires() {
        let mut wd = Watchdog::spawn();
        let token = CancelToken::new();
        let expired = Arc::new(AtomicBool::new(false));
        let guard = wd.handle.register(
            8,
            Instant::now() + Duration::from_millis(30),
            token.clone(),
            expired.clone(),
        );
        drop(guard); // request finished in time
        std::thread::sleep(Duration::from_millis(80));
        assert!(!token.is_cancelled());
        assert!(!expired.load(Ordering::SeqCst));
        wd.stop();
    }
}
