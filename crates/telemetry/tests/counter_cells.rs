//! Exited threads leave their counts behind, not their cells.
//!
//! One test, in its own binary: it asserts on process-global totals and on
//! the number of live shards.

use qt_telemetry::counters::{add, live_shards, local, total, Counter};

#[test]
fn exited_threads_fold_into_the_totals_and_free_their_cells() {
    // Register this thread's shard before taking the baseline.
    local(Counter::Bytes);
    let (shards0, total0) = (live_shards(), total(Counter::Bytes));
    // 256 threads, eight at a time: thread `i` adds `i + 1` and exits.
    for batch in 0..32u64 {
        let workers: Vec<_> = (0..8u64)
            .map(|t| std::thread::spawn(move || add(Counter::Bytes, batch * 8 + t + 1)))
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    }
    let want: u64 = (1..=256).sum();
    assert_eq!(total(Counter::Bytes) - total0, want, "exact total survives");
    assert_eq!(
        live_shards(),
        shards0,
        "every exited thread's cell is freed"
    );
}
