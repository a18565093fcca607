//! The phase table: a fold over the recorder's per-thread phase totals.

use std::collections::BTreeMap;

use crate::recorder;

/// Accumulated statistics for one phase path (e.g. `"sse/sigma/dace"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans closed on this path.
    pub calls: u64,
    /// Summed span duration in nanoseconds. For `enter_global` spans on
    /// sequential orchestration code this is wall-time; for worker-thread
    /// spans it is aggregate busy time across threads.
    pub wall_ns: u64,
    /// Real flops attributed to this phase (nested phases double-count by
    /// design — the table is hierarchical, not a partition).
    pub flops: u64,
    /// Communicated bytes attributed to this phase.
    pub bytes: u64,
    /// Heap bytes allocated while the phase was open (non-zero only when
    /// a counting global allocator feeds `counters::add_alloc`).
    pub alloc_bytes: u64,
    /// Heap allocations performed while the phase was open.
    pub alloc_count: u64,
}

impl PhaseStat {
    fn add(&mut self, o: &PhaseStat) {
        self.calls += o.calls;
        self.wall_ns += o.wall_ns;
        self.flops += o.flops;
        self.bytes += o.bytes;
        self.alloc_bytes += o.alloc_bytes;
        self.alloc_count += o.alloc_count;
    }
}

/// Fold one closed span into the calling thread's phase totals.
pub fn record(
    path: &'static str,
    wall_ns: u64,
    flops: u64,
    bytes: u64,
    alloc_bytes: u64,
    alloc_count: u64,
) {
    let closed = PhaseStat {
        calls: 1,
        wall_ns,
        flops,
        bytes,
        alloc_bytes,
        alloc_count,
    };
    recorder::with_lanes(|l| l.phases.entry(path).or_default().add(&closed));
}

/// The full phase table, summed over every thread, keyed by path.
pub fn snapshot() -> BTreeMap<String, PhaseStat> {
    let mut out = BTreeMap::<String, PhaseStat>::new();
    recorder::for_each(|_, l| {
        for (path, stat) in &l.phases {
            out.entry(path.to_string()).or_default().add(stat);
        }
    });
    out
}

/// Statistics for a single phase, if any span closed on it.
pub fn phase(path: &str) -> Option<PhaseStat> {
    snapshot().remove(path)
}

/// Clear the phase table.
pub fn reset_phases() {
    recorder::for_each(|_, l| l.phases.clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_path() {
        let _g = recorder::test_lock();
        record("test/registry/a", 10, 100, 1, 1024, 4);
        record("test/registry/a", 20, 200, 2, 1024, 4);
        let s = phase("test/registry/a").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.wall_ns, 30);
        assert_eq!(s.flops, 300);
        assert_eq!(s.bytes, 3);
        assert_eq!(s.alloc_bytes, 2048);
        assert_eq!(s.alloc_count, 8);
        assert!(snapshot().contains_key("test/registry/a"));
    }
}
