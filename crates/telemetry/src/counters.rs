//! Per-thread sharded counters, declared once in one table.
//!
//! [`counter_table!`] below is the only place a counter is named. A row
//! gives the [`Counter`] variant, its dotted metric name, whether the
//! metrics series samples it (and so whether the Prometheus text carries
//! it), where the report writes it ([`Place`]) and one doc line. The enum,
//! [`Counter::ALL`], the series sample order ([`Counter::SERIES`]), the
//! Prometheus names and the report's counter blocks are all derived from
//! the rows; adding a counter is adding a row.
//!
//! Every thread that bumps a counter gets its own cache line of atomics,
//! registered once in a global cell list. Totals are the retired row plus
//! the sum over the live cells. A thread's exit folds its counts into the
//! retired row and frees its cell (the `qt_dist` thread worlds spawn and
//! join short-lived OS threads on every exchange: their traffic survives
//! into the report, and a long-running service's totals stay as cheap as
//! its live threads are few).
//!
//! [`Counter::Flops`] is the backing store for
//! `qt_linalg::flops::{add_flops, add_gemm_flops_batched, …}`, which holds
//! the `8·m·k·n` GEMM arithmetic — there is a single source of truth for
//! flop accounting across the workspace.

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// An optional block of the report that counters are written under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Block {
    /// Resilience counters (`health`).
    Health,
    /// Elastic-recovery counters (`elasticity`).
    Elasticity,
    /// Load-balance summary (`balance`).
    Balance,
    /// Sparse/dense kernel-selection summary (`kernel_selection`).
    KernelSelection,
    /// Sweep-service availability summary (`service`).
    Service,
    /// Scenario-corpus summary (`corpus`).
    Corpus,
}

impl Block {
    /// Every block, in the order the report writes them.
    pub const ALL: [Block; 6] = [
        Block::Health,
        Block::Elasticity,
        Block::Balance,
        Block::KernelSelection,
        Block::Service,
        Block::Corpus,
    ];

    /// The counters the report writes under this block, in table order.
    pub fn counters(self) -> impl Iterator<Item = Counter> {
        Counter::ALL
            .into_iter()
            .filter(move |c| c.block() == Some(self))
    }

    /// The block's key in the report JSON.
    pub fn key(self) -> &'static str {
        match self {
            Block::Health => "health",
            Block::Elasticity => "elasticity",
            Block::Balance => "balance",
            Block::KernelSelection => "kernel_selection",
            Block::Service => "service",
            Block::Corpus => "corpus",
        }
    }
}

/// Where the report writes a counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Place {
    /// Not part of the report.
    Unreported,
    /// A top-level key of the report.
    Top(&'static str),
    /// Inside a block, keyed by the last segment of the metric name.
    In(Block),
    /// A nanosecond counter written inside a block as float seconds under
    /// the given key.
    Secs(Block, &'static str),
}

struct Row {
    name: &'static str,
    sampled: bool,
    place: Place,
}

macro_rules! counter_table {
    ($(($variant:ident, $name:literal, $sampled:expr, $place:expr, $doc:literal),)+) => {
        /// One telemetry counter. The discriminant is the slot in every
        /// thread's shard.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $(#[doc = $doc] $variant,)+
        }

        const N_COUNTERS: usize = [$($name,)+].len();

        impl Counter {
            /// Every counter, in table order.
            pub const ALL: [Counter; N_COUNTERS] = [$(Counter::$variant,)+];
        }

        const ROWS: [Row; N_COUNTERS] = [
            $(Row { name: $name, sampled: $sampled, place: $place },)+
        ];
    };
}

const SAMPLED: bool = true;
const UNSAMPLED: bool = false;
use Block::{Balance, Corpus, Elasticity, Health, KernelSelection, Service};
use Place::{In, Secs, Top, Unreported};

// Within a block, a counter bumped when something is *attempted* is
// declared before the counters bumped when it *settles* (`admitted` before
// `completed`/`failed`, `warm_starts` before `warm_fallbacks`,
// `scenarios_run` before `matched`/`mismatched`): `Snapshot::take` relies
// on it.
counter_table! {
    (Flops, "flops", SAMPLED, Top("total_flops"), "Real floating-point operations."),
    (Bytes, "bytes", SAMPLED, Top("total_bytes"), "Communicated bytes."),
    (GemmPackNs, "gemm.pack_ns", UNSAMPLED, Unreported, "Busy nanoseconds in blocked-GEMM operand packing (see [`timed`])."),
    (GemmPackCalls, "gemm.pack_calls", UNSAMPLED, Unreported, "Timed operand-packing sections."),
    (GemmKernelNs, "gemm.kernel_ns", UNSAMPLED, Unreported, "Busy nanoseconds in the blocked-GEMM macro kernel."),
    (GemmKernelCalls, "gemm.kernel_calls", UNSAMPLED, Unreported, "Timed macro-kernel sections."),
    (AllocBytes, "alloc.bytes", SAMPLED, Unreported, "Heap bytes allocated (counting allocator only; see [`add_alloc`])."),
    (AllocCount, "alloc.count", SAMPLED, Unreported, "Heap allocations performed (counting allocator only)."),
    (WsFresh, "ws.fresh", SAMPLED, Unreported, "Workspace-arena pool misses: a `take` that fell back to a fresh heap allocation."),
    (BoundaryCacheHits, "boundary.cache_hits", SAMPLED, Top("boundary_cache_hits"), "Boundary self-energies served from the `BoundaryCache`."),
    (BoundaryCacheMisses, "boundary.cache_misses", SAMPLED, Top("boundary_cache_misses"), "Boundary self-energies computed by full Sancho-Rubio decimation (cache miss or bypass)."),
    (HealthQuarantinedPoints, "health.quarantined_points", SAMPLED, In(Health), "`(E, kz)` / `(ω, qz)` points that failed a numerical-health check and were excluded from the iteration."),
    (HealthEtaRetries, "health.eta_retries", SAMPLED, In(Health), "Sancho-Rubio decimations retried at a bumped imaginary broadening."),
    (HealthMixingBackoffs, "health.mixing_backoffs", SAMPLED, In(Health), "Times the SCF residual grew and the adaptive controller halved the mixing factor."),
    (HealthCommRetries, "health.comm_retries", SAMPLED, In(Health), "Communication retries: timed-out or corrupt-and-discarded receives, and retransmissions. No longer emitted; kept so older reports load."),
    (HealthCheckpointWrites, "health.checkpoint_writes", SAMPLED, In(Health), "SCF checkpoints written to disk."),
    (ElasticRankDeaths, "elastic.rank_deaths", SAMPLED, In(Elasticity), "Ranks declared permanently dead by the failure detector or the kill schedule."),
    (ElasticHeartbeatTimeouts, "elastic.heartbeat_timeouts", SAMPLED, In(Elasticity), "Failed liveness probes of a peer: receive and barrier polls that expired while the failure detector watched its epoch, and sends that found its endpoint closed."),
    (ElasticRetileEvents, "elastic.retile_events", SAMPLED, In(Elasticity), "Survivor re-tiling passes of the CA decomposition."),
    (ElasticMigratedTiles, "elastic.migrated_tiles", SAMPLED, In(Elasticity), "Tiles migrated off dead ranks during re-tiling passes."),
    (BalanceStealRequests, "balance.steal_requests", SAMPLED, In(Balance), "Work-steal requests sent by idle ranks. No longer emitted; kept so older reports load."),
    (BalanceStolenUnits, "balance.stolen_units", SAMPLED, In(Balance), "Work units granted to thieves by stragglers. No longer emitted; kept so older reports load."),
    (BalanceRebalanceEvents, "balance.rebalance_events", SAMPLED, In(Balance), "Iteration-to-iteration re-partitioning passes of the adaptive tiling."),
    (BalanceMovedUnits, "balance.moved_units", SAMPLED, In(Balance), "Units whose owner changed in re-partitioning passes."),
    (JournalDropped, "journal.dropped", UNSAMPLED, Unreported, "Journal events overwritten by a full flight-recorder ring before they could be drained."),
    (KernelSparseSelected, "kernel.sparse_selected", SAMPLED, In(KernelSelection), "Kernel-selector decisions that routed a coupling product through the CSR sparse kernels. No longer emitted; kept so older reports load."),
    (KernelDenseSelected, "kernel.dense_selected", SAMPLED, In(KernelSelection), "Kernel-selector decisions that kept a coupling product on the blocked dense GEMM. No longer emitted; kept so older reports load."),
    (KernelSwitches, "kernel.switches", SAMPLED, In(KernelSelection), "Hysteresis flips of sticky per-block kernel choices. No longer emitted; kept so older reports load."),
    (KernelSparseFlops, "kernel.sparse_flops", SAMPLED, In(KernelSelection), "Real flops executed by the CSR sparse kernels (also counted in `flops`)."),
    (KernelSparseBytes, "kernel.sparse_bytes", SAMPLED, In(KernelSelection), "Bytes streamed by the CSR sparse kernels under their minimal traffic model."),
    (KernelDenseFlops, "kernel.dense_flops", SAMPLED, In(KernelSelection), "Flops of selector-governed coupling products run on the dense route. No longer emitted; kept so older reports load."),
    (KernelSparseNs, "kernel.sparse_ns", UNSAMPLED, Secs(KernelSelection, "sparse_secs"), "Measured nanoseconds in sparse-selected coupling ops. No longer emitted; kept so older reports load."),
    (KernelDenseNs, "kernel.dense_ns", UNSAMPLED, Secs(KernelSelection, "dense_secs"), "Measured nanoseconds in dense-selected coupling ops. No longer emitted; kept so older reports load."),
    (KernelSparsePredNs, "kernel.sparse_pred_ns", UNSAMPLED, Secs(KernelSelection, "predicted_sparse_secs"), "Model-predicted nanoseconds for the same ops that fed `kernel.sparse_ns`. No longer emitted; kept so older reports load."),
    (KernelDensePredNs, "kernel.dense_pred_ns", UNSAMPLED, Secs(KernelSelection, "predicted_dense_secs"), "Model-predicted nanoseconds for the same ops that fed `kernel.dense_ns`. No longer emitted; kept so older reports load."),
    (ServiceAdmitted, "service.admitted", SAMPLED, In(Service), "Sweep requests admitted into the service queue."),
    (ServiceRejected, "service.rejected", SAMPLED, In(Service), "Sweep requests rejected with backpressure: queue full, shutdown, or an open breaker."),
    (ServiceCompleted, "service.completed", SAMPLED, In(Service), "Sweep requests completed with every point answered."),
    (ServiceFailed, "service.failed", SAMPLED, In(Service), "Sweep requests that failed after exhausting their retry budget."),
    (ServiceDeadlineCancels, "service.deadline_cancels", SAMPLED, In(Service), "Requests cancelled by the deadline watchdog."),
    (ServiceWarmStarts, "service.warm_starts", SAMPLED, In(Service), "Sweep points seeded from a neighboring converged solve (attempts)."),
    (ServiceWarmFallbacks, "service.warm_fallbacks", SAMPLED, In(Service), "Warm-start validation failures that degraded to a cold solve."),
    (ServiceRetries, "service.retries", SAMPLED, In(Service), "Per-request retries after transient failures."),
    (ServiceBreakerOpens, "service.breaker_opens", SAMPLED, In(Service), "Circuit-breaker trips quarantining a device variant."),
    (ServiceDrained, "service.drained", SAMPLED, In(Service), "In-flight sweep points checkpointed by drain-on-shutdown."),
    (ServiceWarmEvicted, "service.warm_evicted", SAMPLED, In(Service), "Warm-start seeds evicted by the bounded store's spread-preserving policy."),
    (CorpusScenariosBuilt, "corpus.scenarios_built", SAMPLED, In(Corpus), "Scenarios parsed, validated and built into simulations."),
    (CorpusScenariosRejected, "corpus.scenarios_rejected", SAMPLED, In(Corpus), "Scenarios rejected by fail-closed validation with a typed `ScenarioError`."),
    (CorpusScenariosRun, "corpus.scenarios_run", SAMPLED, In(Corpus), "Golden-corpus scenarios executed end to end."),
    (CorpusMatched, "corpus.matched", SAMPLED, In(Corpus), "Scenario fingerprints that matched their golden record."),
    (CorpusMismatched, "corpus.mismatched", SAMPLED, In(Corpus), "Scenario fingerprints that diverged from their golden record."),
    (CorpusChaosReruns, "corpus.chaos_reruns", SAMPLED, In(Corpus), "Chaos-matrix reruns of corpus scenarios under fault injection."),
}

/// Number of counters the metrics series samples.
pub const N_SERIES: usize = {
    let (mut n, mut i) = (0, 0);
    while i < N_COUNTERS {
        n += ROWS[i].sampled as usize;
        i += 1;
    }
    n
};

impl Counter {
    /// The counters of a series sample (and of the Prometheus text), in
    /// sampling order: the table's sampled rows.
    pub const SERIES: [Counter; N_SERIES] = {
        let mut out = [Counter::Flops; N_SERIES];
        let (mut n, mut i) = (0, 0);
        while i < N_COUNTERS {
            if ROWS[i].sampled {
                out[n] = Counter::ALL[i];
                n += 1;
            }
            i += 1;
        }
        out
    };

    /// The dotted metric name (`<group>.<field>`). The Prometheus
    /// rendering maps `.` to `_` and prefixes `qt_`.
    pub fn name(self) -> &'static str {
        ROWS[self as usize].name
    }

    /// Look a counter up by its metric name.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Where the report writes this counter.
    pub fn place(self) -> Place {
        ROWS[self as usize].place
    }

    /// The report block this counter is written under, if any.
    pub fn block(self) -> Option<Block> {
        match self.place() {
            In(b) | Secs(b, _) => Some(b),
            Top(_) | Unreported => None,
        }
    }

    /// The counter's key in the report: the one its row carries, else the
    /// last segment of the metric name.
    pub fn key(self) -> &'static str {
        match self.place() {
            Top(key) | Secs(_, key) => key,
            In(_) | Unreported => self.name().rsplit('.').next().unwrap_or(self.name()),
        }
    }
}

struct Cell {
    v: [AtomicU64; N_COUNTERS],
}

/// The shards of the live threads, and one row holding what every exited
/// thread counted.
struct Cells {
    live: Vec<Arc<Cell>>,
    retired: [u64; N_COUNTERS],
}

impl Cells {
    /// `counter` over the retired row and every live shard.
    fn sum(&self, counter: usize) -> u64 {
        self.retired[counter]
            + self
                .live
                .iter()
                .map(|c| c.v[counter].load(Relaxed))
                .sum::<u64>()
    }
}

static CELLS: Mutex<Cells> = Mutex::new(Cells {
    live: Vec::new(),
    retired: [0; N_COUNTERS],
});

/// The lock over [`CELLS`]. Every change under it leaves the totals exact,
/// so a panic elsewhere while it was held leaves nothing to repair.
fn cells() -> MutexGuard<'static, Cells> {
    CELLS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's registered shard. When the thread exits, its counts fold
/// into the retired row and the shard leaves the live list, both under
/// the lock, so a total never sees them twice or not at all.
struct Shard(Arc<Cell>);

impl Drop for Shard {
    fn drop(&mut self) {
        let mut cells = cells();
        for (row, v) in cells.retired.iter_mut().zip(&self.0.v) {
            *row += v.load(Relaxed);
        }
        if let Some(at) = cells.live.iter().position(|c| Arc::ptr_eq(c, &self.0)) {
            cells.live.swap_remove(at);
        }
    }
}

thread_local! {
    static CELL: Shard = {
        let cell = Arc::new(Cell { v: std::array::from_fn(|_| AtomicU64::new(0)) });
        cells().live.push(cell.clone());
        Shard(cell)
    };
}

/// Add `n` to `counter` on the calling thread's shard. One thread-local
/// relaxed `fetch_add`; this is the line every GEMM call executes.
#[inline]
pub fn add(counter: Counter, n: u64) {
    CELL.with(|c| c.0.v[counter as usize].fetch_add(n, Relaxed));
}

/// What the calling thread added to `counter` since the last reset.
#[inline]
pub fn local(counter: Counter) -> u64 {
    CELL.with(|c| c.0.v[counter as usize].load(Relaxed))
}

/// `counter` summed over all threads (alive or exited) since the last
/// reset.
pub fn total(counter: Counter) -> u64 {
    cells().sum(counter as usize)
}

/// Threads holding a counter shard right now. An exited thread's shard is
/// folded into the retired row and freed, so this tracks the live threads
/// that ever counted, not every thread the process ever ran.
pub fn live_shards() -> usize {
    cells().live.len()
}

/// The total of every counter at (about) one moment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot([u64; N_COUNTERS]);

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot([0; N_COUNTERS])
    }
}

impl Snapshot {
    /// Read every counter's total. The table is read back to front, so a
    /// settled-side counter is read before the attempted-side counter
    /// declared above it; the code that bumps them does the attempt first
    /// and counters only grow, so `completed + failed <= admitted`,
    /// `warm_fallbacks <= warm_starts` and `matched + mismatched <=
    /// scenarios_run` hold in a snapshot taken mid-run.
    pub fn take() -> Snapshot {
        let cells = cells();
        let mut snap = Snapshot::default();
        for i in (0..N_COUNTERS).rev() {
            snap.0[i] = cells.sum(i);
        }
        snap
    }
}

impl Index<Counter> for Snapshot {
    type Output = u64;
    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl IndexMut<Counter> for Snapshot {
    fn index_mut(&mut self, counter: Counter) -> &mut u64 {
        &mut self.0[counter as usize]
    }
}

/// Account one heap allocation of `bytes` bytes (`alloc.bytes` /
/// `alloc.count`). Fed by the counting global allocator in `qt-bench`;
/// callers must guard against allocator re-entrancy themselves (this
/// function may allocate on a thread's *first* counter touch, when its
/// shard cell is registered).
#[inline]
pub fn add_alloc(bytes: u64) {
    CELL.with(|c| {
        c.0.v[Counter::AllocBytes as usize].fetch_add(bytes, Relaxed);
        c.0.v[Counter::AllocCount as usize].fetch_add(1, Relaxed);
    });
}

/// `total(Counter::Flops)`; name pinned by qt-perf.
pub fn total_flops() -> u64 {
    total(Counter::Flops)
}

/// `total(Counter::Bytes)`; name pinned by qt-perf.
pub fn total_bytes() -> u64 {
    total(Counter::Bytes)
}

/// `total(Counter::WsFresh)`; name pinned by qt-perf.
pub fn total_ws_fresh() -> u64 {
    total(Counter::WsFresh)
}

/// `total(Counter::BoundaryCacheMisses)`; name pinned by qt-perf.
pub fn total_boundary_misses() -> u64 {
    total(Counter::BoundaryCacheMisses)
}

/// `total(Counter::ServiceAdmitted)`; name pinned by qt-perf.
pub fn total_service_admitted() -> u64 {
    total(Counter::ServiceAdmitted)
}

/// `total(Counter::ServiceRejected)`; name pinned by qt-perf.
pub fn total_service_rejected() -> u64 {
    total(Counter::ServiceRejected)
}

/// `total(Counter::ServiceWarmStarts)`; name pinned by qt-perf.
pub fn total_service_warm_starts() -> u64 {
    total(Counter::ServiceWarmStarts)
}

/// `total(Counter::ServiceWarmFallbacks)`; name pinned by qt-perf.
pub fn total_service_warm_fallbacks() -> u64 {
    total(Counter::ServiceWarmFallbacks)
}

/// `total(Counter::ServiceRetries)`; name pinned by qt-perf.
pub fn total_service_retries() -> u64 {
    total(Counter::ServiceRetries)
}

/// Zero every counter on every registered cell.
pub fn reset_counters() {
    let mut cells = cells();
    cells.retired = [0; N_COUNTERS];
    for cell in &cells.live {
        for a in &cell.v {
            a.store(0, Relaxed);
        }
    }
}

/// Hot sections timed with dedicated per-thread counters instead of
/// registry spans, so the blocked-GEMM inner loops never touch a lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotSection {
    /// Operand packing (`pack_a` / `pack_b`) in the blocked GEMM.
    GemmPack,
    /// The register-tiled macro kernel of the blocked GEMM.
    GemmKernel,
}

/// Run `f`, attributing its wall-time to `section` when telemetry is
/// enabled. Disabled cost is one relaxed atomic load.
#[inline]
pub fn timed<R>(section: HotSection, f: impl FnOnce() -> R) -> R {
    if !crate::span::enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let (ns_counter, calls_counter) = match section {
        HotSection::GemmPack => (Counter::GemmPackNs, Counter::GemmPackCalls),
        HotSection::GemmKernel => (Counter::GemmKernelNs, Counter::GemmKernelCalls),
    };
    CELL.with(|c| {
        c.0.v[ns_counter as usize].fetch_add(ns, Relaxed);
        c.0.v[calls_counter as usize].fetch_add(1, Relaxed);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_counts_feed_totals() {
        let f0 = total(Counter::Flops);
        let l0 = local(Counter::Flops);
        add(Counter::Flops, 960);
        assert_eq!(local(Counter::Flops) - l0, 960);
        assert!(total(Counter::Flops) - f0 >= 960);
    }

    #[test]
    fn names_are_unique_and_prometheus_legal() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            let name = c.name();
            assert!(!name.is_empty());
            assert_eq!(Counter::from_name(name), Some(c), "duplicate name {name:?}");
            let prom = name.replace('.', "_");
            assert!(
                prom.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_')
                    && !prom.starts_with(|ch: char| ch.is_ascii_digit()),
                "{name:?} is not a legal Prometheus name"
            );
            // Two counters of one block never share a report key.
            for d in &Counter::ALL[..i] {
                assert!(
                    c.place() == Unreported || (c.block(), c.key()) != (d.block(), d.key()),
                    "{name:?} and {:?} share a report key",
                    d.name()
                );
            }
        }
        assert_eq!(Counter::from_name("health.quarantine"), None); // the typo-fork case
        assert_eq!(Counter::HealthEtaRetries.key(), "eta_retries");
        assert_eq!(Counter::KernelSparsePredNs.key(), "predicted_sparse_secs");
    }

    #[test]
    fn alloc_counts_accumulate() {
        let (b0, c0) = (local(Counter::AllocBytes), local(Counter::AllocCount));
        add_alloc(256);
        add_alloc(64);
        assert_eq!(local(Counter::AllocBytes) - b0, 320);
        assert_eq!(local(Counter::AllocCount) - c0, 2);
    }

    #[test]
    fn cross_thread_counts_survive_thread_exit() {
        let before = total(Counter::Flops);
        std::thread::spawn(|| add(Counter::Flops, 77))
            .join()
            .unwrap();
        assert!(total(Counter::Flops) - before >= 77);
    }

    #[test]
    fn timed_is_transparent_when_disabled() {
        let calls0 = local(Counter::GemmPackCalls);
        let v = timed(HotSection::GemmPack, || 41 + 1);
        assert_eq!(v, 42);
        if !crate::span::enabled() {
            assert_eq!(local(Counter::GemmPackCalls), calls0);
        }
    }
}
