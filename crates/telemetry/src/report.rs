//! The structured JSON report: per-phase statistics, model residuals,
//! convergence trajectory, and per-rank communication volumes.

use std::collections::BTreeMap;

use crate::counters::{self, Block, Counter, Place, Snapshot};
use crate::json::Json;
use crate::{journal, recorder, registry, registry::PhaseStat, series};

/// Per-phase entry of the report.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// Phase path, e.g. `"sse/sigma/dace"`.
    pub path: String,
    /// Number of spans closed on this path.
    pub calls: u64,
    /// Summed span duration in milliseconds (wall-time for sequential
    /// phases, aggregate busy time for worker-thread phases).
    pub wall_ms: f64,
    /// Real flops attributed to the phase, in Gflop.
    pub gflop: f64,
    /// Throughput over the summed duration, in Gflop/s.
    pub gflop_per_s: f64,
    /// Communicated bytes attributed to the phase.
    pub bytes: u64,
    /// Heap bytes allocated while the phase was open (`alloc.bytes`;
    /// non-zero only under the counting global allocator).
    pub alloc_bytes: u64,
    /// Heap allocations performed while the phase was open
    /// (`alloc.count`).
    pub alloc_count: u64,
}

/// One measured-vs-model comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelResidual {
    /// What is being compared, e.g. `"sse_dace_flops_vs_exact"`.
    pub name: String,
    /// The instrumented measurement.
    pub measured: f64,
    /// The closed-form model value.
    pub model: f64,
    /// `(measured - model) / model`.
    pub rel_error: f64,
    /// Whether the model is implementation-exact (residual must vanish)
    /// or an asymptotic paper form (informational).
    pub exact: bool,
}

impl ModelResidual {
    /// Build a residual entry, computing the relative error.
    pub fn new(name: impl Into<String>, measured: f64, model: f64, exact: bool) -> Self {
        let rel_error = if model != 0.0 {
            (measured - model) / model
        } else if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        ModelResidual {
            name: name.into(),
            measured,
            model,
            rel_error,
            exact,
        }
    }
}

/// One SCF iteration of the convergence trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergencePoint {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Current residual; `None` on the first iteration (no previous
    /// Green's function to difference against).
    pub residual: Option<f64>,
    /// Mixing factor applied to the self-energies this iteration.
    pub mixing: f64,
    /// Wall-time of the iteration in milliseconds.
    pub wall_ms: f64,
    /// Terminal current after the iteration.
    pub current: f64,
    /// Heap bytes allocated during the iteration (non-zero only under
    /// the counting global allocator). The cold-vs-warm gap of this
    /// column is the allocator-traffic payoff of the workspace arenas
    /// and the boundary cache.
    pub alloc_bytes: u64,
}

/// Cold-vs-warm SCF iteration comparison: iteration 0 pays Sancho-Rubio
/// decimation and arena warm-up; later iterations should be served from
/// the boundary cache and the workspace pools.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmupStats {
    /// Wall-time of iteration 0 in milliseconds.
    pub cold_wall_ms: f64,
    /// Mean wall-time of iterations ≥ 1 in milliseconds.
    pub warm_wall_ms: f64,
    /// `cold_wall_ms / warm_wall_ms`.
    pub wall_speedup: f64,
    /// Heap bytes allocated during iteration 0.
    pub cold_alloc_bytes: u64,
    /// Mean heap bytes allocated per iteration ≥ 1.
    pub warm_alloc_bytes: u64,
    /// `1 − warm/cold` allocator-byte reduction (0 when cold is 0).
    pub alloc_reduction: f64,
}

impl WarmupStats {
    /// Derive cold-vs-warm statistics from a convergence trajectory.
    /// Returns `None` with fewer than two iterations (no warm sample).
    pub fn from_convergence(points: &[ConvergencePoint]) -> Option<WarmupStats> {
        let (cold, warm) = points.split_first()?;
        if warm.is_empty() {
            return None;
        }
        let warm_wall_ms = warm.iter().map(|p| p.wall_ms).sum::<f64>() / warm.len() as f64;
        let warm_alloc_bytes = warm.iter().map(|p| p.alloc_bytes).sum::<u64>() / warm.len() as u64;
        Some(WarmupStats {
            cold_wall_ms: cold.wall_ms,
            warm_wall_ms,
            wall_speedup: if warm_wall_ms > 0.0 {
                cold.wall_ms / warm_wall_ms
            } else {
                0.0
            },
            cold_alloc_bytes: cold.alloc_bytes,
            warm_alloc_bytes,
            alloc_reduction: if cold.alloc_bytes > 0 {
                1.0 - warm_alloc_bytes as f64 / cold.alloc_bytes as f64
            } else {
                0.0
            },
        })
    }
}

/// The typed part of the report's `balance` block: per-rank busy times of
/// the distributed iteration and the resulting imbalance ratios. The
/// block's counters (`balance.*`: re-partitioning passes) are read
/// with [`TelemetryReport::counter`] like every other counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BalanceReport {
    /// Busy milliseconds per world slot (compute time, excluding waits).
    pub rank_busy_ms: Vec<f64>,
    /// `max / mean` of the per-rank busy times (1.0 = perfect balance).
    pub imbalance_ratio: f64,
    /// The same ratio under the static uniform tiling — the baseline the
    /// adaptive layer is compared against. 0.0 when not measured.
    pub imbalance_before: f64,
}

impl BalanceReport {
    /// `max / mean` of a busy-time vector; 1.0 for empty or all-zero
    /// input.
    pub fn ratio(busy: &[f64]) -> f64 {
        if busy.is_empty() {
            return 1.0;
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        busy.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Metrics time-series block: the periodic counter snapshots taken by
/// [`crate::series`], in chronological order, with lane-drop accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesBlock {
    /// Samples in chronological order.
    pub samples: Vec<series::Sample>,
    /// Samples lost to series-lane overflow.
    pub dropped: u64,
}

impl SeriesBlock {
    /// Snapshot every thread's series lane.
    pub fn from_series() -> Self {
        let (samples, dropped) = series::snapshot();
        SeriesBlock { samples, dropped }
    }
}

/// Event-journal summary block: how many events the flight recorder
/// holds, how many it lost to lane overflow, and the per-kind breakdown.
/// The full timeline is not embedded in the report — it ships in
/// postmortem dumps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalBlock {
    /// Events currently buffered across all lanes.
    pub events: u64,
    /// Events lost to lane overflow (the `journal.dropped` counter).
    pub dropped: u64,
    /// Buffered events per kind tag, sorted by tag.
    pub by_kind: Vec<(String, u64)>,
}

impl JournalBlock {
    /// Summarize the live journal without draining it.
    pub fn from_journal() -> Self {
        let by_kind: Vec<(String, u64)> = journal::kind_counts()
            .into_iter()
            .map(|(t, n)| (t.to_string(), n))
            .collect();
        JournalBlock {
            events: by_kind.iter().map(|(_, n)| n).sum(),
            dropped: counters::total(Counter::JournalDropped),
            by_kind,
        }
    }
}

/// Per-rank communication volume of a distributed phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankComm {
    /// Rank index within the thread world.
    pub rank: usize,
    /// Bytes this rank pushed to other ranks (self-sends are free).
    pub sent_bytes: u64,
    /// Bytes this rank received from other ranks.
    pub recv_bytes: u64,
}

/// The full telemetry report emitted by `reproduce profile`.
///
/// Counter values are held once, in one snapshot read through
/// [`TelemetryReport::counter`]; the counter table ([`crate::counters`])
/// says under which key or optional block each one is written, and
/// `to_json`/`from_json`/`require` walk it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    /// Per-phase statistics, sorted by path.
    pub phases: Vec<PhaseReport>,
    /// Measured-vs-model comparisons (Tables 3–5).
    pub residuals: Vec<ModelResidual>,
    /// SCF convergence trajectory.
    pub convergence: Vec<ConvergencePoint>,
    /// Per-rank communication volumes of the distributed iteration.
    pub comm: Vec<RankComm>,
    /// The counters the report carries ([`Self::counter`]): the table's
    /// top-level rows and the rows of every present block. All other slots
    /// are zero, so a report equals its own JSON round trip.
    counters: Snapshot,
    /// Which optional counter blocks are present ([`Self::has`]), by
    /// `Block as usize`. `health` and `elasticity` are absent only in
    /// reports predating those layers; `balance` appears with
    /// [`Self::set_balance`]; `kernel_selection`, `service` and `corpus`
    /// appear once a run touched the selector, the admission path or the
    /// scenario builder.
    blocks: [bool; Block::ALL.len()],
    /// Cold-vs-warm SCF iteration comparison, when a trajectory with at
    /// least two iterations was recorded.
    pub warmup: Option<WarmupStats>,
    /// The typed part of the `balance` block.
    pub balance: BalanceReport,
    /// The typed part of the `kernel_selection` block: the calibrated
    /// crossover density (the CSR kernels win below it).
    /// Not a counter — the caller that knows the calibration fills it in;
    /// 0 when unknown to the report writer.
    pub crossover_density: f64,
    /// Metrics time-series; `None` unless series sampling was enabled.
    pub series: Option<SeriesBlock>,
    /// Event-journal summary; `None` unless journaling was enabled.
    pub journal: Option<JournalBlock>,
}

/// Why [`TelemetryReport::require`] rejected an expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequireError {
    /// The expression does not parse or names nothing the report can hold.
    Malformed(String),
    /// The expression is well-formed and the report does not satisfy it.
    Unmet(String),
}

fn phase_report(path: &str, s: &PhaseStat) -> PhaseReport {
    let wall_s = s.wall_ns as f64 / 1e9;
    let gflop = s.flops as f64 / 1e9;
    PhaseReport {
        path: path.to_string(),
        calls: s.calls,
        wall_ms: s.wall_ns as f64 / 1e6,
        gflop,
        gflop_per_s: if wall_s > 0.0 { gflop / wall_s } else { 0.0 },
        bytes: s.bytes,
        alloc_bytes: s.alloc_bytes,
        alloc_count: s.alloc_count,
    }
}

/// Did a run record anything under `block`? A block that did not is left
/// out by `from_current` and rejected by `validate` when present.
fn recorded(block: Block, counters: &Snapshot) -> bool {
    let any = |cs: &[Counter]| cs.iter().any(|&c| counters[c] > 0);
    match block {
        Block::Health | Block::Elasticity | Block::Balance => true,
        Block::KernelSelection => any(&[
            Counter::KernelSparseSelected,
            Counter::KernelDenseSelected,
            Counter::KernelSparseFlops,
        ]),
        Block::Service => any(&[Counter::ServiceAdmitted, Counter::ServiceRejected]),
        Block::Corpus => any(&[
            Counter::CorpusScenariosBuilt,
            Counter::CorpusScenariosRejected,
            Counter::CorpusScenariosRun,
        ]),
    }
}

impl TelemetryReport {
    /// Build a report from the current global telemetry state: the phase
    /// registry, the GEMM pack/kernel hot sections, and one counter
    /// snapshot. Residuals, convergence and per-rank comm sections start
    /// empty — the caller fills them in.
    pub fn from_current() -> Self {
        let live = Snapshot::take();
        let mut phases: BTreeMap<String, PhaseStat> = registry::snapshot();
        for (path, calls, ns) in [
            ("gemm.pack", Counter::GemmPackCalls, Counter::GemmPackNs),
            (
                "gemm.kernel",
                Counter::GemmKernelCalls,
                Counter::GemmKernelNs,
            ),
        ] {
            if live[calls] > 0 {
                phases.insert(
                    path.to_string(),
                    PhaseStat {
                        calls: live[calls],
                        wall_ns: live[ns],
                        ..PhaseStat::default()
                    },
                );
            }
        }
        let mut rep = TelemetryReport {
            phases: phases.iter().map(|(p, s)| phase_report(p, s)).collect(),
            blocks: Block::ALL.map(|b| b != Block::Balance && recorded(b, &live)),
            counters: live,
            series: recorder::is_on(recorder::SERIES).then(SeriesBlock::from_series),
            journal: recorder::is_on(recorder::JOURNAL).then(JournalBlock::from_journal),
            ..TelemetryReport::default()
        };
        for c in Counter::ALL {
            if !rep.carries(c) {
                rep.counters[c] = 0;
            }
        }
        rep
    }

    /// The value the report carries for `counter` (0 for a counter the
    /// report does not carry).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter]
    }

    /// Is the optional counter block present?
    pub fn has(&self, block: Block) -> bool {
        self.blocks[block as usize]
    }

    /// Add the `balance` block: measured per-rank busy times
    /// (milliseconds), their `max / mean` ratio, the static-tiling
    /// baseline ratio when one was measured (else 0), and the live
    /// `balance.*` counter totals.
    pub fn set_balance(&mut self, rank_busy_ms: Vec<f64>, imbalance_before: f64) {
        self.balance = BalanceReport {
            imbalance_ratio: BalanceReport::ratio(&rank_busy_ms),
            rank_busy_ms,
            imbalance_before,
        };
        self.blocks[Block::Balance as usize] = true;
        for c in Block::Balance.counters() {
            self.counters[c] = counters::total(c);
        }
    }

    /// Does the report carry a value for `counter`?
    fn carries(&self, counter: Counter) -> bool {
        match counter.place() {
            Place::Unreported => false,
            Place::Top(_) => true,
            Place::In(b) | Place::Secs(b, _) => self.has(b),
        }
    }

    /// Serialise as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("path".to_string(), Json::Str(p.path.clone())),
                    ("calls".to_string(), Json::Num(p.calls as f64)),
                    ("wall_ms".to_string(), Json::Num(p.wall_ms)),
                    ("gflop".to_string(), Json::Num(p.gflop)),
                    ("gflop_per_s".to_string(), Json::Num(p.gflop_per_s)),
                    ("bytes".to_string(), Json::Num(p.bytes as f64)),
                    ("alloc_bytes".to_string(), Json::Num(p.alloc_bytes as f64)),
                    ("alloc_count".to_string(), Json::Num(p.alloc_count as f64)),
                ])
            })
            .collect();
        let residuals = self
            .residuals
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(r.name.clone())),
                    ("measured".to_string(), Json::Num(r.measured)),
                    ("model".to_string(), Json::Num(r.model)),
                    ("rel_error".to_string(), Json::Num(r.rel_error)),
                    ("exact".to_string(), Json::Bool(r.exact)),
                ])
            })
            .collect();
        let convergence = self
            .convergence
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("iteration".to_string(), Json::Num(c.iteration as f64)),
                    (
                        "residual".to_string(),
                        c.residual.map_or(Json::Null, Json::Num),
                    ),
                    ("mixing".to_string(), Json::Num(c.mixing)),
                    ("wall_ms".to_string(), Json::Num(c.wall_ms)),
                    ("current".to_string(), Json::Num(c.current)),
                    ("alloc_bytes".to_string(), Json::Num(c.alloc_bytes as f64)),
                ])
            })
            .collect();
        let comm = self
            .comm
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("rank".to_string(), Json::Num(c.rank as f64)),
                    ("sent_bytes".to_string(), Json::Num(c.sent_bytes as f64)),
                    ("recv_bytes".to_string(), Json::Num(c.recv_bytes as f64)),
                ])
            })
            .collect();
        let warmup = match &self.warmup {
            None => Json::Null,
            Some(w) => Json::Obj(vec![
                ("cold_wall_ms".to_string(), Json::Num(w.cold_wall_ms)),
                ("warm_wall_ms".to_string(), Json::Num(w.warm_wall_ms)),
                ("wall_speedup".to_string(), Json::Num(w.wall_speedup)),
                (
                    "cold_alloc_bytes".to_string(),
                    Json::Num(w.cold_alloc_bytes as f64),
                ),
                (
                    "warm_alloc_bytes".to_string(),
                    Json::Num(w.warm_alloc_bytes as f64),
                ),
                ("alloc_reduction".to_string(), Json::Num(w.alloc_reduction)),
            ]),
        };
        let series_block = match &self.series {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                (
                    "samples".to_string(),
                    Json::Arr(s.samples.iter().map(series::Sample::to_json).collect()),
                ),
                ("dropped".to_string(), Json::Num(s.dropped as f64)),
            ]),
        };
        let journal_block = match &self.journal {
            None => Json::Null,
            Some(j) => Json::Obj(vec![
                ("events".to_string(), Json::Num(j.events as f64)),
                ("dropped".to_string(), Json::Num(j.dropped as f64)),
                (
                    "by_kind".to_string(),
                    Json::Obj(
                        j.by_kind
                            .iter()
                            .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                            .collect(),
                    ),
                ),
            ]),
        };
        // A counter's entry: its report key and its value (nanosecond
        // counters are written as float seconds).
        let entry = |c: Counter| {
            let v = self.counters[c] as f64;
            let secs = matches!(c.place(), Place::Secs(..));
            (
                c.key().to_string(),
                Json::Num(if secs { v / 1e9 } else { v }),
            )
        };
        // A block: its typed fields, if it has any, around its counters
        // in table order.
        let block = |b: Block| {
            if !self.has(b) {
                return (b.key().to_string(), Json::Null);
            }
            let mut fields = Vec::new();
            if b == Block::Balance {
                let busy = self.balance.rank_busy_ms.iter();
                fields.extend([
                    (
                        "rank_busy_ms".to_string(),
                        Json::Arr(busy.map(|&ms| Json::Num(ms)).collect()),
                    ),
                    (
                        "imbalance_ratio".to_string(),
                        Json::Num(self.balance.imbalance_ratio),
                    ),
                    (
                        "imbalance_before".to_string(),
                        Json::Num(self.balance.imbalance_before),
                    ),
                ]);
            }
            fields.extend(b.counters().map(entry));
            if b == Block::KernelSelection {
                fields.push((
                    "crossover_density".to_string(),
                    Json::Num(self.crossover_density),
                ));
            }
            (b.key().to_string(), Json::Obj(fields))
        };
        let mut root = vec![
            ("phases".to_string(), Json::Arr(phases)),
            ("residuals".to_string(), Json::Arr(residuals)),
            ("convergence".to_string(), Json::Arr(convergence)),
            ("comm".to_string(), Json::Arr(comm)),
        ];
        let top = |c: &Counter| matches!(c.place(), Place::Top(_));
        root.extend(Counter::ALL.into_iter().filter(top).map(entry));
        root.push(("warmup".to_string(), warmup));
        root.extend(Block::ALL.map(block));
        root.push(("series".to_string(), series_block));
        root.push(("journal".to_string(), journal_block));
        Json::Obj(root).dump()
    }

    /// Parse a report back from JSON. Inside a counter block a key the
    /// counter table does not know is an error (a typo-forked name must
    /// not pass as a zero), while a key the table knows and the block
    /// lacks reads as zero, so a report written before a counter was added
    /// to the table still loads.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let root = Json::parse(json).map_err(|e| format!("report does not parse: {e}"))?;
        let arr = |key: &str| -> Result<&[Json], String> {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("report lacks {key:?} array"))
        };
        let str_field = |v: &Json, key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("entry lacks string {key:?}"))?
                .to_string())
        };
        let num_field = |v: &Json, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("entry lacks number {key:?}"))
        };
        let int_field = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("entry lacks integer {key:?}"))
        };

        let mut report = TelemetryReport {
            warmup: match root.get("warmup") {
                Some(Json::Null) | None => None,
                Some(w) => Some(WarmupStats {
                    cold_wall_ms: num_field(w, "cold_wall_ms")?,
                    warm_wall_ms: num_field(w, "warm_wall_ms")?,
                    wall_speedup: num_field(w, "wall_speedup")?,
                    cold_alloc_bytes: int_field(w, "cold_alloc_bytes")?,
                    warm_alloc_bytes: int_field(w, "warm_alloc_bytes")?,
                    alloc_reduction: num_field(w, "alloc_reduction")?,
                }),
            },
            series: match root.get("series") {
                Some(Json::Null) | None => None,
                Some(s) => Some(SeriesBlock {
                    samples: s
                        .get("samples")
                        .and_then(Json::as_array)
                        .ok_or("series lacks samples array")?
                        .iter()
                        .map(series::Sample::from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                    dropped: int_field(s, "dropped")?,
                }),
            },
            journal: match root.get("journal") {
                Some(Json::Null) | None => None,
                Some(j) => Some(JournalBlock {
                    events: int_field(j, "events")?,
                    dropped: int_field(j, "dropped")?,
                    by_kind: match j.get("by_kind") {
                        Some(Json::Obj(fields)) => fields
                            .iter()
                            .map(|(k, v)| {
                                Ok((
                                    k.clone(),
                                    v.as_u64().ok_or(format!("bad by_kind count for {k:?}"))?,
                                ))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        _ => return Err("journal block lacks by_kind object".into()),
                    },
                }),
            },
            ..TelemetryReport::default()
        };
        for c in Counter::ALL {
            if let Place::Top(key) = c.place() {
                report.counters[c] = int_field(&root, key)?;
            }
        }
        for b in Block::ALL {
            let fields = match root.get(b.key()) {
                Some(Json::Null) | None => continue,
                Some(Json::Obj(fields)) => fields,
                Some(_) => return Err(format!("{:?} block is not an object", b.key())),
            };
            report.blocks[b as usize] = true;
            for (key, v) in fields {
                let bad = || format!("bad value for {key:?} in the {:?} block", b.key());
                match (b, key.as_str()) {
                    (Block::Balance, "rank_busy_ms") => {
                        report.balance.rank_busy_ms = v
                            .as_array()
                            .ok_or_else(bad)?
                            .iter()
                            .map(|ms| ms.as_f64().ok_or_else(bad))
                            .collect::<Result<Vec<f64>, _>>()?;
                    }
                    (Block::Balance, "imbalance_ratio") => {
                        report.balance.imbalance_ratio = v.as_f64().ok_or_else(bad)?;
                    }
                    (Block::Balance, "imbalance_before") => {
                        report.balance.imbalance_before = v.as_f64().ok_or_else(bad)?;
                    }
                    (Block::KernelSelection, "crossover_density") => {
                        report.crossover_density = v.as_f64().ok_or_else(bad)?;
                    }
                    _ => {
                        let c = Counter::ALL
                            .into_iter()
                            .find(|c| c.block() == Some(b) && c.key() == key)
                            .ok_or(format!("unknown key {key:?} in the {:?} block", b.key()))?;
                        report.counters[c] = match c.place() {
                            Place::Secs(..) => v
                                .as_f64()
                                .filter(|s| s.is_finite() && *s >= 0.0)
                                .map(|s| (s * 1e9).round() as u64),
                            _ => v.as_u64(),
                        }
                        .ok_or_else(bad)?;
                    }
                }
            }
        }
        for p in arr("phases")? {
            report.phases.push(PhaseReport {
                path: str_field(p, "path")?,
                calls: int_field(p, "calls")?,
                wall_ms: num_field(p, "wall_ms")?,
                gflop: num_field(p, "gflop")?,
                gflop_per_s: num_field(p, "gflop_per_s")?,
                bytes: int_field(p, "bytes")?,
                alloc_bytes: int_field(p, "alloc_bytes")?,
                alloc_count: int_field(p, "alloc_count")?,
            });
        }
        for r in arr("residuals")? {
            report.residuals.push(ModelResidual {
                name: str_field(r, "name")?,
                measured: num_field(r, "measured")?,
                model: num_field(r, "model")?,
                rel_error: num_field(r, "rel_error")?,
                exact: r
                    .get("exact")
                    .and_then(Json::as_bool)
                    .ok_or("residual lacks bool \"exact\"")?,
            });
        }
        for c in arr("convergence")? {
            report.convergence.push(ConvergencePoint {
                iteration: int_field(c, "iteration")? as usize,
                residual: match c.get("residual") {
                    Some(Json::Null) | None => None,
                    Some(v) => Some(v.as_f64().ok_or("bad residual value")?),
                },
                mixing: num_field(c, "mixing")?,
                wall_ms: num_field(c, "wall_ms")?,
                current: num_field(c, "current")?,
                alloc_bytes: int_field(c, "alloc_bytes")?,
            });
        }
        for c in arr("comm")? {
            report.comm.push(RankComm {
                rank: int_field(c, "rank")? as usize,
                sent_bytes: int_field(c, "sent_bytes")?,
                recv_bytes: int_field(c, "recv_bytes")?,
            });
        }
        Ok(report)
    }

    /// Schema validation: every numeric field finite and non-negative
    /// where it must be, at least one phase present, every residual
    /// marked `exact` actually vanishing, and the cross-counter
    /// invariants of the present blocks.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("report has no phases".into());
        }
        for p in &self.phases {
            if p.path.is_empty() {
                return Err("phase with empty path".into());
            }
            if !(p.wall_ms.is_finite() && p.wall_ms >= 0.0) {
                return Err(format!("phase {:?} has bad wall_ms {}", p.path, p.wall_ms));
            }
            if !p.gflop.is_finite() || p.gflop < 0.0 || !p.gflop_per_s.is_finite() {
                return Err(format!("phase {:?} has bad flop stats", p.path));
            }
            if p.calls == 0 {
                return Err(format!("phase {:?} reported with zero calls", p.path));
            }
        }
        for r in &self.residuals {
            if !(r.measured.is_finite() && r.model.is_finite() && r.rel_error.is_finite()) {
                return Err(format!("residual {:?} is not finite", r.name));
            }
            if r.exact && r.rel_error.abs() > 1e-9 {
                return Err(format!(
                    "exact residual {:?} does not vanish: measured {} vs model {} (rel {})",
                    r.name, r.measured, r.model, r.rel_error
                ));
            }
        }
        for c in &self.convergence {
            if let Some(res) = c.residual {
                if !(res.is_finite() && res >= 0.0) {
                    return Err(format!("iteration {} has bad residual", c.iteration));
                }
            }
            if !c.wall_ms.is_finite() || !c.current.is_finite() || !c.mixing.is_finite() {
                return Err(format!("iteration {} has non-finite fields", c.iteration));
            }
        }
        if let Some(w) = &self.warmup {
            let nums = [
                w.cold_wall_ms,
                w.warm_wall_ms,
                w.wall_speedup,
                w.alloc_reduction,
            ];
            if nums.iter().any(|x| !x.is_finite()) {
                return Err("warmup stats contain non-finite fields".into());
            }
            if w.cold_wall_ms < 0.0 || w.warm_wall_ms < 0.0 || w.wall_speedup < 0.0 {
                return Err("warmup stats contain negative timings".into());
            }
        }
        for b in Block::ALL {
            if self.has(b) && !recorded(b, &self.counters) {
                return Err(format!("{} block present but nothing recorded", b.key()));
            }
        }
        let n = |c: Counter| self.counters[c];
        if self.has(Block::Balance) {
            let b = &self.balance;
            if b.rank_busy_ms.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err("balance busy times contain bad entries".into());
            }
            if !b.imbalance_ratio.is_finite() || b.imbalance_ratio < 1.0 - 1e-9 {
                return Err(format!(
                    "balance imbalance_ratio {} is not a max/mean ratio",
                    b.imbalance_ratio
                ));
            }
            if !b.imbalance_before.is_finite() || b.imbalance_before < 0.0 {
                return Err("balance imbalance_before is bad".into());
            }
            let recomputed = BalanceReport::ratio(&b.rank_busy_ms);
            if !b.rank_busy_ms.is_empty() && (recomputed - b.imbalance_ratio).abs() > 1e-6 {
                return Err(format!(
                    "balance ratio {} disagrees with busy times (expect {recomputed})",
                    b.imbalance_ratio
                ));
            }
        }
        if self.has(Block::KernelSelection) && !(0.0..=1.0).contains(&self.crossover_density) {
            return Err(format!(
                "kernel_selection crossover_density {} is not a density",
                self.crossover_density
            ));
        }
        if self.has(Block::Service) {
            let settled = n(Counter::ServiceCompleted) + n(Counter::ServiceFailed);
            if settled > n(Counter::ServiceAdmitted) {
                return Err(format!(
                    "service settled {settled} requests but admitted only {}",
                    n(Counter::ServiceAdmitted)
                ));
            }
            if n(Counter::ServiceWarmFallbacks) > n(Counter::ServiceWarmStarts) {
                return Err(format!(
                    "service warm_fallbacks {} exceeds warm_starts {}",
                    n(Counter::ServiceWarmFallbacks),
                    n(Counter::ServiceWarmStarts)
                ));
            }
        }
        if self.has(Block::Corpus) {
            let compared = n(Counter::CorpusMatched) + n(Counter::CorpusMismatched);
            if compared > n(Counter::CorpusScenariosRun) {
                return Err(format!(
                    "corpus compared {compared} fingerprints but ran only {} scenarios",
                    n(Counter::CorpusScenariosRun)
                ));
            }
        }
        if let Some(s) = &self.series {
            if s.samples
                .iter()
                .any(|x| !x.ts_us.is_finite() || x.ts_us < 0.0)
            {
                return Err("series samples contain bad timestamps".into());
            }
            if s.samples.windows(2).any(|w| w[0].ts_us > w[1].ts_us) {
                return Err("series samples are not chronological".into());
            }
        }
        if let Some(j) = &self.journal {
            let by_kind_total: u64 = j.by_kind.iter().map(|(_, n)| n).sum();
            if by_kind_total != j.events {
                return Err(format!(
                    "journal by_kind sums to {by_kind_total}, expected {} events",
                    j.events
                ));
            }
        }
        Ok(())
    }

    /// Check one requirement a caller (CI, through `reproduce
    /// check-report --require <expr>`) places on the report:
    ///
    /// * `<block>` — the optional block is present (`health`, `service`, …);
    /// * `<metric>>N`, `<metric><=X`, `<metric>=N` — a comparison on a
    ///   counter the report carries, named as in the counter table
    ///   (`boundary.cache_hits`, `corpus.mismatched`), or on
    ///   `balance.imbalance_ratio`. A metric of an absent block is unmet.
    ///
    /// Anything else — an unknown name, a counter the report does not
    /// hold, a threshold that is not a number — is `Malformed`, never a
    /// pass.
    pub fn require(&self, expr: &str) -> Result<(), RequireError> {
        use RequireError::{Malformed, Unmet};
        let block_of = |name: &str| Block::ALL.into_iter().find(|b| b.key() == name);
        let Some((at, op)) = ["<=", ">", "="]
            .into_iter()
            .find_map(|op| expr.find(op).map(|at| (at, op)))
        else {
            let block = block_of(expr.trim())
                .ok_or_else(|| Malformed(format!("{expr:?} is not a report block")))?;
            return if self.has(block) {
                Ok(())
            } else {
                Err(Unmet(format!("the report has no {expr} block")))
            };
        };
        let (name, threshold) = (expr[..at].trim(), expr[at + op.len()..].trim());
        let threshold: f64 = threshold
            .parse()
            .map_err(|_| Malformed(format!("{threshold:?} in {expr:?} is not a number")))?;
        let (block, value) = match (Counter::from_name(name), name) {
            (Some(c), _) if c.place() == Place::Unreported => {
                return Err(Malformed(format!("the report does not hold {name}")));
            }
            (Some(c), _) => (c.block(), self.counters[c] as f64),
            (None, "balance.imbalance_ratio") => {
                (Some(Block::Balance), self.balance.imbalance_ratio)
            }
            (None, _) => return Err(Malformed(format!("unknown metric {name:?}"))),
        };
        if let Some(b) = block.filter(|&b| !self.has(b)) {
            return Err(Unmet(format!(
                "{name} needs the {} block, which the report lacks",
                b.key()
            )));
        }
        let met = match op {
            ">" => value > threshold,
            "<=" => value <= threshold,
            _ => value == threshold,
        };
        if met {
            Ok(())
        } else {
            Err(Unmet(format!(
                "{name} is {value}, required {op}{threshold}"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::add;

    /// Written by the parent commit (the last one with hand-written
    /// counter blocks) from the value `full_report` builds.
    const PARENT_FULL: &str = include_str!("../tests/fixtures/parent_full_report.json");

    fn set(rep: &mut TelemetryReport, values: &[(&str, u64)]) {
        for &(name, v) in values {
            rep.counters[Counter::from_name(name).expect(name)] = v;
        }
    }

    /// A report with every block present.
    fn full_report() -> TelemetryReport {
        let stat = PhaseStat {
            calls: 1,
            wall_ns: 1_000_000,
            flops: 8_000,
            bytes: 64,
            alloc_bytes: 4096,
            alloc_count: 16,
        };
        let mut rep = TelemetryReport {
            phases: vec![phase_report("test/report/phase", &stat)],
            ..TelemetryReport::default()
        };
        rep.residuals
            .push(ModelResidual::new("flops_vs_exact", 8000.0, 8000.0, true));
        rep.residuals
            .push(ModelResidual::new("flops_vs_table3", 8000.0, 9000.0, false));
        rep.convergence.push(ConvergencePoint {
            iteration: 0,
            residual: None,
            mixing: 0.5,
            wall_ms: 1.0,
            current: 1e-6,
            alloc_bytes: 1 << 20,
        });
        rep.convergence.push(ConvergencePoint {
            iteration: 1,
            residual: Some(0.25),
            mixing: 0.5,
            wall_ms: 1.5,
            current: 2e-6,
            alloc_bytes: 1 << 10,
        });
        rep.comm.push(RankComm {
            rank: 0,
            sent_bytes: 100,
            recv_bytes: 50,
        });
        rep.warmup = WarmupStats::from_convergence(&rep.convergence);
        rep.blocks = [true; Block::ALL.len()];
        rep.balance = BalanceReport {
            rank_busy_ms: vec![4.0, 2.0, 2.0],
            imbalance_ratio: 1.5,
            imbalance_before: 2.4,
        };
        rep.crossover_density = 0.3;
        set(
            &mut rep,
            &[
                ("flops", 1000),
                ("bytes", 1007),
                ("boundary.cache_hits", 1063),
                ("boundary.cache_misses", 1070),
                ("health.quarantined_points", 3),
                ("health.eta_retries", 1),
                ("health.mixing_backoffs", 2),
                ("health.comm_retries", 7),
                ("health.checkpoint_writes", 4),
                ("elastic.rank_deaths", 2),
                ("elastic.heartbeat_timeouts", 1),
                ("elastic.retile_events", 2),
                ("elastic.migrated_tiles", 6),
                ("balance.steal_requests", 5),
                ("balance.stolen_units", 3),
                ("balance.rebalance_events", 1),
                ("balance.moved_units", 2),
                ("kernel.sparse_selected", 12),
                ("kernel.dense_selected", 4),
                ("kernel.switches", 1),
                ("kernel.sparse_flops", 1 << 20),
                ("kernel.sparse_bytes", 1 << 16),
                ("kernel.dense_flops", 1 << 22),
                ("kernel.sparse_ns", 10_000_000),
                ("kernel.dense_ns", 40_000_000),
                ("kernel.sparse_pred_ns", 12_000_000),
                ("kernel.dense_pred_ns", 38_000_000),
                ("service.admitted", 8),
                ("service.rejected", 2),
                ("service.completed", 6),
                ("service.failed", 1),
                ("service.deadline_cancels", 1),
                ("service.warm_starts", 5),
                ("service.warm_fallbacks", 1),
                ("service.retries", 2),
                ("service.breaker_opens", 1),
                ("service.drained", 3),
                ("service.warm_evicted", 2),
                ("corpus.scenarios_built", 6),
                ("corpus.scenarios_rejected", 2),
                ("corpus.scenarios_run", 5),
                ("corpus.matched", 4),
                ("corpus.mismatched", 1),
                ("corpus.chaos_reruns", 3),
            ],
        );
        rep.series = Some(SeriesBlock {
            samples: vec![
                series::Sample {
                    ts_us: 10.0,
                    iteration: 0,
                    values: [7; counters::N_SERIES],
                },
                series::Sample {
                    ts_us: 20.0,
                    iteration: 1,
                    values: [9; counters::N_SERIES],
                },
            ],
            dropped: 1,
        });
        rep.journal = Some(JournalBlock {
            events: 5,
            dropped: 2,
            by_kind: vec![
                ("heartbeat_timeout".to_string(), 3),
                ("rank_death".to_string(), 2),
            ],
        });
        rep
    }

    #[test]
    fn report_roundtrips_bytewise_against_the_parent_fixture() {
        let rep = full_report();
        rep.validate().unwrap();
        // Same keys, nesting, order and number formatting as the
        // hand-written serializer this table replaced.
        assert_eq!(rep.to_json(), PARENT_FULL);
        let back = TelemetryReport::from_json(PARENT_FULL).unwrap();
        assert_eq!(back, rep);
        back.validate().unwrap();
        assert_eq!(back.to_json(), PARENT_FULL);
    }

    #[test]
    fn counter_blocks_parse_fail_closed() {
        // A typo-forked key inside a counter block is rejected …
        let forked = PARENT_FULL.replace("\"eta_retries\"", "\"eta_retry\"");
        let err = TelemetryReport::from_json(&forked).unwrap_err();
        assert!(err.contains("eta_retry"), "{err}");
        // … a key the block predates reads as zero (reports written
        // before the bounded warm store have no `warm_evicted`) …
        let older = PARENT_FULL.replace(",\n    \"warm_evicted\": 2", "");
        assert_ne!(older, PARENT_FULL);
        let back = TelemetryReport::from_json(&older).unwrap();
        assert_eq!(back.counter(Counter::ServiceWarmEvicted), 0);
        assert_eq!(back.counter(Counter::ServiceDrained), 3);
        // … and a block that is not an object is an error.
        let scalar = PARENT_FULL.replacen("\"corpus\": {", "\"corpus\": 3, \"was\": {", 1);
        assert!(TelemetryReport::from_json(&scalar).is_err());
    }

    #[test]
    fn validation_checks_cross_counter_invariants() {
        let rep = full_report();
        let bad = |edit: &dyn Fn(&mut TelemetryReport)| {
            let mut bad = rep.clone();
            edit(&mut bad);
            bad.validate().is_err()
        };
        // A kernel-selection block that recorded nothing must not validate.
        assert!(bad(&|r| set(
            r,
            &[
                ("kernel.sparse_selected", 0),
                ("kernel.dense_selected", 0),
                ("kernel.sparse_flops", 0),
            ]
        )));
        // Nor one whose crossover is not a density.
        assert!(bad(&|r| r.crossover_density = 1.5));
        // A service block with no traffic, over-settled requests, or more
        // fallbacks than warm attempts must not validate.
        assert!(bad(&|r| set(
            r,
            &[
                ("service.admitted", 0),
                ("service.rejected", 0),
                ("service.completed", 0),
                ("service.failed", 0)
            ]
        )));
        assert!(bad(&|r| set(
            r,
            &[("service.admitted", 2), ("service.completed", 2)]
        )));
        assert!(bad(&|r| set(r, &[("service.warm_fallbacks", 6)])));
        // A corpus block with no activity, or with more fingerprint
        // comparisons than scenario runs, must not validate.
        assert!(bad(&|r| set(
            r,
            &[
                ("corpus.scenarios_built", 0),
                ("corpus.scenarios_rejected", 0),
                ("corpus.scenarios_run", 0),
                ("corpus.matched", 0),
                ("corpus.mismatched", 0)
            ]
        )));
        assert!(bad(&|r| set(r, &[("corpus.scenarios_run", 4)])));
        // An inconsistent journal summary must not validate.
        assert!(bad(&|r| r.journal.as_mut().unwrap().events = 4));
        // Nor a time-reversed series.
        assert!(bad(&|r| r.series.as_mut().unwrap().samples.reverse()));
    }

    /// The one subtle property of the snapshot: taken while another thread
    /// is between an attempt and its settlement, it still satisfies the
    /// `settled <= attempted` checks of `validate`.
    #[test]
    fn snapshots_taken_mid_run_validate() {
        let _g = crate::recorder::test_lock();
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        const ATTEMPT_THEN_SETTLE: [(Counter, Counter); 5] = [
            (Counter::ServiceAdmitted, Counter::ServiceCompleted),
            (Counter::ServiceAdmitted, Counter::ServiceFailed),
            (Counter::ServiceWarmStarts, Counter::ServiceWarmFallbacks),
            (Counter::CorpusScenariosRun, Counter::CorpusMatched),
            (Counter::CorpusScenariosRun, Counter::CorpusMismatched),
        ];
        // The table's half of the property, checked exactly: an attempt
        // is declared above its settlements.
        for (attempt, settle) in ATTEMPT_THEN_SETTLE {
            assert!((attempt as usize) < settle as usize, "{}", settle.name());
        }
        // The snapshot's half, under load. A snapshot sums every live
        // shard: a few hundred idle threads holding one stretch a snapshot
        // to many bumps' time, so a wrong read order shows even where the
        // two threads only interleave by preemption.
        registry::record("test/report/midrun", 1, 1, 0, 0, 0);
        let stop = AtomicBool::new(false);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let gate = std::sync::RwLock::new(());
        let hold = gate.write().unwrap();
        std::thread::scope(|s| {
            // Released when this closure returns or unwinds.
            let _hold = hold;
            let (idle_tx, idle_rx) = std::sync::mpsc::channel();
            for _ in 0..256 {
                let (idle_tx, gate) = (idle_tx.clone(), &gate);
                s.spawn(move || {
                    add(Counter::Flops, 0);
                    idle_tx.send(()).unwrap();
                    drop(gate.read());
                });
            }
            for _ in 0..256 {
                idle_rx.recv().unwrap();
            }
            s.spawn(|| {
                let mut started = Some(started_tx);
                while !stop.load(SeqCst) {
                    for (attempt, settle) in ATTEMPT_THEN_SETTLE {
                        add(attempt, 1);
                        add(settle, 1);
                    }
                    if let Some(tx) = started.take() {
                        tx.send(()).unwrap();
                    }
                }
            });
            started_rx.recv().unwrap();
            for i in 0..1000 {
                let rep = TelemetryReport::from_current();
                assert!(rep.has(Block::Service) && rep.has(Block::Corpus));
                if let Err(e) = rep.validate() {
                    stop.store(true, SeqCst);
                    panic!("snapshot {i} does not validate: {e}");
                }
            }
            stop.store(true, SeqCst);
        });
    }

    #[test]
    fn require_evaluates_blocks_and_thresholds() {
        use RequireError::{Malformed, Unmet};
        let rep = full_report();
        let unmet = |r: &TelemetryReport, e: &str| matches!(r.require(e), Err(Unmet(_)));
        let malformed = |e: &str| matches!(rep.require(e), Err(Malformed(_)));
        // Block presence.
        for b in Block::ALL {
            rep.require(b.key()).unwrap();
            let mut without = rep.clone();
            without.blocks[b as usize] = false;
            assert!(unmet(&without, b.key()));
        }
        // Each operator on both sides of its threshold.
        rep.require("boundary.cache_hits>0").unwrap();
        rep.require("boundary.cache_hits > 1062").unwrap();
        assert!(unmet(&rep, "boundary.cache_hits>1063"));
        rep.require("corpus.mismatched=1").unwrap();
        assert!(unmet(&rep, "corpus.mismatched=0"));
        rep.require("service.admitted<=8").unwrap();
        assert!(unmet(&rep, "service.admitted<=7"));
        rep.require("kernel.sparse_ns=10000000").unwrap();
        // Typed, non-counter fields.
        rep.require("balance.imbalance_ratio<=4.0").unwrap();
        rep.require("balance.imbalance_ratio<=1.5").unwrap();
        assert!(unmet(&rep, "balance.imbalance_ratio<=1.49"));
        // A metric of an absent block is unmet, whatever the comparison.
        let mut without = rep.clone();
        without.blocks[Block::Service as usize] = false;
        without.blocks[Block::Balance as usize] = false;
        assert!(unmet(&without, "service.admitted>0"));
        assert!(unmet(&without, "service.failed=0"));
        assert!(unmet(&without, "balance.imbalance_ratio<=4.0"));
        // Unknown names and malformed expressions are errors, never a pass.
        assert!(malformed("healht"));
        assert!(malformed("health.quarantine>0"));
        assert!(malformed("service.admitted>"));
        assert!(malformed("service.admitted>many"));
        assert!(malformed("service.admitted>=1"));
        assert!(malformed("service.admitted<9"));
        assert!(malformed(">3"));
        assert!(malformed(""));
        // Counters the report does not hold cannot be required of it.
        assert!(malformed("alloc.bytes>0"));
        assert!(malformed("journal.dropped=0"));
    }

    #[test]
    fn balance_block_validation() {
        let _g = crate::recorder::test_lock();
        registry::record("test/report/phase4", 1, 1, 0, 0, 0);
        let mut rep = TelemetryReport::from_current();
        // Absent block parses back absent and validates.
        let back = TelemetryReport::from_json(&rep.to_json()).unwrap();
        assert!(!back.has(Block::Balance));
        back.validate().unwrap();
        // set_balance computes the right ratio and round-trips.
        rep.set_balance(vec![3.0, 1.0], 0.0);
        assert!(rep.has(Block::Balance));
        assert!((rep.balance.imbalance_ratio - 1.5).abs() < 1e-12);
        rep.validate().unwrap();
        assert_eq!(TelemetryReport::from_json(&rep.to_json()).unwrap(), rep);
        // The ratio must agree with the busy-time vector.
        rep.balance.imbalance_ratio = 1.2;
        assert!(rep.validate().is_err());
        // A sub-unity ratio is structurally impossible and rejected.
        rep.balance = BalanceReport {
            rank_busy_ms: vec![],
            imbalance_ratio: 0.5,
            imbalance_before: 0.0,
        };
        assert!(rep.validate().is_err());
    }

    #[test]
    fn from_current_always_carries_health_and_elasticity_blocks() {
        let _g = crate::recorder::test_lock();
        registry::record("test/report/phase3", 1, 1, 0, 0, 0);
        let rep = TelemetryReport::from_current();
        assert!(rep.has(Block::Health));
        assert!(rep.has(Block::Elasticity));
        assert_eq!(TelemetryReport::from_json(&rep.to_json()).unwrap(), rep);
        // A legacy report without the blocks parses them as absent and
        // still validates (requiring them is the caller's policy).
        let mut legacy = rep.clone();
        legacy.blocks[Block::Health as usize] = false;
        legacy.blocks[Block::Elasticity as usize] = false;
        let back = TelemetryReport::from_json(&legacy.to_json()).unwrap();
        assert!(!back.has(Block::Health));
        assert!(!back.has(Block::Elasticity));
        back.validate().unwrap();
    }

    #[test]
    fn validation_rejects_failed_exact_residual() {
        let _g = crate::recorder::test_lock();
        registry::record("test/report/phase2", 1, 1, 0, 0, 0);
        let mut rep = TelemetryReport::from_current();
        rep.residuals
            .push(ModelResidual::new("bad_exact", 100.0, 99.0, true));
        assert!(rep.validate().is_err());
    }

    #[test]
    fn warmup_stats_capture_cold_vs_warm_gap() {
        let mk = |it: usize, wall: f64, alloc: u64| ConvergencePoint {
            iteration: it,
            residual: if it == 0 { None } else { Some(0.1) },
            mixing: 0.5,
            wall_ms: wall,
            current: 0.0,
            alloc_bytes: alloc,
        };
        assert_eq!(WarmupStats::from_convergence(&[mk(0, 10.0, 100)]), None);
        let w = WarmupStats::from_convergence(&[mk(0, 10.0, 1000), mk(1, 2.0, 60), mk(2, 3.0, 40)])
            .unwrap();
        assert_eq!(w.cold_wall_ms, 10.0);
        assert!((w.warm_wall_ms - 2.5).abs() < 1e-12);
        assert!((w.wall_speedup - 4.0).abs() < 1e-12);
        assert_eq!(w.cold_alloc_bytes, 1000);
        assert_eq!(w.warm_alloc_bytes, 50);
        assert!((w.alloc_reduction - 0.95).abs() < 1e-12);
    }

    #[test]
    fn residual_handles_zero_model() {
        let r = ModelResidual::new("zero", 0.0, 0.0, true);
        assert_eq!(r.rel_error, 0.0);
        let r = ModelResidual::new("div", 1.0, 0.0, false);
        assert!(r.rel_error.is_infinite());
    }
}
