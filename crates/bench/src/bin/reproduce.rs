//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p qt-bench --bin reproduce -- all
//! cargo run --release -p qt-bench --bin reproduce -- table4
//! cargo run --release -p qt-bench --bin reproduce -- profile \
//!     --trace out.trace.json --report out.report.json
//! cargo run --release -p qt-bench --bin reproduce -- check-report out.report.json
//! ```
//!
//! Closed-form and model results are produced at the paper's full
//! parameters; timed kernel results run at a reduced scale (documented per
//! section) and report the *shape* (ratios, orderings, crossovers).
//!
//! `profile` runs an instrumented end-to-end pipeline (SCF loop, all three
//! SSE variants, both distributed communication schemes) with telemetry
//! enabled, compares the measured flop and byte counts against the
//! closed-form models, and optionally writes a Chrome/Perfetto trace and a
//! JSON [`qt_telemetry::TelemetryReport`]. `check-report` re-parses and
//! re-validates a previously written report (used by CI).

use qt_bench::cli::{self, Kind};
use qt_bench::{
    bench_params, best_of_alternating_ms, table6_csrgemm, table6_csrmm, table6_dense_mm,
    table6_operands, BenchFixture, ModeledBalance, SkewedBalance,
};
use qt_core::flops;
use qt_core::params::SimParams;
use qt_core::sse::{self, SseVariant};
use qt_dist::volume;
use qt_model::scaling::{self, Variant};
use qt_model::{optimal_tiling, PIZ_DAINT, SUMMIT};
use qt_telemetry::recorder::{self, JOURNAL, SERIES, TRACE};
use qt_telemetry::{counters, Block, Counter};

/// Every heap allocation of this binary flows into the `alloc.bytes` /
/// `alloc.count` telemetry counters, so `profile` can show the
/// cold-vs-warm allocator gap per SCF iteration.
#[global_allocator]
static ALLOC: qt_bench::alloc::CountingAllocator = qt_bench::alloc::CountingAllocator;

const TIB: f64 = (1u64 << 40) as f64;
const PF: f64 = 1e15;

/// Parse a subcommand's arguments against its declared flags; a usage
/// error prints what the subcommand accepts and exits 2.
fn parse_args<'a>(
    sub: &str,
    flags: &'a [cli::Flag],
    positional: &[&str],
    args: &'a [String],
) -> cli::Args<'a> {
    cli::parse(sub, flags, positional, args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// `key value, key value, …` for every counter `rep` carries under
/// `block`, in table order.
fn block_summary(rep: &qt_telemetry::TelemetryReport, block: Block) -> String {
    let parts: Vec<String> = block
        .counters()
        .map(|c| format!("{} {}", c.key(), rep.counter(c)))
        .collect();
    parts.join(", ")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    let rest = args.get(1..).unwrap_or(&[]);
    let tables: [(&str, fn()); 10] = [
        ("table1", table1),
        ("table3", table3),
        ("table4", table4),
        ("table5", table5),
        ("table7", table7),
        ("table8", table8),
        ("fig13", fig13),
        ("fig1d", fig1d),
        ("sdfg", sdfg_figs),
        ("calibrate", calibrate),
    ];
    match which {
        "profile" => profile(rest),
        "check-report" => check_report(rest),
        "balance" => balance(rest),
        "postmortem" => postmortem_cmd(rest),
        "table6" => table6_cmd(rest),
        "serve" => serve_cmd(rest),
        "corpus" => corpus_cmd(rest),
        "all" => {
            parse_args(which, &[], &[], rest);
            for (name, run) in tables {
                run();
                if name == "table5" {
                    table6();
                }
            }
        }
        _ => match tables.iter().find(|(name, _)| *name == which) {
            // These subcommands take no flags; stray arguments are
            // rejected loudly (a typo like `--repotr` must not look like
            // a successful run to CI).
            Some((_, run)) => {
                parse_args(which, &[], &[], rest);
                run();
            }
            None => {
                let names: Vec<&str> = tables.iter().map(|t| t.0).collect();
                eprintln!(
                    "unknown subcommand {which:?} (expected one of: profile, check-report, \
                     balance, postmortem, table6, serve, corpus, all, {})",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        },
    }
}

fn calibrate() {
    println!("== GEMM calibration: achieved throughput per shape class ==");
    let cal = qt_model::calibrate();
    println!(
        "  {:<10} {:>16} | {:>10} {:>10} | {:>8}",
        "class", "shape", "blocked", "naive", "speedup"
    );
    for c in &cal.classes {
        let s = &c.class;
        println!(
            "  {:<10} {:>4}x{:<4}x{:<4}x{:<3} | {:>7.2} GF {:>7.2} GF | {:>7.2}x",
            s.name,
            s.m,
            s.k,
            s.n,
            s.batch,
            c.blocked_flops / 1e9,
            c.naive_flops / 1e9,
            c.speedup()
        );
    }
    // Fold the measurements into an α–β machine model for this host. The
    // peak is a placeholder single-core FP64 estimate; what matters for
    // qt_model::predict is the product peak·eff, which is the measurement.
    let peak = 5.0e10;
    let m = cal.host_machine(peak, &PIZ_DAINT);
    println!(
        "  host machine: eff_gf={:.3} eff_sse={:.3} eff_sse_omen={:.3} (of {:.0} GF/s peak)\n",
        m.eff_gf,
        m.eff_sse,
        m.eff_sse_omen,
        peak / 1e9
    );
}

fn table1() {
    println!("== Table 1: simulation parameters (validated ranges) ==");
    for (name, p) in [
        ("Si 4,864 atoms (Nkz=7)", SimParams::paper_si_4864(7)),
        ("Si 10,240 atoms (Nkz=21)", SimParams::paper_si_10240(21)),
    ] {
        p.validate_paper_ranges().expect("within Table 1 ranges");
        println!(
            "  {name}: NA={} NB={} Norb={} NE={} Nw={} Nkz={} (valid)",
            p.na, p.nb, p.norb, p.ne, p.nw, p.nkz
        );
    }
    println!();
}

fn table3() {
    println!("== Table 3: single-iteration computational load (Pflop) ==");
    println!(
        "  {:<6} | {:>9} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>10} {:>10}",
        "Nkz", "CI", "paper", "RGF", "paper", "SSE(OMEN)", "paper", "SSE(DaCe)", "paper"
    );
    let paper = [
        (3usize, 8.45, 52.95, 24.41, 12.38),
        (5, 14.12, 88.25, 67.80, 34.19),
        (7, 19.77, 123.55, 132.89, 66.85),
        (9, 25.42, 158.85, 219.67, 110.36),
        (11, 31.06, 194.15, 328.15, 164.71),
    ];
    for (nkz, ci, rgf, so, sd) in paper {
        let p = SimParams::paper_si_4864(nkz);
        println!(
            "  {:<6} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>10.2} {:>10.2} | {:>10.2} {:>10.2}",
            nkz,
            flops::contour_flops(&p) / PF,
            ci,
            flops::rgf_flops(&p) / PF,
            rgf,
            flops::sse_omen_flops(&p) / PF,
            so,
            flops::sse_dace_flops(&p) / PF,
            sd
        );
    }
    println!("  (SSE columns: paper's own closed forms; GF columns: calibrated fits)\n");
}

fn table4() {
    println!("== Table 4: weak scaling of SSE communication volume (TiB) ==");
    println!(
        "  {:<4} {:>6} | {:>9} {:>9} | {:>8} {:>8}",
        "Nkz", "procs", "OMEN", "paper", "DaCe", "paper"
    );
    for (nkz, procs, po, pd) in [
        (3usize, 768usize, 32.11, 0.54),
        (5, 1280, 89.18, 1.22),
        (7, 1792, 174.80, 2.17),
        (9, 2304, 288.95, 3.38),
        (11, 2816, 431.65, 4.86),
    ] {
        let p = SimParams::paper_si_4864(nkz);
        println!(
            "  {:<4} {:>6} | {:>9.2} {:>9.2} | {:>8.2} {:>8.2}",
            nkz,
            procs,
            volume::omen_total_bytes(&p, procs) / TIB,
            po,
            volume::dace_total_bytes(&p, nkz, procs / nkz) / TIB,
            pd
        );
    }
    println!();
}

fn table5() {
    println!("== Table 5: strong scaling of SSE communication volume (TiB, Nkz=7) ==");
    println!(
        "  {:>6} | {:>9} {:>9} | {:>8} {:>8}",
        "procs", "OMEN", "paper", "DaCe", "paper"
    );
    let p = SimParams::paper_si_4864(7);
    for (procs, po, pd) in [
        (224usize, 108.24, 0.95),
        (448, 117.75, 1.13),
        (896, 136.76, 1.48),
        (1792, 174.80, 2.17),
        (2688, 212.84, 2.87),
    ] {
        println!(
            "  {:>6} | {:>9.2} {:>9.2} | {:>8.2} {:>8.2}",
            procs,
            volume::omen_total_bytes(&p, procs) / TIB,
            po,
            volume::dace_total_bytes(&p, 7, procs / 7) / TIB,
            pd
        );
    }
    println!();
}

fn table6() {
    println!("== Table 6: sparse vs dense 3-matrix multiplication in RGF ==");
    println!("  (reduced scale: n=256 blocks, ~6% Hamiltonian density; CPU, not P100)");
    let ops = table6_operands(256, 0.06, 11);
    let [dense, csrmm, csrgemm] = best_of_alternating_ms(
        5,
        [
            &|| drop(table6_dense_mm(&ops)),
            &|| drop(table6_csrmm(&ops)),
            &|| drop(table6_csrgemm(&ops)),
        ],
    );
    println!(
        "  {:<10} {:>10} {:>14} {:>14}",
        "approach", "ms", "vs CSRMM", "paper vs CSRMM"
    );
    println!(
        "  {:<10} {:>10.2} {:>13.2}x {:>13.2}x",
        "Dense-MM",
        dense,
        dense / csrmm,
        203.59 / 47.06
    );
    println!(
        "  {:<10} {:>10.2} {:>13.2}x {:>13.2}x",
        "CSRMM", csrmm, 1.0, 1.0
    );
    println!(
        "  {:<10} {:>10.2} {:>13.2}x {:>13.2}x",
        "CSRGEMM",
        csrgemm,
        csrgemm / csrmm,
        93.02 / 47.06
    );
    println!("  (expected ordering: CSRMM fastest, Dense-MM slowest — paper 1.98-4.33x)\n");
}

/// Table 6 for real: sweep full RGF solves across coupling densities with
/// the dense and the CSRMM coupling kernels, and emit `BENCH_table6.json`
/// (CI `table6-regression` job). No gate reads a solve time: every output
/// block of the CSRMM solve must have the dense solve's bits, and the
/// calibrated crossover `d*` (the measured rate ratio at which the two
/// kernels break even) must fall strictly inside the swept densities.
/// Solve times and counted flops are printed and recorded; neither is
/// gated.
fn table6_cmd(flags: &[String]) {
    use qt_core::rgf::{self, MultiplyStrategy};
    use qt_telemetry::json::Json;

    let f = parse_args(
        "table6",
        &[
            ("--out", Kind::Str),
            ("--report", Kind::Str),
            ("--bs", Kind::Int),
            ("--blocks", Kind::Int),
            ("--reps", Kind::Int),
        ],
        &[],
        flags,
    );
    let out_path = f.str("--out").unwrap_or("BENCH_table6.json");
    let report_path = f.str("--report");
    let bs = f.int("--bs").unwrap_or(64);
    let blocks = f.int("--blocks").unwrap_or(16).max(2);
    let reps = f.int("--reps").unwrap_or(7).max(1);

    // The legacy micro-benchmark (single triple product) for continuity
    // with the paper's presentation, then the full-solve sweep.
    table6();

    println!("== Table 6 sweep: sparse vs dense coupling kernels in full RGF ==");
    println!("  ({blocks} blocks of {bs}x{bs}; best of {reps} solves per cell)");
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(JOURNAL, true);

    // The whole comparison runs on ONE thread (`par::sequential`): at this
    // block size the dense GEMMs sit above the parallel threshold while the
    // CSR kernels are serial, so band-split GEMMs would make the sweep
    // measure the machine's core count instead of per-kernel data movement.
    // It also keeps every counted flop on this thread's counter shard.
    use qt_linalg::par;

    // Calibrate machine rates once, on a spawned thread like the solver's
    // workers. The main thread's stack offset is randomized per process,
    // and at a few offsets (likely 4K aliasing between the blocked GEMM's
    // stack and its packed panels) about one process in 25 timed the
    // dense kernel 2.7x slow there, which moved the crossover past the
    // sweep.
    let cal = std::thread::scope(|s| {
        s.spawn(|| par::sequential(|| qt_model::calibrate_kernels(bs, 0.08)))
            .join()
            .expect("kernel calibration")
    });
    let crossover = cal.crossover();
    println!(
        "  calibration: dense {:.2} Gflop/s, sparse {:.2} Gflop/s -> crossover density {:.3}",
        cal.dense_rate / 1e9,
        cal.sparse_rate / 1e9,
        crossover
    );

    let densities = [0.002f64, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7];
    let mut failures: Vec<String> = Vec::new();
    // A crossover outside the sweep would mean one kernel wins at every
    // swept density (and that the calibration, not the kernels, decided
    // the table).
    let (sparsest, densest) = (densities[0], densities[densities.len() - 1]);
    if !(sparsest < crossover && crossover < densest) {
        failures.push(format!(
            "calibrated crossover {crossover:.3} is not strictly inside the swept \
             densities ({sparsest}, {densest})"
        ));
    }
    // The counters each solve records exactly, in the JSON.
    let counted = [Counter::Flops, Counter::KernelSparseFlops];
    println!(
        "  {:<8} {:>9} {:>9} | {:>10} {:>10}",
        "density", "dense ms", "csrmm ms", "dense Gf", "csrmm Gf"
    );
    let mut rows: Vec<Json> = Vec::new();
    par::sequential(|| {
        for (di, &density) in densities.iter().enumerate() {
            let (a, sig) = qt_bench::sparse_rgf_problem(blocks, bs, density, 100 + di as u64);
            let solve = |strategy| {
                let before = counted.map(counters::local);
                let out = rgf::rgf_with(&a, &sig, strategy).expect("rgf");
                let mut counts = counted.map(counters::local);
                for (c, b) in counts.iter_mut().zip(before) {
                    *c -= b;
                }
                (out, counts)
            };
            let (reference, dense_counts) = solve(MultiplyStrategy::Dense);
            let (csrmm, sparse_counts) = solve(MultiplyStrategy::Csrmm);

            // Every output block must have the dense solve's bits: a
            // strategy changes the speed, never the answer.
            if let Some(block) = reference.bit_difference(&csrmm) {
                failures.push(format!(
                    "density {density}: csrmm differs from dense in the bits of {block}"
                ));
            }

            // Timed cells with telemetry off so per-op instrumentation
            // doesn't distort the kernel comparison.
            qt_telemetry::set_enabled(false);
            let dense = || drop(solve(MultiplyStrategy::Dense));
            let sparse = || drop(solve(MultiplyStrategy::Csrmm));
            let [dense_ms, sparse_ms] = best_of_alternating_ms(reps, [&dense, &sparse]);
            qt_telemetry::set_enabled(true);

            println!(
                "  {:<8.3} {:>9.2} {:>9.2} | {:>10.4} {:>10.4}",
                density,
                dense_ms,
                sparse_ms,
                dense_counts[0] as f64 / 1e9,
                sparse_counts[0] as f64 / 1e9,
            );
            let counts_json = |counts: [u64; 2]| {
                let fields = counted.iter().zip(counts);
                Json::Obj(
                    fields
                        .map(|(c, n)| (c.name().to_string(), Json::Num(n as f64)))
                        .collect(),
                )
            };
            rows.push(Json::Obj(vec![
                ("density".to_string(), Json::Num(density)),
                ("dense_ms".to_string(), Json::Num(dense_ms)),
                ("sparse_ms".to_string(), Json::Num(sparse_ms)),
                (
                    "speedup_vs_dense".to_string(),
                    Json::Num(dense_ms / sparse_ms),
                ),
                ("couplings".to_string(), Json::Num((blocks - 1) as f64)),
                ("dense_counts".to_string(), counts_json(dense_counts)),
                ("sparse_counts".to_string(), counts_json(sparse_counts)),
            ]));
        }
    });
    println!("  (Gf = counted Gflop of the solve)");

    let doc = Json::Obj(vec![
        ("block_size".to_string(), Json::Num(bs as f64)),
        ("blocks".to_string(), Json::Num(blocks as f64)),
        ("reps".to_string(), Json::Num(reps as f64)),
        ("dense_rate".to_string(), Json::Num(cal.dense_rate)),
        ("sparse_rate".to_string(), Json::Num(cal.sparse_rate)),
        ("crossover_density".to_string(), Json::Num(crossover)),
        ("rows".to_string(), Json::Arr(rows)),
    ]);
    std::fs::write(out_path, doc.dump()).expect("write table6 json");
    println!("  results written to {out_path}");

    if let Some(path) = report_path {
        let mut rep = qt_telemetry::TelemetryReport::from_current();
        rep.crossover_density = crossover;
        if let Err(e) = rep.validate() {
            eprintln!("table6 report FAILED validation: {e}");
            std::process::exit(1);
        }
        std::fs::write(path, rep.to_json()).expect("write report");
        assert!(rep.has(Block::KernelSelection), "CSRMM solves recorded");
        println!(
            "  report written to {path} (CSR kernels: {:.3} Gflop, {:.1} MB streamed)",
            rep.counter(Counter::KernelSparseFlops) as f64 / 1e9,
            rep.counter(Counter::KernelSparseBytes) as f64 / 1e6
        );
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("table6 FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "  gate OK: output bits kernel-independent, crossover {crossover:.3} inside \
         the swept densities\n"
    );
}

fn table7() {
    println!("== Table 7: single-node runtime by implementation variant ==");
    println!("  (reduced scale: NA=32, NE=32, Norb=4; paper ran 1/112 of NA=4,864)");
    let fx = BenchFixture::new(bench_params());
    let inputs = fx.sse_inputs();
    // GF phase timing (same code for all variants; the paper's GF spread
    // comes from library quality, which does not exist in a single binary).
    let zeros = qt_core::gf::ElectronSelfEnergy::zeros(&fx.p);
    let [gf_ms, t_ref, t_omen, t_dace] = best_of_alternating_ms(
        3,
        [
            &|| {
                let gf = qt_core::gf::electron_gf_phase(
                    &fx.dev, &fx.em, &fx.p, &fx.grids, &zeros, &fx.cfg,
                );
                drop(gf.unwrap())
            },
            &|| drop(sse::sigma(&inputs, SseVariant::Reference)),
            &|| drop(sse::sigma(&inputs, SseVariant::Omen)),
            &|| drop(sse::sigma(&inputs, SseVariant::Dace)),
        ],
    );
    println!("  {:<22} {:>10} {:>12}", "phase/variant", "ms", "vs DaCe");
    println!("  {:<22} {:>10.1} {:>12}", "GF (RGF+boundary)", gf_ms, "-");
    println!(
        "  {:<22} {:>10.1} {:>11.1}x",
        "SSE reference (Python)",
        t_ref,
        t_ref / t_dace
    );
    println!(
        "  {:<22} {:>10.1} {:>11.1}x",
        "SSE OMEN",
        t_omen,
        t_omen / t_dace
    );
    println!("  {:<22} {:>10.1} {:>11.1}x", "SSE DaCe", t_dace, 1.0);
    println!(
        "  paper ratios (vs DaCe): Python 315.7x, OMEN 9.97x — the compiled-vs-\n  \
         interpreted gap shrinks to allocation/batching effects in a single Rust binary\n"
    );
}

fn table8() {
    println!("== Table 8: Summit performance on 10,240 atoms (model) ==");
    println!(
        "  {:<4} {:>6} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8}",
        "Nkz", "nodes", "GF Pf", "paper", "t[s]", "SSE Pf", "paper", "t[s]", "comm[s]", "paper"
    );
    for (nkz, nodes, gf_pf, gf_t, sse_pf, sse_t, comm_t) in [
        (11usize, 1852usize, 2922.0, 75.84, 490.0, 95.46, 44.02),
        (15, 2580, 3985.0, 75.90, 910.0, 116.67, 43.93),
        (21, 1763, 5579.0, 150.38, 1784.0, 346.56, 121.91),
        (21, 3525, 5579.0, 76.09, 1784.0, 175.15, 122.35),
    ] {
        let r = scaling::extreme_run(nkz, nodes, &SUMMIT);
        println!(
            "  {:<4} {:>6} | {:>8.0} {:>8.0} {:>8.1} | {:>8.0} {:>8.0} {:>8.1} | {:>8.1} {:>8.2}",
            nkz,
            nodes,
            r.gf_pflop,
            gf_pf,
            r.gf_time,
            r.sse_pflop,
            sse_pf,
            r.sse_time,
            r.comm_time,
            comm_t
        );
        let _ = (gf_t, sse_t);
    }
    println!("  (GF Pflop: calibrated on the 4,864-atom geometry — magnitude-level)\n");
}

fn fig13() {
    println!("== Fig. 13: strong/weak scaling model ==");
    let p = SimParams::paper_si_4864(7);
    for (m, nodes) in [
        (&PIZ_DAINT, vec![112usize, 224, 448, 896, 1792, 2700, 5400]),
        (&SUMMIT, vec![19, 38, 76, 152, 228]),
    ] {
        println!("  {} strong scaling (NA=4,864, Nkz=7):", m.name);
        println!(
            "    {:>6} {:>7} | {:>10} {:>10} | {:>10} {:>10} | {:>8}",
            "nodes", "GPUs", "OMEN comp", "OMEN comm", "DaCe comp", "DaCe comm", "speedup"
        );
        for &n in &nodes {
            let o = scaling::predict(&p, m, n, Variant::Omen);
            let d = scaling::predict(&p, m, n, Variant::Dace);
            println!(
                "    {:>6} {:>7} | {:>9.1}s {:>9.1}s | {:>9.1}s {:>9.1}s | {:>7.1}x",
                n,
                m.gpus(n),
                o.compute(),
                o.t_comm,
                d.compute(),
                d.t_comm,
                o.total() / d.total()
            );
        }
    }
    println!("  paper headline speedups: 16.3x total / 417x comm (Daint), 24.5x / 79.7x (Summit)");
    // Weak scaling series.
    let base = SimParams::paper_si_4864(3);
    for (m, npk) in [(&PIZ_DAINT, 128usize), (&SUMMIT, 22usize)] {
        println!("  {} weak scaling (nodes ∝ Nkz):", m.name);
        let omen = scaling::weak_scaling(&base, m, &[3, 5, 7, 9, 11], npk, Variant::Omen);
        let dace = scaling::weak_scaling(&base, m, &[3, 5, 7, 9, 11], npk, Variant::Dace);
        for (o, d) in omen.iter().zip(&dace) {
            println!(
                "    Nkz={:<2} nodes={:<5} OMEN {:>9.1}s  DaCe {:>8.1}s  ({:>5.1}x)",
                o.0,
                o.1.nodes,
                o.1.times.total(),
                d.1.times.total(),
                o.1.times.total() / d.1.times.total()
            );
        }
    }
    // Tiling the model picked at one configuration.
    if let Some(t) = optimal_tiling(&p, 1792) {
        println!(
            "  optimal tiling at P=1792: TE={}, TA={} ({:.2} TiB — Table 5's tiling)",
            t.te,
            t.ta,
            t.total_bytes / TIB
        );
    }
    println!();
}

fn fig1d() {
    println!("== Fig. 1(d): atomically-resolved self-heating (reduced scale) ==");
    use qt_core::scf::{run_scf, ScfConfig, Simulation};
    let p = SimParams {
        nkz: 3,
        nqz: 3,
        ne: 24,
        nw: 4,
        na: 48,
        nb: 4,
        norb: 2,
        bnum: 12,
    };
    let sim = Simulation::new(p, -1.2, 1.2);
    let mut cfg = ScfConfig {
        max_iterations: 30,
        tolerance: 1e-6,
        ..Default::default()
    };
    cfg.gf.contacts.mu_left = 0.35;
    cfg.gf.contacts.mu_right = -0.35;
    let out = run_scf(&sim, &cfg).expect("SCF");
    let power = qt_core::observables::dissipated_power_per_atom(
        &sim.p,
        &sim.grids,
        &out.sigma,
        &out.electron,
    );
    let temp = qt_core::observables::temperature_map(&power, 300.0, 100.0);
    let apb = sim.dev.atoms_per_slab;
    print!("  slab <T>[K]:");
    for s in 0..p.bnum {
        let t: f64 = (s * apb..(s + 1) * apb).map(|a| temp[a]).sum::<f64>() / apb as f64;
        print!(" {t:.0}");
    }
    println!(
        "\n  converged={} iters={} I={:.4}  (non-uniform heating profile reproduced)\n",
        out.converged,
        out.iterations,
        out.current_history.last().unwrap()
    );
}

/// End-to-end instrumented run: SCF with the DaCe SSE kernel, one pass of
/// the OMEN and reference kernels, and both distributed communication
/// schemes — all with telemetry enabled — followed by a
/// measured-vs-model reconciliation (Tables 3–5) and optional trace/report
/// export.
fn profile(flags: &[String]) {
    use qt_core::checkpoint::{CheckpointConfig, ScfCheckpoint};
    use qt_core::scf::{run_scf_with, ScfConfig, ScfOptions, Simulation};
    use qt_telemetry::report::{ConvergencePoint, ModelResidual, RankComm};

    let f = parse_args(
        "profile",
        &[
            ("--trace", Kind::Str),
            ("--report", Kind::Str),
            ("--checkpoint", Kind::Str),
            ("--resume", Kind::Str),
            ("--metrics-out", Kind::Str),
            ("--postmortem", Kind::Str),
            ("--chaos-kill", Kind::Int),
        ],
        &[],
        flags,
    );
    let trace_path = f.str("--trace");
    let report_path = f.str("--report");
    let checkpoint_path = f.str("--checkpoint");
    let resume_path = f.str("--resume");
    let metrics_path = f.str("--metrics-out");
    let mut postmortem_path = f.str("--postmortem");
    let chaos_kill = f.int("--chaos-kill");
    // The distributed pass runs on a fixed TE × TA world; a victim outside
    // it is a usage error, caught before any work runs.
    let (te, ta) = (2usize, 2usize);
    if let Some(victim) = chaos_kill.filter(|&v| v >= te * ta) {
        eprintln!(
            "profile: --chaos-kill {victim} is outside the world of {} ranks (0..{})",
            te * ta,
            te * ta - 1
        );
        std::process::exit(2);
    }
    if chaos_kill.is_some() && postmortem_path.is_none() {
        postmortem_path = Some("POSTMORTEM.json");
    }

    println!("== profile: instrumented end-to-end pipeline ==");
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(TRACE, trace_path.is_some());
    // The flight recorder and the metrics time-series ride every profile
    // run: both record into bounded lanes and leave the observables
    // bitwise identical.
    recorder::switch(JOURNAL | SERIES, true);
    if let Some(path) = postmortem_path {
        qt_telemetry::postmortem::install_panic_hook(std::path::PathBuf::from(path));
    }

    // Laptop-sized structure-preserving configuration: every phase of the
    // full pipeline runs, every closed-form model stays exact.
    let p = SimParams {
        nkz: 2,
        nqz: 2,
        ne: 24,
        nw: 3,
        na: 12,
        nb: 3,
        norb: 2,
        bnum: 4,
    };
    let sim = Simulation::new(p, -1.2, 1.2);
    let cfg = ScfConfig {
        max_iterations: 4,
        ..Default::default()
    };
    let ckpt_cfg = checkpoint_path.as_ref().map(|path| CheckpointConfig {
        path: path.into(),
        every: 1,
    });
    let resume = resume_path.as_ref().map(|path| {
        let ck = ScfCheckpoint::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot load checkpoint {path}: {e}");
            std::process::exit(1);
        });
        println!("  resuming SCF from {path} at iteration {}", ck.iteration);
        ck
    });
    let opts = ScfOptions {
        ckpt: ckpt_cfg.as_ref(),
        resume,
        ..Default::default()
    };
    let out = run_scf_with(&sim, &cfg, opts).expect("SCF");
    println!(
        "  SCF: {} iterations, converged={}, I={:.4e}",
        out.iterations,
        out.converged,
        out.current_history.last().copied().unwrap_or(0.0)
    );
    if let Some(c) = &ckpt_cfg {
        println!("  checkpoints written to {}", c.path.display());
    }

    // One pass of the other two SSE variants so all three kernels appear
    // in the phase table and the OMEN flop model can be reconciled.
    let (dl, dg) = qt_core::sse::preprocess_d(&sim.dev, &p, &out.phonon);
    let inputs = sse::SseInputs {
        dev: &sim.dev,
        p: &p,
        grids: &sim.grids,
        dh: &sim.dh,
        g_lesser: &out.electron.g_lesser,
        g_greater: &out.electron.g_greater,
        d_lesser_pre: &dl,
        d_greater_pre: &dg,
    };
    let _ = sse::sigma(&inputs, SseVariant::Omen);
    let _ = sse::sigma(&inputs, SseVariant::Reference);

    // Both distributed SSE schemes, with per-rank byte accounting. One
    // Born iteration of the distributed loop on the full world is the
    // paper's CA scheme: its bytes feed both exact volume models below,
    // and its heartbeat supervision exercises the elasticity counters in
    // every profile run. Its GF phases read the boundary cache the SCF run
    // warmed: one hit per (kz, E) and (qz, ω) point, no miss.
    let omen_procs = 4;
    let (_, _, omen_stats) = qt_dist::schemes::omen_scheme(&inputs, omen_procs);
    let full_world = qt_dist::ElasticTiling::new(&p, te, ta);
    let one = ScfConfig {
        max_iterations: 1,
        ..cfg
    };
    let cache = || [Counter::BoundaryCacheHits, Counter::BoundaryCacheMisses].map(counters::local);
    let dist_run = |policy| {
        let mut body = qt_dist::DistSse::new(full_world.clone(), policy);
        let [hits0, misses0] = cache();
        let opts = ScfOptions {
            sse: Some(&mut body),
            ..Default::default()
        };
        let done = run_scf_with(&sim, &one, opts);
        let [hits, misses] = cache();
        let (hits, misses) = (hits - hits0, misses - misses0);
        let points = (p.nkz * p.ne + p.nqz * p.nw) as u64;
        if (hits, misses) != (points, 0) {
            eprintln!(
                "profile FAILED: the distributed iteration read the boundary cache \
                 {hits} times with {misses} misses, not {points} warm hits"
            );
            std::process::exit(1);
        }
        (body, done)
    };
    let (body, done) = dist_run(qt_dist::ElasticPolicy::default());
    done.expect("distributed iteration");
    let dist = body.comm;

    // Scheduled chaos: kill the requested rank on its third SSE send and
    // let the elastic supervisor ride the recovery. The flight recorder
    // captures the HeartbeatTimeout -> RankDeath -> Retile chain, which
    // lands in the postmortem dump below. A death the supervisor does not
    // recover ends the iteration in `RankLoss`.
    let chaos_outcome = chaos_kill.map(|victim| {
        use qt_core::health::NumericalError;
        use qt_core::scf::ScfError;
        let procs = te * ta;
        println!("  chaos: killing rank {victim} (world {procs}) mid-iteration");
        let policy = qt_dist::ElasticPolicy {
            max_bad_fraction: 1.0 / procs as f64,
            faults: Some(qt_dist::fault::FaultPlan::default().with_kill_at(victim, 3)),
            ..Default::default()
        };
        let migrated0 = counters::local(Counter::ElasticMigratedTiles);
        let (body, done) = dist_run(policy);
        let migrated = counters::local(Counter::ElasticMigratedTiles) - migrated0;
        let rank_loss = match done {
            Ok(_) => false,
            Err(ScfError::Numerical(NumericalError::RankLoss { .. })) => true,
            Err(e) => panic!("elastic recovery from the scheduled kill: {e}"),
        };
        println!(
            "  chaos: deaths={:?} retiles={} migrated={migrated} rank_loss={rank_loss}",
            body.deaths, body.retiles
        );
        (body, migrated, rank_loss)
    });

    // ---- Reconcile measurements against the models. ----
    let mut rep = qt_telemetry::TelemetryReport::from_current();
    let stat = |path: &str| qt_telemetry::registry::phase(path).unwrap_or_default();

    // Flops: implementation-exact forms (residual must vanish) and the
    // paper's Table 3 asymptotics (informational at reduced scale).
    let dace_stat = stat("sse/sigma/dace");
    let omen_stat = stat("sse/sigma/omen");
    let dace_exact = flops::sse_dace_flops_exact(&p, &sim.dev) as f64;
    let omen_exact = flops::sse_omen_flops_exact(&p, &sim.dev) as f64;
    rep.residuals.push(ModelResidual::new(
        "sse_dace_flops_vs_exact",
        dace_stat.flops as f64,
        dace_stat.calls as f64 * dace_exact,
        true,
    ));
    rep.residuals.push(ModelResidual::new(
        "sse_omen_flops_vs_exact",
        omen_stat.flops as f64,
        omen_stat.calls as f64 * omen_exact,
        true,
    ));
    rep.residuals.push(ModelResidual::new(
        "sse_dace_flops_vs_table3",
        dace_stat.flops as f64 / dace_stat.calls.max(1) as f64,
        flops::sse_dace_flops(&p),
        false,
    ));
    rep.residuals.push(ModelResidual::new(
        "sse_omen_flops_vs_table3",
        omen_stat.flops as f64 / omen_stat.calls.max(1) as f64,
        flops::sse_omen_flops(&p),
        false,
    ));

    // Communication volume: the per-scheme exact closed forms (Table 4/5
    // machinery evaluated on the real decomposition) and the asymptotics.
    let halo = sim.dev.max_neighbor_index_distance();
    rep.residuals.push(ModelResidual::new(
        "omen_comm_bytes_vs_exact",
        omen_stats.world_bytes as f64,
        volume::omen_measured_bytes(&p, omen_procs) as f64,
        true,
    ));
    rep.residuals.push(ModelResidual::new(
        "dace_comm_bytes_vs_exact",
        dist.world_bytes as f64,
        volume::dace_measured_bytes(&p, te, ta, halo) as f64,
        true,
    ));
    rep.residuals.push(ModelResidual::new(
        "dace_elastic_comm_bytes_vs_exact",
        dist.world_bytes as f64,
        volume::dace_elastic_measured_bytes(&p, halo, &full_world) as f64,
        true,
    ));
    rep.residuals.push(ModelResidual::new(
        "omen_comm_bytes_vs_table45",
        omen_stats.world_bytes as f64,
        volume::omen_total_bytes(&p, omen_procs),
        false,
    ));
    rep.residuals.push(ModelResidual::new(
        "dace_comm_bytes_vs_table45",
        dist.world_bytes as f64,
        volume::dace_total_bytes(&p, te, ta),
        false,
    ));

    // Convergence trajectory and per-rank communication volumes.
    for r in &out.trajectory {
        rep.convergence.push(ConvergencePoint {
            iteration: r.iteration,
            residual: r.residual,
            mixing: r.mixing,
            wall_ms: r.wall_seconds * 1e3,
            current: r.current,
            alloc_bytes: r.alloc_bytes,
        });
    }
    rep.warmup = qt_telemetry::report::WarmupStats::from_convergence(&rep.convergence);
    for (rank, (&sent, &recv)) in dist.rank_sent.iter().zip(&dist.rank_recv).enumerate() {
        rep.comm.push(RankComm {
            rank,
            sent_bytes: sent,
            recv_bytes: recv,
        });
    }
    // Per-rank busy times of the distributed iteration → the report's
    // balance block (CI gates on `balance.imbalance_ratio`).
    let busy = dist
        .balance
        .as_ref()
        .expect("the CA exchange measures balance");
    rep.set_balance(
        busy.rank_busy_secs.iter().map(|s| s * 1e3).collect(),
        busy.imbalance_ratio(),
    );

    if let Err(e) = rep.validate() {
        eprintln!("profile report FAILED validation: {e}");
        std::process::exit(1);
    }

    // ---- Human-readable summary. ----
    println!(
        "  {:<22} {:>6} {:>10} {:>10} {:>9} {:>12}",
        "phase", "calls", "wall ms", "Gflop", "GF/s", "bytes"
    );
    let mut phases = rep.phases.clone();
    phases.sort_by(|a, b| b.wall_ms.partial_cmp(&a.wall_ms).unwrap());
    for ph in &phases {
        println!(
            "  {:<22} {:>6} {:>10.2} {:>10.3} {:>9.2} {:>12}",
            ph.path, ph.calls, ph.wall_ms, ph.gflop, ph.gflop_per_s, ph.bytes
        );
    }
    println!(
        "  {:<28} {:>14} {:>14} {:>11}",
        "residual", "measured", "model", "rel err"
    );
    for r in &rep.residuals {
        println!(
            "  {:<28} {:>14.4e} {:>14.4e} {:>10.2e}{}",
            r.name,
            r.measured,
            r.model,
            r.rel_error,
            if r.exact { " (exact)" } else { "" }
        );
    }
    // Per-iteration allocator traffic: the cold-vs-warm gap is the payoff
    // of the workspace arenas and the boundary cache.
    println!(
        "  {:<6} {:>10} {:>14} {:>10} {:>10}",
        "iter", "wall ms", "alloc bytes", "ws miss", "bc miss"
    );
    for r in &out.trajectory {
        println!(
            "  {:<6} {:>10.2} {:>14} {:>10} {:>10}",
            r.iteration,
            r.wall_seconds * 1e3,
            r.alloc_bytes,
            r.ws_fresh,
            r.boundary_misses
        );
    }
    if let Some(w) = &rep.warmup {
        println!(
            "  warmup: cold {:.2} ms / warm {:.2} ms ({:.2}x), alloc {} -> {} bytes ({:.1}% reduction)",
            w.cold_wall_ms,
            w.warm_wall_ms,
            w.wall_speedup,
            w.cold_alloc_bytes,
            w.warm_alloc_bytes,
            100.0 * w.alloc_reduction
        );
    }
    println!(
        "  boundary cache: {} hits, {} misses",
        rep.counter(Counter::BoundaryCacheHits),
        rep.counter(Counter::BoundaryCacheMisses)
    );
    for block in [Block::Health, Block::Elasticity] {
        if rep.has(block) {
            println!("  {}: {}", block.key(), block_summary(&rep, block));
        }
    }
    if rep.has(Block::Balance) {
        println!("  {:<6} {:>14}", "rank", "busy ms");
        for (rank, ms) in rep.balance.rank_busy_ms.iter().enumerate() {
            println!("  {rank:<6} {ms:>14.3}");
        }
        println!(
            "  imbalance ratio (max/mean busy): {:.3} — {}",
            rep.balance.imbalance_ratio,
            block_summary(&rep, Block::Balance)
        );
    }
    println!(
        "  totals: {:.3} Gflop counted, {} bytes communicated",
        rep.counter(Counter::Flops) as f64 / 1e9,
        rep.counter(Counter::Bytes)
    );

    if let Some(j) = &rep.journal {
        let top: Vec<String> = j
            .by_kind
            .iter()
            .map(|(tag, n)| format!("{tag}:{n}"))
            .collect();
        println!(
            "  journal: {} events recorded, {} dropped [{}]",
            j.events,
            j.dropped,
            top.join(" ")
        );
    }
    if let Some(s) = &rep.series {
        println!(
            "  series: {} samples, {} dropped",
            s.samples.len(),
            s.dropped
        );
    }

    if let Some(path) = report_path {
        std::fs::write(path, rep.to_json()).expect("write report");
        println!("  report written to {path}");
    }
    if let Some(path) = metrics_path {
        std::fs::write(path, qt_telemetry::series::render_prometheus()).expect("write metrics");
        println!("  metrics written to {path}");
    }
    if let Some(path) = trace_path {
        let trace = qt_telemetry::export_chrome_trace();
        let events = match qt_telemetry::trace::validate_chrome_trace(&trace) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("trace validation FAILED: {e}");
                std::process::exit(2);
            }
        };
        std::fs::write(path, trace).expect("write trace");
        println!("  trace written to {path} ({events} events)");
    }
    // Postmortem: a supervisor-observed rank death, recovered or not,
    // drains the flight recorder into a versioned dump with the final
    // report snapshot attached.
    if let Some((body, migrated, rank_loss)) = &chaos_outcome {
        if !body.deaths.is_empty() || *rank_loss {
            let path = postmortem_path.unwrap_or("POSTMORTEM.json");
            let reason = if *rank_loss {
                "rank_loss"
            } else {
                "rank_death"
            };
            let detail = format!(
                "deaths={:?} retiles={} migrated_units={migrated}",
                body.deaths, body.retiles
            );
            let pm = qt_telemetry::Postmortem::capture(reason, &detail, Some(rep.clone()));
            pm.save(std::path::Path::new(path))
                .expect("write postmortem");
            println!("  postmortem written to {path}");
        }
    }
    println!();
}

/// Pretty-print the causal timeline of a postmortem dump written by a
/// crashed or chaos-injected `profile` run, classifying unreadable files
/// with a typed error. Exit 0 on a readable dump, 1 on a bad one.
fn postmortem_cmd(flags: &[String]) {
    let f = parse_args("postmortem", &[], &["<POSTMORTEM.json>"], flags);
    let path = f.positional(0);
    let pm = match qt_telemetry::Postmortem::load(std::path::Path::new(path)) {
        Ok(pm) => pm,
        Err(e) => {
            eprintln!("cannot read postmortem {path}: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", pm.timeline());
    if let Some(rep) = &pm.report {
        match rep.validate() {
            Ok(()) => println!("embedded report: valid"),
            Err(e) => {
                eprintln!("embedded report FAILED validation: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Tentpole driver (CI `serve-smoke` job): bring up the qt-serve daemon,
/// push bias sweeps through its admission path, and gate the robustness
/// story in-binary:
///
/// 1. every admitted request is answered (no hangs, no lost responses);
/// 2. a chaos rank kill mid-service leaves the sweep bitwise identical
///    to the fault-free reference (recovery never changes answers);
/// 3. an induced warm-start divergence degrades to the cold solve —
///    journaled, counted, and bitwise equal to a never-warmed reference;
/// 4. a deadlined request is cancelled cooperatively instead of hanging,
///    overrunning its budget by at most ~one solve;
/// 5. concurrent requests share the variant's warm state across the
///    worker pool.
fn serve_cmd(flags: &[String]) {
    use qt_core::scf::ScfConfig;
    use qt_serve::{ServeConfig, Service, SweepRequest, SweepStatus, VariantSpec};
    use std::time::{Duration, Instant};

    let f = parse_args(
        "serve",
        &[
            ("--points", Kind::Int),
            ("--world", Kind::Int),
            ("--chaos-kill", Kind::Int),
            ("--diverge-point", Kind::Int),
            ("--report", Kind::Str),
            ("--postmortem", Kind::Str),
        ],
        &[],
        flags,
    );
    let points = f.int("--points").unwrap_or(12).max(2);
    let world = f.int("--world").unwrap_or(4).max(1);
    let chaos_kill = f.int("--chaos-kill");
    let diverge_point = f.int("--diverge-point");
    let report_path = f.str("--report");
    let postmortem_path = f.str("--postmortem");

    println!("== serve: fault-tolerant batched sweep service ==");
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(JOURNAL, true);

    // Laptop-sized variant; the sweep spans a low-bias IV window.
    let variant = || VariantSpec {
        params: SimParams {
            nkz: 2,
            nqz: 2,
            ne: 10,
            nw: 2,
            na: 8,
            nb: 3,
            norb: 2,
            bnum: 4,
        },
        emin: -1.2,
        emax: 1.2,
        cfg: ScfConfig {
            max_iterations: 40,
            tolerance: 1e-7,
            ..Default::default()
        },
    };
    let fresh = |world: usize| {
        Service::start(
            vec![variant()],
            ServeConfig {
                workers: 2,
                pool_slots: world,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("serve FAILED: variant registration rejected: {e}");
            std::process::exit(1);
        })
    };
    let biases: Vec<f64> = (0..points).map(|i| 0.05 + 0.01 * i as f64).collect();
    let wait = Duration::from_secs(600);
    let completed = |status: SweepStatus, what: &str| -> Vec<qt_serve::PointResult> {
        match status {
            SweepStatus::Completed { points } => points,
            other => {
                eprintln!("serve FAILED: {what} did not complete: {other:?}");
                std::process::exit(1);
            }
        }
    };

    // ---- Gate 1: fault-free reference sweep, every response arrives. ----
    let t0 = Instant::now();
    let reference = {
        let svc = fresh(world);
        let t = svc
            .submit(SweepRequest::new(0, biases.clone()))
            .expect("admit reference sweep");
        let resp = t.wait_timeout(wait).unwrap_or_else(|| {
            eprintln!("serve FAILED: reference sweep unanswered after {wait:?}");
            std::process::exit(1);
        });
        svc.shutdown();
        completed(resp.status, "reference sweep")
    };
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    // The per-point cost that sizes gate 4's deadline: the faster of this
    // sweep and gate 2's repeat of it. The first sweep of the process also
    // pays its warm-up, which at a few accelerated points is a large share
    // of the sweep.
    let mut per_point = Duration::from_secs_f64(t0.elapsed().as_secs_f64() / points as f64);
    println!(
        "  {:<8} {:>12} {:>6} {:>6} {:>9}",
        "bias V", "current", "iters", "warm", "degraded"
    );
    for p in &reference {
        println!(
            "  {:<8.3} {:>12.4e} {:>6} {:>6} {:>9}",
            p.bias, p.current, p.iterations, p.warm_started, p.degraded_to_cold
        );
    }
    println!("  reference: {points} points in {ref_ms:.0} ms, all answered");

    // ---- Gate 1b: the Anderson-accelerated served answers agree with
    // linear cold solves, in fewer iterations. ----
    {
        let spec = variant();
        let sim = qt_core::scf::Simulation::new(spec.params, spec.emin, spec.emax);
        let bound = 100.0 * spec.cfg.tolerance;
        let (mut worst, mut linear_iters) = (0.0f64, 0usize);
        for p in &reference {
            let mut cfg = spec.cfg;
            cfg.gf.contacts.mu_left = p.bias / 2.0;
            cfg.gf.contacts.mu_right = -p.bias / 2.0;
            let cold = qt_core::scf::run_scf(&sim, &cfg).unwrap_or_else(|e| {
                eprintln!("serve FAILED: linear cold solve at {} V: {e}", p.bias);
                std::process::exit(1);
            });
            if !cold.converged {
                eprintln!(
                    "serve FAILED: linear cold solve at {} V did not converge",
                    p.bias
                );
                std::process::exit(1);
            }
            let linear = *cold.current_history.last().expect("at least one iteration");
            let diff = (p.current - linear).abs() / linear.abs();
            if diff.is_nan() || diff > worst {
                worst = diff;
            }
            linear_iters += cold.iterations;
        }
        let mean = |total: usize| total as f64 / reference.len() as f64;
        let served_iters: usize = reference.iter().map(|p| p.iterations).sum();
        println!(
            "  accelerated: worst relative difference to linear cold solves {worst:.2e} \
             (bound {bound:.0e}); mean iterations per point {:.2} linear vs {:.2} served",
            mean(linear_iters),
            mean(served_iters)
        );
        if worst.is_nan() || worst > bound {
            eprintln!(
                "serve FAILED: served currents differ from linear cold solves by {worst:e} \
                 (bound {bound:e})"
            );
            std::process::exit(1);
        }
        if served_iters >= linear_iters {
            eprintln!(
                "serve FAILED: served points took {served_iters} iterations, linear cold \
                 solves {linear_iters}: the served path is not faster"
            );
            std::process::exit(1);
        }
    }

    // ---- Gate 2: rank kill mid-service is bitwise invisible. ----
    {
        let svc = fresh(world);
        let req = SweepRequest {
            chaos_kill_rank: chaos_kill,
            ..SweepRequest::new(0, biases.clone())
        };
        let t_submit = Instant::now();
        let t = svc.submit(req).expect("admit chaos sweep");
        let resp = t.wait_timeout(wait).unwrap_or_else(|| {
            eprintln!("serve FAILED: chaos sweep unanswered after {wait:?}");
            std::process::exit(1);
        });
        per_point = per_point.min(t_submit.elapsed() / points as u32);
        let chaos = completed(resp.status, "chaos sweep");
        let retired = world - svc.pool().capacity();
        for (a, b) in reference.iter().zip(&chaos) {
            if a.current.to_bits() != b.current.to_bits() {
                eprintln!(
                    "serve FAILED: chaos sweep diverged at bias {} V: {:e} vs {:e}",
                    a.bias, a.current, b.current
                );
                std::process::exit(1);
            }
        }
        match chaos_kill {
            Some(victim) => {
                if retired == 0 {
                    eprintln!("serve FAILED: chaos kill of rank {victim} retired no pool slots");
                    std::process::exit(1);
                }
                println!(
                    "  chaos: rank {victim} killed, {retired} slot(s) retired from the pool, \
                     sweep bitwise identical to fault-free reference"
                );
                // The rank death is a reportable incident: drain the flight
                // recorder into a postmortem for the CI artifact.
                let path = postmortem_path.unwrap_or("POSTMORTEM.json");
                let pm = qt_telemetry::Postmortem::capture(
                    "rank_death",
                    &format!("serve chaos probe: victim={victim} retired={retired} world={world}"),
                    Some(qt_telemetry::TelemetryReport::from_current()),
                );
                pm.save(std::path::Path::new(path))
                    .expect("write postmortem");
                println!("  postmortem written to {path}");
            }
            None => println!("  repeat sweep bitwise identical to reference (determinism gate)"),
        }
        svc.shutdown();
    }

    // ---- Gate 3: induced divergence degrades to the cold answer. ----
    if let Some(idx) = diverge_point {
        let idx = idx.clamp(1, points - 1); // point 0 has no warm neighbor
        let cold_ref = {
            let svc = fresh(world);
            let t = svc
                .submit(SweepRequest::new(0, vec![biases[idx]]))
                .expect("admit cold reference");
            let resp = t.wait_timeout(wait).expect("cold reference answered");
            svc.shutdown();
            completed(resp.status, "cold reference")[0].clone()
        };
        let svc = fresh(world);
        let req = SweepRequest {
            poison_warm_point: Some(idx),
            ..SweepRequest::new(0, biases.clone())
        };
        let t = svc.submit(req).expect("admit divergence sweep");
        let resp = t.wait_timeout(wait).expect("divergence sweep answered");
        svc.shutdown();
        let pts = completed(resp.status, "divergence sweep");
        let degraded = &pts[idx];
        if !(degraded.warm_started && degraded.degraded_to_cold && degraded.converged) {
            eprintln!(
                "serve FAILED: poisoned point {idx} did not take the degradation path \
                 (warm_started={} degraded={} converged={})",
                degraded.warm_started, degraded.degraded_to_cold, degraded.converged
            );
            std::process::exit(1);
        }
        if degraded.current.to_bits() != cold_ref.current.to_bits() {
            eprintln!(
                "serve FAILED: degraded point {idx} answer {:e} differs from the cold \
                 reference {:e}",
                degraded.current, cold_ref.current
            );
            std::process::exit(1);
        }
        let events = qt_telemetry::journal::drain();
        let journaled = events.iter().any(|e| {
            matches!(
                e.kind,
                qt_telemetry::EventKind::WarmFallback { point, .. } if point == idx as u64
            )
        });
        if !journaled || counters::total(Counter::ServiceWarmFallbacks) == 0 {
            eprintln!("serve FAILED: warm-start degradation was not journaled/counted");
            std::process::exit(1);
        }
        println!(
            "  divergence: poisoned point {idx} fell back to cold solve, answer bitwise \
             equal to cold reference, degradation journaled"
        );
    }

    // ---- Gates 4+5: deadlines cancel cooperatively; concurrent requests
    // share warm state. ----
    {
        let svc = fresh(world);
        let deadline = per_point.mul_f64(1.5).max(Duration::from_millis(5));
        let t0 = Instant::now();
        let t = svc
            .submit(SweepRequest {
                deadline: Some(deadline),
                ..SweepRequest::new(0, biases.clone())
            })
            .expect("admit deadlined sweep");
        let resp = t.wait_timeout(wait).unwrap_or_else(|| {
            eprintln!("serve FAILED: deadlined sweep unanswered (hang) after {wait:?}");
            std::process::exit(1);
        });
        let elapsed = t0.elapsed();
        let overrun_budget = deadline + per_point.mul_f64(5.0) + Duration::from_secs(1);
        match resp.status {
            SweepStatus::DeadlineExpired { completed } => {
                if elapsed > overrun_budget {
                    eprintln!(
                        "serve FAILED: deadline {deadline:?} overran to {elapsed:?} \
                         (budget {overrun_budget:?} ≈ deadline + one solve + slack)"
                    );
                    std::process::exit(1);
                }
                println!(
                    "  deadline: {deadline:?} budget cancelled the sweep after {} of \
                     {points} points in {:.0} ms (cooperative, bounded overrun)",
                    completed.len(),
                    elapsed.as_secs_f64() * 1e3
                );
            }
            other => {
                eprintln!("serve FAILED: deadlined sweep returned {other:?}");
                std::process::exit(1);
            }
        }

        // Concurrent burst: admitted requests batch onto the shared pool
        // and reuse the variant's warm store across requests. Up to three
        // two-point sweeps, as many as the bias list holds.
        let tickets: Vec<_> = biases
            .windows(2)
            .take(3)
            .map(|b| {
                svc.submit(SweepRequest::new(0, b.to_vec()))
                    .expect("admit burst")
            })
            .collect();
        let burst = tickets.len();
        let mut warm_points = 0usize;
        for t in tickets {
            let resp = t.wait_timeout(wait).unwrap_or_else(|| {
                eprintln!("serve FAILED: burst request unanswered after {wait:?}");
                std::process::exit(1);
            });
            warm_points += completed(resp.status, "burst sweep")
                .iter()
                .filter(|p| p.warm_started)
                .count();
        }
        if warm_points == 0 {
            eprintln!("serve FAILED: no burst point reused warm state across requests");
            std::process::exit(1);
        }
        println!("  burst: {burst} concurrent sweeps answered, {warm_points} points warm-started");
        svc.shutdown();
    }

    // ---- Report with the service block (CI requires `service.admitted>0`). ----
    let rep = qt_telemetry::TelemetryReport::from_current();
    if let Err(e) = rep.validate() {
        eprintln!("serve report FAILED validation: {e}");
        std::process::exit(1);
    }
    if !rep.has(Block::Service) {
        eprintln!("serve FAILED: report is missing the service block");
        std::process::exit(1);
    }
    println!("  service: {}", block_summary(&rep, Block::Service));
    if let Some(path) = report_path {
        std::fs::write(path, rep.to_json()).expect("write report");
        println!("  report written to {path}");
    }
    println!("  serve: all gates passed\n");
}

/// One world size of the skewed-device balance scenario.
struct WorldBalance {
    world: usize,
    units: usize,
    /// The cost model's verdict on the two starting tilings: the gate.
    modeled: ModeledBalance,
    /// Critical path (max per-rank busy thread CPU time) and busy-time
    /// imbalance of the uniform tiling's one exchange (static) and of the
    /// weighted start's last exchange (adaptive): printed, not gated.
    static_path_ms: f64,
    adaptive_path_ms: f64,
    imbalance_before: f64,
    imbalance_after: f64,
    moved_units: usize,
}

impl WorldBalance {
    fn improvement(&self) -> f64 {
        self.imbalance_before / self.imbalance_after.max(1.0)
    }
}

/// Run the skewed scenario ([`SkewedBalance`]) at one world size on the
/// distributed Born loop: static (one exchange on the uniform tiling, so
/// no re-tile precedes it) vs adaptive (cost-model-weighted start, re-tiled
/// by the loop from measured costs), with the adaptive run's `iters` Born
/// iterates checked bitwise against a uniform-start run of the same length.
fn balance_world(world: usize, iters: usize) -> WorldBalance {
    use qt_core::hamiltonian::{ElectronModel, PhononModel};
    use qt_core::scf::{run_scf_with, ScfConfig, ScfOptions, ScfResult, Simulation};
    use qt_dist::{DistSse, ElasticPolicy, ElasticTiling};

    let s = SkewedBalance::new(world);
    let cm = s.cost_map();
    let (uniform, weighted) = (s.uniform_tiling(), s.weighted_tiling(&cm));
    let modeled = ModeledBalance::of(&cm, &uniform, &weighted);
    let em = ElectronModel::for_params(&s.p);
    let sim = Simulation::from_parts(s.p, s.dev, em, PhononModel::default(), -1.2, 1.2)
        .expect("skewed device");
    let run = |tiling: ElasticTiling, iterations: usize| -> (ScfResult, DistSse) {
        let mut body = DistSse::new(tiling, ElasticPolicy::default());
        let cfg = ScfConfig {
            max_iterations: iterations,
            tolerance: 0.0,
            ..Default::default()
        };
        let opts = ScfOptions {
            sse: Some(&mut body),
            ..Default::default()
        };
        let out = run_scf_with(&sim, &cfg, opts).expect("distributed Born loop");
        (out, body)
    };
    let path_and_imbalance = |body: &DistSse| {
        let bal = body.comm.balance.as_ref().expect("balance measured");
        let max_busy = bal.rank_busy_secs.iter().cloned().fold(0.0, f64::max);
        (max_busy * 1e3, bal.imbalance_ratio())
    };

    let (static_path_ms, imbalance_before) = path_and_imbalance(&run(uniform.clone(), 1).1);
    let moved0 = counters::local(Counter::BalanceMovedUnits);
    let (adaptive, body) = run(weighted, iters);
    let moved_units = (counters::local(Counter::BalanceMovedUnits) - moved0) as usize;
    let (adaptive_path_ms, imbalance_after) = path_and_imbalance(&body);

    // The whole point of the bitwise-safe migration path: the tiling may
    // move, the observables may not — over real Born iterates.
    let (reference, _) = run(uniform, iters);
    let (a, r) = (&adaptive, &reference);
    let bits = |x: &ScfResult| {
        x.current_history
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    for (name, x, y) in [
        ("sigma.lesser", &a.sigma.lesser, &r.sigma.lesser),
        ("sigma.greater", &a.sigma.greater, &r.sigma.greater),
        ("pi.lesser", &a.pi.lesser, &r.pi.lesser),
        ("pi.greater", &a.pi.greater, &r.pi.greater),
    ] {
        if x.as_slice() != y.as_slice() {
            eprintln!("balance FAILED: adaptive {name} diverged from the uniform start bitwise");
            std::process::exit(1);
        }
    }
    if bits(a) != bits(r) {
        eprintln!("balance FAILED: adaptive current_history diverged from the uniform start");
        std::process::exit(1);
    }

    WorldBalance {
        world,
        units: s.te * s.ta,
        modeled,
        static_path_ms,
        adaptive_path_ms,
        imbalance_before,
        imbalance_after,
        moved_units,
    }
}

/// Skewed-device load-balance scenario (CI `balance-regression` job):
/// static uniform tiling against the cost-model-weighted tiling plus
/// measured re-tiling, on the distributed Born loop. Gates, reading no
/// clock: the weighted start cuts the modeled imbalance ≥ 2× and shortens
/// the modeled critical path, and the adaptive run's Born iterates are
/// bitwise a uniform-start run's. The measured busy-time columns are
/// printed and optionally written to a `BENCH_balance.json`.
fn balance(flags: &[String]) {
    use qt_telemetry::json::Json;

    let f = parse_args(
        "balance",
        &[("--out", Kind::Str), ("--iters", Kind::Int)],
        &[],
        flags,
    );
    let out_path = f.str("--out");
    let iters = f.int("--iters").unwrap_or(4).max(2);

    println!("== balance: adaptive tiling on a skewed device ==");
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    let runs: Vec<WorldBalance> = [4usize, 8]
        .iter()
        .map(|&w| balance_world(w, iters))
        .collect();

    println!(
        "  {:<6} {:>6} | {:>8} {:>8} {:>7} | {:>9} {:>9} | {:>9} {:>9} | {:>8} {:>8} {:>8} | {:>6}",
        "world",
        "units",
        "uni imb",
        "wtd imb",
        "cut",
        "uni path",
        "wtd path",
        "stat path",
        "adpt path",
        "imb pre",
        "imb post",
        "improve",
        "moved"
    );
    let mut failures = Vec::new();
    for r in &runs {
        let m = &r.modeled;
        println!(
            "  {:<6} {:>6} | {:>8.2} {:>8.2} {:>6.2}x | {:>7.2}Mf {:>7.2}Mf | {:>7.2}ms {:>7.2}ms | {:>8.2} {:>8.2} {:>7.2}x | {:>6}",
            r.world,
            r.units,
            m.uniform_imbalance,
            m.weighted_imbalance,
            m.improvement(),
            m.uniform_path / 1e6,
            m.weighted_path / 1e6,
            r.static_path_ms,
            r.adaptive_path_ms,
            r.imbalance_before,
            r.imbalance_after,
            r.improvement(),
            r.moved_units
        );
        failures.extend(
            m.failures()
                .into_iter()
                .map(|f| format!("world {}: {f}", r.world)),
        );
    }
    println!(
        "  (uni/wtd = cost model on the uniform/weighted starting tiling: per-rank sums of \
         exact per-unit SSE flops; gated. stat = the uniform tiling's one exchange, adpt = the \
         weighted start's last exchange: per-rank busy thread CPU time; printed only)"
    );

    if let Some(path) = out_path {
        let num = |key: &str, v: f64| (key.to_string(), Json::Num(v));
        let worlds: Vec<Json> = runs
            .iter()
            .map(|r| {
                let m = &r.modeled;
                Json::Obj(vec![
                    num("world", r.world as f64),
                    num("units", r.units as f64),
                    num("modeled_imbalance_uniform", m.uniform_imbalance),
                    num("modeled_imbalance_weighted", m.weighted_imbalance),
                    num("modeled_improvement", m.improvement()),
                    num("modeled_path_uniform_flops", m.uniform_path),
                    num("modeled_path_weighted_flops", m.weighted_path),
                    num("static_path_ms", r.static_path_ms),
                    num("adaptive_path_ms", r.adaptive_path_ms),
                    num("imbalance_before", r.imbalance_before),
                    num("imbalance_after", r.imbalance_after),
                    num("improvement", r.improvement()),
                    num("moved_units", r.moved_units as f64),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            num("min_modeled_improvement", ModeledBalance::MIN_IMPROVEMENT),
            ("worlds".to_string(), Json::Arr(worlds)),
        ]);
        std::fs::write(path, doc.dump()).expect("write balance json");
        println!("  results written to {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("balance FAILED: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "  gate OK: weighted start cuts the modeled imbalance >= {:.1}x and shortens the \
         modeled critical path at both world sizes; observables bitwise identical\n",
        ModeledBalance::MIN_IMPROVEMENT
    );
}

/// One executed sweep point of a corpus scenario: the observables and
/// coverage fingerprint that get pinned in the golden record.
struct CorpusPoint {
    bias: f64,
    temperature: f64,
    converged: bool,
    iterations: usize,
    current: f64,
    total_points: usize,
    /// Flattened grid indices the health layer quarantined, in order.
    quarantine: Vec<usize>,
}

fn bits_hex(v: f64) -> String {
    format!("{:#018x}", v.to_bits())
}

fn parse_bits(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

fn scenario_error_tag(e: &qt_scenario::ScenarioError) -> &'static str {
    use qt_scenario::ScenarioError as E;
    match e {
        E::Syntax { .. } => "syntax",
        E::UnknownKey { .. } => "unknown-key",
        E::TypeMismatch { .. } => "type-mismatch",
        E::MissingKey { .. } => "missing-key",
        E::OutOfRange { .. } => "out-of-range",
        E::Invalid { .. } => "invalid",
    }
}

/// `reproduce corpus`: run the scenario zoo and self-gate against the
/// committed golden records.
///
/// Tiers, all fail-closed (any gate miss exits 1):
///  - invalid corpus: every `corpus/invalid/*.toml` must be rejected
///    with exactly the `ScenarioError` variant its `#! expect:` header
///    declares — the strict-validation contract, pinned as data;
///  - golden runs: every `corpus/scenarios/*.toml` builds and sweeps;
///    observables must match the golden record bitwise or within the
///    tolerance the record itself states, and the quarantine fingerprint
///    must match exactly (disordered scenarios must quarantine at least
///    one point and report it honestly);
///  - chaos matrix (`--chaos`): each clean scenario
///    re-runs through the service with a mid-sweep rank kill; recovery
///    must be bitwise invisible against both the in-process fault-free
///    service run and the golden service record.
fn corpus_cmd(flags: &[String]) {
    use qt_core::scf::{run_scf_with, ScfOptions};
    use qt_telemetry::json::Json;

    let f = parse_args(
        "corpus",
        &[
            ("--dir", Kind::Str),
            ("--write-golden", Kind::Switch),
            ("--chaos", Kind::Switch),
            ("--scenarios", Kind::Str),
            ("--report", Kind::Str),
        ],
        &[],
        flags,
    );
    let dir = f.str("--dir").unwrap_or("corpus");
    let write_golden = f.has("--write-golden");
    let chaos = f.has("--chaos");
    let only: Option<Vec<&str>> = f.str("--scenarios").map(|list| list.split(',').collect());
    let report_path = f.str("--report");

    println!("== corpus: golden-result scenario zoo ==");
    qt_telemetry::reset_all();
    qt_telemetry::set_enabled(true);
    recorder::switch(JOURNAL, true);
    let mut failures: Vec<String> = Vec::new();

    let toml_files = |sub: &str| -> Vec<std::path::PathBuf> {
        let path = std::path::Path::new(&dir).join(sub);
        let mut files: Vec<_> = match std::fs::read_dir(&path) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect(),
            Err(e) => {
                eprintln!("cannot read corpus directory {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        files.sort();
        files
    };

    // ---- Tier 0: the invalid corpus must be rejected, precisely. ----
    println!("-- invalid corpus: strict validation --");
    for path in toml_files("invalid") {
        let name = path
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let Some(expect) = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("#! expect:"))
            .map(str::trim)
        else {
            failures.push(format!(
                "invalid/{name}: missing `#! expect: <variant>` header line"
            ));
            continue;
        };
        match qt_scenario::load(&src) {
            Ok(_) => failures.push(format!(
                "invalid/{name}: expected {expect} rejection but the scenario built"
            )),
            Err(e) if scenario_error_tag(&e) == expect => {
                println!("  {name:<24} rejected as expected: {e}");
            }
            Err(e) => failures.push(format!(
                "invalid/{name}: expected {expect}, got {}: {e}",
                scenario_error_tag(&e)
            )),
        }
    }

    // ---- Tier 1: golden scenario runs. ----
    println!("-- golden runs --");
    let selected = |name: &str| only.as_ref().is_none_or(|o| o.contains(&name));
    // Built scenarios kept for the chaos tier (clean ones only).
    let mut chaos_queue: Vec<qt_scenario::BuiltScenario> = Vec::new();
    for path in toml_files("scenarios") {
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let stem = path
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        if !selected(&stem) {
            continue;
        }
        let built = match qt_scenario::load(&src) {
            Ok(b) => b,
            Err(e) => {
                failures.push(format!("scenarios/{stem}: failed to build: {e}"));
                continue;
            }
        };
        let name = built.scenario.name.clone();
        if name != stem {
            failures.push(format!(
                "scenarios/{stem}: scenario name {name:?} disagrees with its file name"
            ));
        }
        let sweep = built.sweep_points();
        println!("  {name}: {} sweep points", sweep.len());
        let mut points = Vec::with_capacity(sweep.len());
        let mut run_failed = false;
        for &(bias, temperature) in &sweep {
            let cfg = built.config_at(bias, temperature);
            match run_scf_with(&built.sim, &cfg, ScfOptions::default()) {
                Ok(out) => {
                    let cov = &out.electron.coverage;
                    println!(
                        "    bias {bias:>5.2} V  T {temperature:>5.0} K  current {:>12.4e}  \
                         iters {:>2}  quarantined {}/{}",
                        out.electron.current,
                        out.iterations,
                        cov.quarantined.len(),
                        cov.total_points
                    );
                    points.push(CorpusPoint {
                        bias,
                        temperature,
                        converged: out.converged,
                        iterations: out.iterations,
                        current: out.electron.current,
                        total_points: cov.total_points,
                        quarantine: cov.quarantined.iter().map(|q| q.grid_index).collect(),
                    });
                }
                Err(e) => {
                    failures.push(format!(
                        "{name}: point (bias {bias}, T {temperature}) failed outright: {e}"
                    ));
                    run_failed = true;
                }
            }
        }
        counters::add(Counter::CorpusScenariosRun, 1);
        if run_failed {
            counters::add(Counter::CorpusMismatched, 1);
            continue;
        }

        // Disorder honesty gate: a disordered scenario that never
        // quarantines is not exercising the health layer it exists to
        // pin; and whatever it quarantines must be an honest report.
        if built
            .disorder
            .as_ref()
            .is_some_and(|d| d.vacancy_fraction > 0.0)
        {
            let quarantined: usize = points.iter().map(|p| p.quarantine.len()).sum();
            if quarantined == 0 {
                failures.push(format!(
                    "{name}: disordered scenario quarantined nothing — the vacancy \
                     resonance is not reaching the health layer"
                ));
            }
            for p in &points {
                let mut seen = std::collections::BTreeSet::new();
                for &idx in &p.quarantine {
                    if idx >= p.total_points {
                        failures.push(format!(
                            "{name}: dishonest coverage at bias {}: quarantined index \
                             {idx} >= total_points {}",
                            p.bias, p.total_points
                        ));
                    }
                    if !seen.insert(idx) {
                        failures.push(format!(
                            "{name}: dishonest coverage at bias {}: index {idx} \
                             quarantined twice",
                            p.bias
                        ));
                    }
                }
            }
        }

        let golden_path = std::path::Path::new(&dir)
            .join("golden")
            .join(format!("{name}.json"));
        if write_golden {
            let mut obj = vec![
                ("scenario".to_string(), Json::Str(name.clone())),
                (
                    "tolerance".to_string(),
                    Json::Obj(vec![
                        ("abs".to_string(), Json::Num(1e-12)),
                        ("rel".to_string(), Json::Num(1e-9)),
                    ]),
                ),
                (
                    "points".to_string(),
                    Json::Arr(
                        points
                            .iter()
                            .map(|p| {
                                Json::Obj(vec![
                                    ("bias".to_string(), Json::Num(p.bias)),
                                    ("temperature".to_string(), Json::Num(p.temperature)),
                                    ("converged".to_string(), Json::Bool(p.converged)),
                                    ("iterations".to_string(), Json::Num(p.iterations as f64)),
                                    ("current".to_string(), Json::Num(p.current)),
                                    ("current_bits".to_string(), Json::Str(bits_hex(p.current))),
                                    ("total_points".to_string(), Json::Num(p.total_points as f64)),
                                    (
                                        "quarantine".to_string(),
                                        Json::Arr(
                                            p.quarantine
                                                .iter()
                                                .map(|&q| Json::Num(q as f64))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ];
            if built.disorder.is_none() {
                let service = corpus_service_sweep(&built, None, &mut failures);
                obj.push((
                    "service".to_string(),
                    Json::Arr(
                        service
                            .iter()
                            .map(|p| {
                                Json::Obj(vec![
                                    ("bias".to_string(), Json::Num(p.bias)),
                                    ("current_bits".to_string(), Json::Str(bits_hex(p.current))),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            std::fs::create_dir_all(golden_path.parent().unwrap()).ok();
            let body = Json::Obj(obj).dump() + "\n";
            std::fs::write(&golden_path, body).unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", golden_path.display());
                std::process::exit(1);
            });
            println!("    golden record written: {}", golden_path.display());
        } else {
            match compare_golden(&name, &golden_path, &points) {
                Ok(()) => counters::add(Counter::CorpusMatched, 1),
                Err(diffs) => {
                    counters::add(Counter::CorpusMismatched, 1);
                    failures.extend(diffs);
                }
            }
        }
        if built.disorder.is_none() {
            chaos_queue.push(built);
        }
    }

    // ---- Tier 2: chaos matrix. ----
    if chaos && !write_golden {
        println!("-- chaos matrix: mid-sweep rank kill per scenario --");
        for built in &chaos_queue {
            let name = built.scenario.name.clone();
            let reference = corpus_service_sweep(built, None, &mut failures);
            let killed = corpus_service_sweep(built, Some(1), &mut failures);
            counters::add(Counter::CorpusChaosReruns, 1);
            if reference.len() != killed.len() {
                failures.push(format!(
                    "{name}: chaos rerun answered {} points, fault-free answered {}",
                    killed.len(),
                    reference.len()
                ));
                continue;
            }
            let mut diverged = 0usize;
            for (a, b) in reference.iter().zip(&killed) {
                if a.current.to_bits() != b.current.to_bits() {
                    diverged += 1;
                    failures.push(format!(
                        "{name}: chaos rerun diverged at bias {} V: {:e} vs {:e}",
                        a.bias, a.current, b.current
                    ));
                }
            }
            // Gate the fault-free service run against the golden service
            // record too: recovery being self-consistent is not enough if
            // the service itself drifted from the committed baseline.
            let golden_path = std::path::Path::new(&dir)
                .join("golden")
                .join(format!("{name}.json"));
            match std::fs::read_to_string(&golden_path)
                .ok()
                .and_then(|s| qt_telemetry::json::Json::parse(&s).ok())
            {
                Some(doc) => match doc.get("service").and_then(|s| s.as_array()) {
                    Some(records) if records.len() == reference.len() => {
                        for (i, (rec, got)) in records.iter().zip(&reference).enumerate() {
                            let bits = rec
                                .get("current_bits")
                                .and_then(|b| b.as_str())
                                .and_then(parse_bits);
                            if bits != Some(got.current.to_bits()) {
                                failures.push(format!(
                                    "{name}: service point {i} drifted from the golden \
                                     service record (bias {} V)",
                                    got.bias
                                ));
                            }
                        }
                    }
                    _ => failures.push(format!(
                        "{name}: golden record has no matching service block — \
                         regenerate with --write-golden"
                    )),
                },
                None => failures.push(format!(
                    "{name}: no readable golden record for the chaos gate"
                )),
            }
            if diverged == 0 {
                println!(
                    "  {name}: rank kill bitwise invisible across {} points",
                    reference.len()
                );
            }
        }
    }

    if let Some(path) = report_path {
        let rep = qt_telemetry::TelemetryReport::from_current();
        if let Err(e) = rep.validate() {
            failures.push(format!("telemetry report failed validation: {e}"));
        }
        std::fs::write(path, rep.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("  report written to {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("corpus FAILED: {f}");
        }
        std::process::exit(1);
    }
    let rep = qt_telemetry::TelemetryReport::from_current();
    println!("corpus OK: {}", block_summary(&rep, Block::Corpus));
}

/// Compare one scenario's run against its golden record. Observables
/// match bitwise or within the tolerance the record itself states; the
/// coverage fingerprint must match exactly. Every mismatching current is
/// journaled as a [`qt_telemetry::EventKind::CorpusMismatch`] so a
/// postmortem carries the exact bit patterns.
fn compare_golden(
    name: &str,
    golden_path: &std::path::Path,
    points: &[CorpusPoint],
) -> Result<(), Vec<String>> {
    use qt_telemetry::json::Json;
    let src = match std::fs::read_to_string(golden_path) {
        Ok(s) => s,
        Err(e) => {
            return Err(vec![format!(
                "{name}: no golden record at {} ({e}) — run `reproduce corpus --write-golden`",
                golden_path.display()
            )])
        }
    };
    let doc = match Json::parse(&src) {
        Ok(d) => d,
        Err(e) => return Err(vec![format!("{name}: golden record unparsable: {e}")]),
    };
    let abs_tol = doc
        .get("tolerance")
        .and_then(|t| t.get("abs"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let rel_tol = doc
        .get("tolerance")
        .and_then(|t| t.get("rel"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let Some(golden) = doc.get("points").and_then(|p| p.as_array()) else {
        return Err(vec![format!("{name}: golden record has no points array")]);
    };
    let mut diffs = Vec::new();
    if golden.len() != points.len() {
        return Err(vec![format!(
            "{name}: sweep shape changed: {} golden points, {} run",
            golden.len(),
            points.len()
        )]);
    }
    for (i, (g, p)) in golden.iter().zip(points).enumerate() {
        let gf = |key: &str| g.get(key).and_then(Json::as_f64);
        if gf("bias") != Some(p.bias) || gf("temperature") != Some(p.temperature) {
            diffs.push(format!(
                "{name}: point {i} sweep coordinates changed (golden bias {:?}, run {})",
                gf("bias"),
                p.bias
            ));
            continue;
        }
        let golden_bits = g
            .get("current_bits")
            .and_then(|b| b.as_str())
            .and_then(parse_bits);
        let Some(golden_bits) = golden_bits else {
            diffs.push(format!(
                "{name}: point {i} golden record lacks current_bits"
            ));
            continue;
        };
        let golden_current = f64::from_bits(golden_bits);
        let exact = golden_bits == p.current.to_bits();
        let within =
            (p.current - golden_current).abs() <= abs_tol.max(rel_tol * golden_current.abs());
        if !exact && !within {
            qt_telemetry::journal::emit(qt_telemetry::EventKind::CorpusMismatch {
                point: i as u64,
                golden_bits,
                got_bits: p.current.to_bits(),
            });
            diffs.push(format!(
                "{name}: point {i} (bias {} V) current {:e} diverged from golden {:e} \
                 (|Δ| {:e}, tolerance abs {abs_tol:e} rel {rel_tol:e})",
                p.bias,
                p.current,
                golden_current,
                (p.current - golden_current).abs()
            ));
        } else if !exact {
            println!(
                "    point {i}: current within tolerance of golden (|Δ| {:e})",
                (p.current - golden_current).abs()
            );
        }
        if g.get("converged").and_then(Json::as_bool) != Some(p.converged) {
            diffs.push(format!("{name}: point {i} convergence flag changed"));
        }
        if g.get("iterations").and_then(Json::as_u64) != Some(p.iterations as u64) {
            diffs.push(format!(
                "{name}: point {i} iteration count changed (golden {:?}, run {})",
                g.get("iterations").and_then(Json::as_u64),
                p.iterations
            ));
        }
        if g.get("total_points").and_then(Json::as_u64) != Some(p.total_points as u64) {
            diffs.push(format!("{name}: point {i} coverage denominator changed"));
        }
        let golden_quarantine: Option<Vec<usize>> =
            g.get("quarantine").and_then(|q| q.as_array()).map(|a| {
                a.iter()
                    .filter_map(|v| v.as_u64().map(|u| u as usize))
                    .collect()
            });
        if golden_quarantine.as_deref() != Some(&p.quarantine[..]) {
            diffs.push(format!(
                "{name}: point {i} quarantine fingerprint changed (golden {:?}, run {:?})",
                golden_quarantine, p.quarantine
            ));
        }
    }
    if diffs.is_empty() {
        println!("    matches golden record ({} points)", points.len());
        Ok(())
    } else {
        Err(diffs)
    }
}

/// Run one scenario's bias sweep through the service layer, optionally
/// killing a pool rank mid-sweep. A single worker keeps the warm-start
/// deposit order deterministic, so two runs of the same sweep are
/// bitwise comparable.
fn corpus_service_sweep(
    built: &qt_scenario::BuiltScenario,
    kill_rank: Option<usize>,
    failures: &mut Vec<String>,
) -> Vec<qt_serve::PointResult> {
    use qt_serve::{ServeConfig, Service, SweepRequest, SweepStatus, VariantSpec};
    let name = &built.scenario.name;
    let temperature = built.scenario.sweep.temperatures[0];
    let spec = VariantSpec {
        params: built.params,
        emin: built.scenario.grid.emin,
        emax: built.scenario.grid.emax,
        cfg: built.config_at(0.0, temperature),
    };
    let svc = match Service::start(
        vec![spec],
        ServeConfig {
            workers: 1,
            pool_slots: 4,
            ..Default::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("{name}: service refused the scenario variant: {e}"));
            return Vec::new();
        }
    };
    let req = SweepRequest {
        chaos_kill_rank: kill_rank,
        ..SweepRequest::new(0, built.scenario.sweep.biases.clone())
    };
    let ticket = match svc.submit(req) {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("{name}: service rejected the sweep: {e}"));
            return Vec::new();
        }
    };
    let resp = ticket.wait_timeout(std::time::Duration::from_secs(600));
    svc.shutdown();
    match resp.map(|r| r.status) {
        Some(SweepStatus::Completed { points }) => points,
        Some(other) => {
            failures.push(format!("{name}: service sweep did not complete: {other:?}"));
            Vec::new()
        }
        None => {
            failures.push(format!("{name}: service sweep unanswered after 600 s"));
            Vec::new()
        }
    }
}

/// Re-parse and re-validate a report written by `profile` (CI smoke).
fn check_report(flags: &[String]) {
    use qt_telemetry::report::RequireError;
    let f = parse_args(
        "check-report",
        &[("--require", Kind::Str)],
        &["<report.json>"],
        flags,
    );
    let path = f.positional(0);
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let rep = match qt_telemetry::TelemetryReport::from_json(&json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = rep.validate() {
        eprintln!("report FAILED validation: {e}");
        std::process::exit(1);
    }
    for expr in f.all("--require") {
        match rep.require(expr) {
            Ok(()) => {}
            Err(RequireError::Unmet(why)) => {
                eprintln!("report FAILED --require {expr}: {why}");
                std::process::exit(1);
            }
            Err(RequireError::Malformed(why)) => {
                eprintln!(
                    "check-report: bad --require: {why} (it takes <block>, <metric>>N, \
                     <metric><=X or <metric>=N)"
                );
                std::process::exit(2);
            }
        }
    }
    let exact = rep.residuals.iter().filter(|r| r.exact).count();
    println!(
        "report OK: {} phases, {} residuals ({} exact, all vanishing), {} convergence points, {} ranks",
        rep.phases.len(),
        rep.residuals.len(),
        exact,
        rep.convergence.len(),
        rep.comm.len()
    );
}

fn sdfg_figs() {
    println!("== Figs. 8-12: SSE kernel transformation pipeline ==");
    use qt_sdfg::library;
    let b: qt_sdfg::Bindings = [
        ("Nkz", 5i64),
        ("NE", 64),
        ("Nqz", 5),
        ("Nw", 8),
        ("N3D", 3),
        ("NA", 64),
        ("NB", 6),
        ("Norb", 4),
    ]
    .iter()
    .map(|&(k, v)| (k.to_string(), v))
    .collect();
    let mut tree = library::sse_sigma_tree();
    let steps = library::transform_sse_sigma(&mut tree, &b).expect("pipeline");
    for s in &steps {
        println!(
            "  {:<44} {:>12.2} Gflop {:>14} accesses {:>10} KiB transient",
            s.name,
            s.stats.flops as f64 / 1e9,
            s.stats.total_accesses(),
            s.stats.transient_bytes / 1024
        );
    }
    println!();
}
