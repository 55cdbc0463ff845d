//! On-disk paged store baseline: build throughput and paged-vs-in-RAM
//! evaluation, exported as `BENCH_store.json` rows via `GMARK_BENCH_JSON`.
//!
//! Three modes, one process per invocation so each row's `peak_rss_kb`
//! (Linux `VmHWM`) is a per-mode peak — that per-process discipline is
//! what makes the paged-vs-in-RAM memory contrast meaningful:
//!
//! * `--mode build` — streams generation through the spool tee into
//!   `graph.gstore` (the CSR is never materialized) and records the store
//!   assembly throughput in MB/s;
//! * `--mode paged` — opens the store with [`StoreReader`] and runs the
//!   (engine × query) matrix twice in one process: a *cold* pass (page
//!   cache and relation cache empty) and a *warm* pass (both hot), one
//!   row each;
//! * `--mode inram` — regenerates the same `(config, seed)` graph as a
//!   materialized CSR and runs the matrix once, the RAM-resident
//!   contrast row.
//!
//! All three modes share one workload recipe and seed, so their cells/s
//! figures are directly comparable. `scripts/bench.sh` drives the trio at
//! 500K nodes.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin store_sweep -- \
//!     --mode build|paged|inram --store DIR \
//!     [--nodes N] [--threads T] [--queries Q] [--budget-ms MS] [--seed S]
//! ```

use gmark::run::{run, DirSink, RunOptions, RunPlan};
use gmark_bench::{append_bench_json, build_graph, peak_rss_kb, take_flag_value};
use gmark_core::query::Query;
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_core::workload::{generate_workload, Shape, Workload, WorkloadConfig};
use gmark_engines::{evaluate_matrix, CellBudget, EngineKind, EvalContext, MatrixOptions};
use gmark_store::StoreReader;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Build,
    Paged,
    InRam,
}

struct Args {
    mode: Mode,
    store: PathBuf,
    nodes: u64,
    threads: usize,
    queries: usize,
    budget_ms: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Build,
        store: PathBuf::from("target/store_sweep"),
        nodes: 500_000,
        threads: 1,
        queries: 12,
        budget_ms: 2_000,
        seed: 0x5704_E5EED,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--mode" => {
                args.mode = match take_flag_value(&argv, &mut i, &flag)?.as_str() {
                    "build" => Mode::Build,
                    "paged" => Mode::Paged,
                    "inram" => Mode::InRam,
                    other => return Err(format!("--mode: {other:?} (build|paged|inram)")),
                }
            }
            "--store" => args.store = PathBuf::from(take_flag_value(&argv, &mut i, &flag)?),
            "--nodes" => args.nodes = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--threads" => args.threads = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--queries" => args.queries = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--budget-ms" => {
                args.budget_ms = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--seed" => args.seed = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

/// The shared workload recipe: multi-conjunct, all four shapes, some
/// recursion — identical across the paged and in-RAM modes so the cells/s
/// rows compare like for like.
fn shared_workload(queries: usize, seed: u64) -> Workload {
    let schema = usecases::bib();
    let mut wcfg = WorkloadConfig::new(queries).with_seed(seed ^ 0xE7A1);
    wcfg.selectivities = SelectivityClass::ALL.to_vec();
    wcfg.shapes = Shape::ALL.to_vec();
    wcfg.recursion_probability = 0.3;
    wcfg.query_size.conjuncts = (2, 3);
    wcfg.query_size.disjuncts = (1, 2);
    let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
    workload
}

/// Runs one full matrix pass, appends a `BENCH_store.json` row, and
/// returns the pass's cells/s so the paged mode can assert its
/// warm-vs-cold ordering.
fn matrix_pass(ctx: &EvalContext<'_>, args: &Args, mode_label: &str) -> f64 {
    let workload = shared_workload(args.queries, args.seed);
    let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
    let budget = CellBudget {
        timeout: (args.budget_ms > 0).then(|| Duration::from_millis(args.budget_ms)),
        max_tuples: 2_000_000,
    };
    let schema = usecases::bib();
    let started = Instant::now();
    let report = evaluate_matrix(
        ctx,
        Some(&schema),
        &queries,
        &EngineKind::ALL,
        &budget,
        &MatrixOptions {
            threads: args.threads,
            ..MatrixOptions::default()
        },
    );
    let seconds = started.elapsed().as_secs_f64();
    let totals = report.totals();
    let cells_per_s = totals.cells as f64 / seconds.max(1e-9);
    println!(
        "store_sweep: {mode_label} bib n={} q={} threads={} -> {} cells in {seconds:.3}s \
         ({cells_per_s:.0} cells/s; {} ok, {} timeout, {} too-large)",
        args.nodes,
        args.queries,
        args.threads,
        totals.cells,
        totals.ok,
        totals.timeout,
        totals.too_large
    );
    let rss = peak_rss_kb()
        .map(|kb| kb.to_string())
        .unwrap_or_else(|| "null".to_owned());
    let row = format!(
        "{{\"bench\":\"store_sweep\",\"mode\":\"{mode_label}\",\"schema\":\"bib\",\
         \"nodes\":{},\"queries\":{},\"threads\":{},\"budget_ms\":{},\"cells\":{},\
         \"seconds\":{seconds:.6},\"cells_per_s\":{cells_per_s:.1},\"ok\":{},\
         \"timeout\":{},\"too_large\":{},\"peak_rss_kb\":{rss}}}",
        args.nodes,
        args.queries,
        args.threads,
        args.budget_ms,
        totals.cells,
        totals.ok,
        totals.timeout,
        totals.too_large,
    );
    if let Err(e) = append_bench_json(&row) {
        eprintln!("store_sweep: writing bench row: {e}");
    }
    cells_per_s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("store_sweep: {e}");
            std::process::exit(2);
        }
    };
    match args.mode {
        Mode::Build => {
            // Stream the generator through the spool tee straight into the
            // store — no N-Triples output, no materialized CSR.
            let mut plan = RunPlan::builder(usecases::bib())
                .nodes(args.nodes)
                .store()
                .build()
                .unwrap_or_else(|e| {
                    eprintln!("store_sweep: {e}");
                    std::process::exit(2);
                });
            plan.outputs.graph = false;
            std::fs::create_dir_all(&args.store).expect("store directory creates");
            let mut sink = DirSink::new(&args.store).expect("store directory opens");
            let opts = RunOptions::with_seed(args.seed)
                .threads(args.threads)
                .stream(true);
            let started = Instant::now();
            let summary = run(&plan, &opts, &mut sink).unwrap_or_else(|e| {
                eprintln!("store_sweep: store build failed: {e}");
                std::process::exit(1);
            });
            let total_seconds = started.elapsed().as_secs_f64();
            let store = summary.store.expect("store plans record a store slice");
            // Throughput over the whole pipeline (generation + spool +
            // assembly): that is the wall cost a user pays for the file.
            let mb_per_s = store.bytes as f64 / 1e6 / total_seconds.max(1e-9);
            let rss = peak_rss_kb()
                .map(|kb| kb.to_string())
                .unwrap_or_else(|| "null".to_owned());
            println!(
                "store_sweep: build bib n={} threads={} -> {} edges, {} bytes in \
                 {total_seconds:.3}s ({mb_per_s:.1} MB/s, assembly {:.3}s)",
                args.nodes, args.threads, store.edges, store.bytes, store.seconds
            );
            let row = format!(
                "{{\"bench\":\"store_sweep\",\"mode\":\"build\",\"schema\":\"bib\",\
                 \"nodes\":{},\"threads\":{},\"edges\":{},\"bytes\":{},\
                 \"page_size\":{},\"assembly_seconds\":{:.6},\
                 \"seconds\":{total_seconds:.6},\"mb_per_s\":{mb_per_s:.1},\
                 \"peak_rss_kb\":{rss}}}",
                args.nodes, args.threads, store.edges, store.bytes, store.page_size, store.seconds,
            );
            if let Err(e) = append_bench_json(&row) {
                eprintln!("store_sweep: writing bench row: {e}");
            }
        }
        Mode::Paged => {
            let path = args.store.join("graph.gstore");
            let reader = StoreReader::open(&path).unwrap_or_else(|e| {
                eprintln!("store_sweep: {e} (run --mode build first)");
                std::process::exit(1);
            });
            // Cold: fresh page cache and relation cache. Warm: same
            // context, both caches hot. Same process, so the two rows
            // share one VmHWM peak.
            let ctx = EvalContext::new(&reader);
            let cold = matrix_pass(&ctx, &args, "paged_cold");
            let warm = matrix_pass(&ctx, &args, "paged_warm");
            // The warm pass reuses the cold pass's page cache, relation
            // cache, and expression cache — it must not be slower. A
            // regression here means the read path is doing warm-path work
            // per hit (the PR-7 pinned-page accounting bug); flag it
            // loudly rather than letting the rows drift apart silently.
            if warm < cold {
                eprintln!(
                    "store_sweep: WARNING: paged_warm ({warm:.1} cells/s) slower than \
                     paged_cold ({cold:.1} cells/s) — warm-path regression in the store \
                     read path"
                );
            }
        }
        Mode::InRam => {
            let schema = usecases::bib();
            let graph = build_graph(&schema, args.nodes, args.seed, args.threads);
            let ctx = EvalContext::new(&graph);
            matrix_pass(&ctx, &args, "inram");
        }
    }
}
