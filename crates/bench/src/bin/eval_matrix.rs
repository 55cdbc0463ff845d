//! Evaluation-matrix throughput baseline: drives the full
//! generate → evaluate loop (Section 7 in miniature) through the shared
//! [`EvalContext`] + [`evaluate_matrix`] harness and emits one
//! `BENCH_eval.json` row per invocation — cells/s, outcome counts, and
//! the process's peak RSS — via the `GMARK_BENCH_JSON` protocol.
//!
//! `scripts/bench.sh` runs one process per thread count (1 vs
//! auto-detect) so the `peak_rss_kb` figures are per-run peaks and the
//! 1-vs-auto pair pins the parallel evaluation pipeline's trajectory
//! across PRs.
//!
//! ```sh
//! cargo run -p gmark-bench --release --bin eval_matrix -- \
//!     [--nodes N] [--queries Q] [--threads T] [--budget-ms MS] \
//!     [--max-tuples N] [--seed S] [--no-eval-cache]
//! ```
//!
//! `--no-eval-cache` disables the cross-cell sub-expression
//! result cache, and each row carries a `"cache"` field plus the cache's
//! fill/hit/miss/rejected counters (zeros when disabled), so the cached
//! vs uncached row pair pins the cache's contribution across PRs.
//! `cache_hit_rate` counts the pre-clock fill builds in its denominator
//! (`hits / (hits + misses + fills)`): probes alone would report a
//! meaningless 100% whenever every useful entry was built during fill.

use gmark_bench::{append_bench_json, build_graph, peak_rss_kb, take_flag_value};
use gmark_core::query::Query;
use gmark_core::selectivity::SelectivityClass;
use gmark_core::usecases;
use gmark_core::workload::{generate_workload, Shape, WorkloadConfig};
use gmark_engines::{evaluate_matrix, CellBudget, EngineKind, EvalContext, MatrixOptions};
use std::time::{Duration, Instant};

struct Args {
    nodes: u64,
    queries: usize,
    threads: usize,
    budget_ms: u64,
    max_tuples: usize,
    seed: u64,
    cache: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        nodes: 2_000,
        queries: 30,
        threads: 1,
        budget_ms: 2_000,
        max_tuples: 2_000_000,
        seed: 0x9A9E_2017,
        cache: true,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--nodes" => args.nodes = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--queries" => args.queries = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--threads" => args.threads = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--budget-ms" => {
                args.budget_ms = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--max-tuples" => {
                args.max_tuples = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?
            }
            "--seed" => args.seed = parse(&take_flag_value(&argv, &mut i, &flag)?, &flag)?,
            "--no-eval-cache" => args.cache = false,
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

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("eval_matrix: {e}");
            std::process::exit(2);
        }
    };

    let schema = usecases::bib();
    let graph = build_graph(&schema, args.nodes, args.seed, args.threads);

    // A mixed multi-conjunct workload (recursion included) so the budget
    // actually bites on the closure-heavy cells — the timeout/too-large
    // counters below are part of the recorded baseline, like the paper's
    // "-" cells. At least two conjuncts per query and all four body
    // shapes (chains leave join order forced by connectivity; stars,
    // cycles, and star-chains give the planner real ordering freedom)
    // keep join *order* in play.
    let mut wcfg = WorkloadConfig::new(args.queries).with_seed(args.seed ^ 0xE7A1);
    wcfg.selectivities = SelectivityClass::ALL.to_vec();
    wcfg.shapes = Shape::ALL.to_vec();
    wcfg.recursion_probability = 0.4;
    wcfg.query_size.conjuncts = (2, 4);
    wcfg.query_size.disjuncts = (1, 2);
    let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
    let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();

    let budget = CellBudget {
        timeout: (args.budget_ms > 0).then(|| Duration::from_millis(args.budget_ms)),
        max_tuples: args.max_tuples,
    };
    let ctx = EvalContext::new(&graph);
    let started = Instant::now();
    let report = evaluate_matrix(
        &ctx,
        Some(&schema),
        &queries,
        &EngineKind::ALL,
        &budget,
        &MatrixOptions {
            threads: args.threads,
            cache_mb: if args.cache {
                MatrixOptions::DEFAULT_CACHE_MB
            } else {
                0
            },
            ..MatrixOptions::default()
        },
    );
    let seconds = started.elapsed().as_secs_f64();
    let totals = report.totals();
    let cells_per_s = totals.cells as f64 / seconds.max(1e-9);

    // The cache's counters ride along in the row: a hit-rate collapse in
    // a future PR shows up in BENCH_eval.json even if cells/s masks it.
    // The rate's denominator includes the pre-clock fill builds: probes
    // alone would read 100% on a fully pre-filled run, because every
    // build the cells benefit from happened before the first probe.
    let (hits, misses, rejected, fills) = report
        .cache
        .as_ref()
        .map(|c| (c.hits, c.misses, c.rejected, c.fills))
        .unwrap_or((0, 0, 0, 0));
    let hit_rate = if hits + misses + fills > 0 {
        hits as f64 / (hits + misses + fills) as f64
    } else {
        0.0
    };

    println!(
        "eval_matrix: bib n={} q={} engines=PGSD threads={} cache={} -> {} cells in \
         {seconds:.3}s ({cells_per_s:.0} cells/s; {} ok, {} timeout, {} too-large; \
         {fills} fills, {hits} hits / {misses} misses, {rejected} rejected)",
        args.nodes,
        args.queries,
        args.threads,
        if args.cache { "on" } else { "off" },
        totals.cells,
        totals.ok,
        totals.timeout,
        totals.too_large
    );

    let rss = peak_rss_kb()
        .map(|kb| kb.to_string())
        .unwrap_or_else(|| "null".to_owned());
    let row = format!(
        "{{\"bench\":\"eval_matrix\",\"scenario\":\"bib\",\"nodes\":{},\"queries\":{},\
         \"engines\":\"PGSD\",\"threads\":{},\"budget_ms\":{},\"max_tuples\":{},\
         \"plan\":true,\"cache\":{},\"cache_fills\":{fills},\"cache_hits\":{hits},\
         \"cache_misses\":{misses},\"cache_rejected\":{rejected},\
         \"cache_hit_rate\":{hit_rate:.3},\"cells\":{},\
         \"seconds\":{seconds:.6},\"cells_per_s\":{cells_per_s:.1},\"ok\":{},\
         \"timeout\":{},\"too_large\":{},\"peak_rss_kb\":{rss}}}",
        args.nodes,
        args.queries,
        args.threads,
        args.budget_ms,
        args.max_tuples,
        args.cache,
        totals.cells,
        totals.ok,
        totals.timeout,
        totals.too_large,
    );
    if let Err(e) = append_bench_json(&row) {
        eprintln!("eval_matrix: writing bench row: {e}");
    }
}
