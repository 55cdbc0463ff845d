//! `evaluate`: the (query × engine) matrix of all four engines, through
//! `run()` with an `EvalSpec`, in RAM and in the fully deterministic
//! regime (no time budget, a tuple cap). The engines do nearly all the
//! work.
//!
//! Operation: one `run()` over one *instance* — a small bib graph and
//! one query, both drawn from `(seed, instance index)`, evaluated on
//! every engine. Item: one cell. The measured window evaluates instance
//! after instance, so a run averages over many independent graphs and
//! queries: per-query costs are heavy-tailed and depend on the hubs of
//! bib's Zipfian graphs, and one large workload per seed made the
//! figures depend on the seed more than on the code. One query per
//! instance gives the most operations per window, and so the steadiest
//! tail percentile.

use crate::calib::NEAREST;
use crate::common::{self, Measured, Op, Outcome, Params};
use crate::trace::Tracer;
use gmark::core::gen::{generate_graph, GeneratorOptions};
use gmark::core::query::{Query, RegularExpr};
use gmark::core::selectivity::SelectivityClass;
use gmark::core::usecases;
use gmark::core::workload::{generate_workload_with_threads, Shape, Workload, WorkloadConfig};
use gmark::engines::navigational::degrade_for_cypher;
use gmark::engines::{plan_query, CellBudget, CellOutcome, EngineKind, EvalContext, EvalError};
use gmark::run::{run, EvalSpec, NullSink, RunOptions, RunPlan};
use gmark::store::{EdgeSink as _, GraphView, NTriplesWriter};
use gmark::translate::{write_workload, WorkloadOutputs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const NODES: u64 = 1_000;
const QUERIES: usize = 1;
const RECURSION: f64 = 0.4;
const CONJUNCTS: (usize, usize) = (2, 4);
const MAX_TUPLES: usize = 20_000;
/// Instances the traced run evaluates both ways.
const TRACED: usize = 48;
/// Instances evaluated a second time after the window, whose cell
/// outcomes must repeat exactly.
const RECHECK: usize = 4;
/// Seed of the set-up's warm-up instances: fixed, so set-up does the
/// same work on every `--seed`.
const WARMUP_SEED: u64 = 1;
/// Instances one set-up evaluates.
const WARMUP_INSTANCES: usize = 16;
/// Sub-expression cache budget: the engines' default.
const CACHE_MB: usize = gmark::engines::MatrixOptions::DEFAULT_CACHE_MB;

/// `items` rotated left by `k`.
fn rotated<T: Copy>(items: &[T], k: usize) -> Vec<T> {
    let k = k % items.len();
    items[k..].iter().chain(&items[..k]).copied().collect()
}

/// The workload of instance `k`. The generator gives query `i` the
/// `i`-th shape and selectivity class of its lists (cyclically), so the
/// lists are rotated by `k`: successive instances cycle through every
/// shape and every class, not only the first of each.
fn workload_config(seed: u64, k: usize) -> WorkloadConfig {
    let mut w = WorkloadConfig::new(QUERIES).with_seed(seed);
    w.selectivities = rotated(&SelectivityClass::ALL, k);
    w.shapes = rotated(&Shape::ALL, k);
    w.recursion_probability = RECURSION;
    w.query_size.conjuncts = CONJUNCTS;
    w.query_size.disjuncts = (1, 2);
    w
}

fn spec() -> EvalSpec {
    EvalSpec {
        engines: EngineKind::ALL.to_vec(),
        budget_ms: 0,
        max_tuples: MAX_TUPLES,
        plan: true,
        cache: true,
        cache_mb: CACHE_MB,
    }
}

/// Instance `k` drawn from `seed`: its plan and options.
fn instance(seed: u64, k: usize, threads: usize) -> Result<(RunPlan, RunOptions), String> {
    let seed = common::derive_seed(seed, k);
    let plan = RunPlan::builder(usecases::bib())
        .nodes(NODES)
        .workload(workload_config(seed, k))
        .eval(spec())
        .build()
        .map_err(|e| e.to_string())?;
    Ok((plan, RunOptions::with_seed(seed).threads(threads)))
}

/// A cell as the result digest sees it.
type Cell = (usize, char, String, Option<u64>);

/// Runs one instance through `run()`: its times and cells.
fn run_instance(plan: &RunPlan, opts: &RunOptions) -> Result<(Op, Vec<Cell>), String> {
    let (summary, op) = common::timed(|| run(plan, opts, &mut NullSink));
    let summary = summary.map_err(|e| e.to_string())?;
    let eval = summary.eval.ok_or("run() produced no eval summary")?;
    let cells = eval
        .rows
        .into_iter()
        .map(|r| (r.query, r.engine, r.outcome, r.count))
        .collect();
    Ok((op, cells))
}

/// The per-instance output check: no cell errs (too-large under the cap
/// is a legitimate answer, timeouts cannot happen without a budget), and
/// wherever P, S and D all complete they agree on the answer count. G is
/// left out: it evaluates the degraded openCypher form of a query.
/// Returns the number of cells that fail the check.
fn check_cells(cells: &[Cell]) -> u64 {
    let mut failed = 0;
    let queries = cells.iter().map(|c| c.0 + 1).max().unwrap_or(0);
    for q in 0..queries {
        let row: Vec<&Cell> = cells.iter().filter(|c| c.0 == q).collect();
        failed += row
            .iter()
            .filter(|c| c.2 != "ok" && c.2 != "too-large")
            .count() as u64;
        let counts: Vec<Option<u64>> = ['P', 'S', 'D']
            .iter()
            .map(|e| row.iter().find(|c| c.1 == *e).and_then(|c| c.3))
            .collect();
        if let [Some(p), Some(s), Some(d)] = counts[..] {
            if p != s || p != d {
                eprintln!("cells of query {q} disagree: P={p} S={s} D={d}");
                failed += 3;
            }
        }
    }
    failed
}

fn digest(cells: &[Cell]) -> u64 {
    cells.iter().fold(common::FNV_OFFSET, |h, c| {
        common::fnv1a(h, format!("{}{}{}{:?};", c.0, c.1, c.2, c.3).as_bytes())
    })
}

pub fn run_workload(params: &Params) -> Result<Outcome, String> {
    let mut m = Measured::default();
    common::repeat_setup(&mut m, || {
        for k in 0..WARMUP_INSTANCES {
            let (plan, opts) = instance(WARMUP_SEED, k, params.threads)?;
            run_instance(&plan, &opts)?;
        }
        Ok(())
    })?;
    let mut out = if params.trace {
        traced(params)?
    } else {
        measured(params, m)?
    };
    out.param("nodes", NODES);
    out.param("queries_per_instance", QUERIES);
    out.param(
        "recipe",
        format!(
            "shape and selectivity class rotating through all per instance, \
             recursion {RECURSION}, conjuncts {CONJUNCTS:?}, disjuncts (1, 2)"
        ),
    );
    out.param("engines", "PGSD");
    out.param("budget_ms", 0);
    out.param("max_tuples", MAX_TUPLES);
    out.param("planner", "on");
    out.param("cache_mb", CACHE_MB);
    out.param("threads", params.threads);
    Ok(out)
}

fn measured(params: &Params, mut m: Measured) -> Result<Outcome, String> {
    let (mut attempted, mut failed, mut too_large) = (0u64, 0u64, 0u64);
    let mut digests = Vec::new();
    let window = Instant::now();
    let mut k = 0;
    while k < 2 || window.elapsed().as_secs_f64() < params.seconds {
        let (plan, opts) = instance(params.seed, k, params.threads)?;
        let reset = common::reset_peak_rss();
        let (op, cells) = run_instance(&plan, &opts)?;
        if reset {
            m.rss_mb.push(common::peak_rss_mb());
        }
        attempted += cells.len() as u64;
        failed += check_cells(&cells);
        too_large += cells.iter().filter(|c| c.2 == "too-large").count() as u64;
        if k < RECHECK {
            digests.push(digest(&cells));
        }
        m.items += cells.len() as u64;
        m.ops.push(op);
        m.calib.maybe_sample();
        k += 1;
    }
    m.calib.sample_n(NEAREST / 2 + 1);
    // The outcomes are a pure function of the inputs: evaluating the
    // first instances again must give the same digest.
    let mut repeatable = true;
    for (i, expected) in digests.iter().enumerate() {
        let (plan, opts) = instance(params.seed, i, params.threads)?;
        let (_, cells) = run_instance(&plan, &opts)?;
        if digest(&cells) != *expected {
            eprintln!("evaluate: instance {i} gave different outcomes on a second run");
            repeatable = false;
        }
    }
    let mut out = Outcome::new(attempted, failed, repeatable);
    out.end_to_end(&m);
    out.param("too_large_cells", too_large);
    Ok(out)
}

/// Per-layer figures of one replayed instance.
#[derive(Default)]
struct LayerCounts {
    edges: f64,
    ntriples_mb: f64,
    translate_mb: f64,
    cache_bytes: f64,
    cache_fills: f64,
    cache_hits: f64,
    failed: [f64; 4],
}

fn traced(params: &Params) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut failed = 0;
    let mut same = true;
    let mut counts = LayerCounts::default();
    for k in 0..TRACED {
        let (plan, opts) = instance(params.seed, k, params.threads)?;
        let (op, reference) = run_instance(&plan, &opts)?;
        untraced_s += op.wall_ms / 1e3;
        failed += check_cells(&reference);

        let op = tracer.begin("op", None);
        let started = Instant::now();
        let cells = replay(&tracer, op, &plan, &opts, &mut counts)?;
        traced_s += started.elapsed().as_secs_f64();
        tracer.end(op);
        if cells != reference {
            eprintln!("evaluate: traced instance {k} gave different outcomes");
            same = false;
        }
    }
    let n = TRACED as f64;
    let per = |name: &str| tracer.seconds(name) / n;
    let mut out = Outcome::new(TRACED as u64, failed, same);
    let queries = (QUERIES * TRACED) as f64;
    out.set("gen.s", per("gen"));
    out.set("gen.edges_per_s", counts.edges / tracer.seconds("gen"));
    out.set("ntriples.s", per("ntriples"));
    out.set(
        "ntriples.mb_per_s",
        counts.ntriples_mb / tracer.seconds("ntriples"),
    );
    out.set("workload.s", per("workload"));
    out.set(
        "workload.queries_per_s",
        queries / tracer.seconds("workload"),
    );
    out.set("translate.s", per("translate"));
    out.set(
        "translate.mb_per_s",
        counts.translate_mb / tracer.seconds("translate"),
    );
    out.set("eval.prewarm_s", per("eval.prewarm"));
    out.set("eval.cache_fill_s", per("eval.cache_fill"));
    out.set("eval.cache_mb", counts.cache_bytes / 1e6 / n);
    out.set("eval.cache_fills", counts.cache_fills / n);
    out.set("eval.cache_hits", counts.cache_hits / n);
    out.set("eval.plan_s", per("eval.plan"));
    for (i, kind) in EngineKind::ALL.iter().enumerate() {
        let prefix = format!("cell.{}.", kind.letter());
        out.set(
            format!("eval.cells_s.{}", kind.letter()),
            tracer.seconds_where(|s| s.starts_with(&prefix)) / n,
        );
        out.set(
            format!("eval.failed.{}", kind.letter()),
            counts.failed[i] / n,
        );
    }
    for shape in Shape::ALL {
        let suffix = format!(".{}", shape_name(shape));
        out.set(
            format!("eval.cells_s.{}", shape_name(shape)),
            tracer.seconds_where(|s| s.starts_with("cell.") && s.ends_with(&suffix)) / n,
        );
    }
    crate::trace::finish(&mut out, &tracer, params, "evaluate", untraced_s, traced_s)?;
    Ok(out)
}

fn shape_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Chain => "chain",
        Shape::Star => "star",
        Shape::Cycle => "cycle",
        Shape::StarChain => "starchain",
    }
}

/// What `run()` does for one instance, one layer call at a time: graph
/// generation and N-Triples, workload, translation, then the matrix
/// harness's warm-up, planning and cells.
fn replay(
    tracer: &Tracer,
    op: usize,
    plan: &RunPlan,
    opts: &RunOptions,
    counts: &mut LayerCounts,
) -> Result<Vec<Cell>, String> {
    let schema = &plan.graph.schema;
    let threads = opts.threads;
    let gen_opts = GeneratorOptions {
        seed: opts.graph_seed(),
        threads,
        gaussian_fast_path: opts.gaussian_fast_path,
    };
    let (graph, _) = tracer.time("gen", Some(op), || generate_graph(&plan.graph, &gen_opts));
    tracer.time("ntriples", Some(op), || {
        let mut bytes = Vec::new();
        let mut writer =
            NTriplesWriter::with_base(&mut bytes, schema.predicate_names(), &opts.base_iri);
        for pred in 0..graph.predicate_count() {
            for (src, trg) in graph.edges(pred) {
                writer.edge(src, pred, trg);
            }
        }
        writer.finish().map_err(|e| e.to_string())?;
        counts.ntriples_mb += bytes.len() as f64 / 1e6;
        Ok::<(), String>(())
    })?;
    counts.edges += graph.edge_count() as f64;

    let mut wcfg = plan.workload.clone().expect("instance() sets a workload");
    wcfg.seed = opts.graph_seed();
    let (workload, _) = tracer
        .time("workload", Some(op), || {
            generate_workload_with_threads(schema, &wcfg, threads)
        })
        .map_err(|e| e.to_string())?;
    let bytes = tracer.time("translate", Some(op), || {
        let mut outs = WorkloadOutputs {
            rules: std::io::sink(),
            sparql: std::io::sink(),
            cypher: std::io::sink(),
            sql: std::io::sink(),
            datalog: std::io::sink(),
        };
        write_workload(schema, &workload.queries, &mut outs).map_err(|e| e.to_string())
    })?;
    counts.translate_mb += bytes.iter().sum::<u64>() as f64 / 1e6;

    Ok(evaluate(
        tracer,
        op,
        plan,
        GraphView::from(&graph),
        &workload,
        threads,
        counts,
    ))
}

/// The matrix harness of `evaluate_matrix_with_schema`, rebuilt from the
/// context's and the planner's public calls: warm the indexes the
/// engines will read, fill the sub-expression cache (including the
/// navigational engine's degraded forms), plan every query, then
/// evaluate the cells on `threads` workers claiming cells in order.
fn evaluate(
    tracer: &Tracer,
    op: usize,
    plan: &RunPlan,
    view: GraphView<'_>,
    workload: &Workload,
    threads: usize,
    counts: &mut LayerCounts,
) -> Vec<Cell> {
    let spec = plan.eval.as_ref().expect("instance() sets an eval spec");
    let schema = &plan.graph.schema;
    let budget = CellBudget {
        timeout: None,
        max_tuples: spec.max_tuples,
    };
    let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
    let symbols = || {
        queries
            .iter()
            .flat_map(|q| q.rules.iter())
            .flat_map(|r| r.body.iter())
            .flat_map(|c| c.expr.symbols())
            .collect::<Vec<_>>()
    };
    let ctx = EvalContext::new(view);

    tracer.time("eval.prewarm", Some(op), || {
        let _ = ctx.edb();
        for sym in symbols() {
            let _ = ctx.relation(sym);
        }
    });
    tracer.time("eval.cache_fill", Some(op), || {
        let mut exprs: Vec<RegularExpr> = Vec::new();
        let mut collect = |q: &Query| {
            for rule in &q.rules {
                for conjunct in &rule.body {
                    exprs.push(conjunct.expr.clone());
                }
            }
        };
        for q in &queries {
            collect(q);
        }
        for q in &queries {
            collect(&degrade_for_cypher(q).0);
        }
        ctx.fill_expr_cache(&exprs, spec.cache_mb, || budget.start());
    });
    let plans = tracer.time("eval.plan", Some(op), || {
        for sym in symbols() {
            let _ = ctx.symbol_stats(sym);
        }
        queries
            .iter()
            .map(|q| plan_query(&ctx, Some(schema), q))
            .collect::<Vec<_>>()
    });

    let engines = &spec.engines;
    let total = queries.len() * engines.len();
    let cells_span = tracer.begin("eval.cells", Some(op));
    let next = AtomicUsize::new(0);
    let mut cells: Vec<(usize, Cell)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, total.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let ci = next.fetch_add(1, Ordering::Relaxed);
                        if ci >= total {
                            return done;
                        }
                        let (qi, kind) = (ci / engines.len(), engines[ci % engines.len()]);
                        let name = format!(
                            "cell.{}.{}",
                            kind.letter(),
                            shape_name(workload.queries[qi].shape)
                        );
                        let result = tracer.time(&name, Some(cells_span), || {
                            kind.evaluate_with(&ctx, queries[qi], Some(&plans[qi]), &budget.start())
                        });
                        let outcome = match result {
                            Ok(answers) => CellOutcome::Answers {
                                arity: answers.arity,
                                count: answers.count(),
                            },
                            Err(e) => CellOutcome::Failed(e),
                        };
                        done.push((
                            ci,
                            (qi, kind.letter(), outcome_word(&outcome), count(&outcome)),
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("cell worker panicked"))
            .collect()
    });
    tracer.end(cells_span);
    cells.sort_by_key(|(ci, _)| *ci);

    if let Some(stats) = ctx.expr_cache_stats() {
        counts.cache_bytes += stats.bytes as f64;
        counts.cache_fills += stats.fills as f64;
        counts.cache_hits += stats.hits as f64;
    }
    for (_, cell) in &cells {
        if cell.2 != "ok" {
            let i = EngineKind::ALL
                .iter()
                .position(|k| k.letter() == cell.1)
                .expect("engine letters come from EngineKind::ALL");
            counts.failed[i] += 1.0;
        }
    }
    cells.into_iter().map(|(_, cell)| cell).collect()
}

fn outcome_word(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Answers { .. } => "ok",
        CellOutcome::Failed(EvalError::Timeout) => "timeout",
        CellOutcome::Failed(EvalError::TooLarge(_)) => "too-large",
        CellOutcome::Failed(EvalError::Unsupported(_)) => "unsupported",
        CellOutcome::Failed(EvalError::Internal(_)) => "error",
    }
    .to_owned()
}

fn count(outcome: &CellOutcome) -> Option<u64> {
    match outcome {
        CellOutcome::Answers { count, .. } => Some(*count),
        CellOutcome::Failed(_) => None,
    }
}
