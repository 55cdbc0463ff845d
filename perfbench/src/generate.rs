//! `generate`: the CLI's main path — `bib.xml` at `GEN_NODES` nodes,
//! sorted N-Triples plus the paged store plus a `QUERIES`-query workload
//! in five syntaxes, written through `DirSink` into a fresh directory.
//! Operation: one `run()`. Item: one edge written.

use crate::calib::NEAREST;
use crate::common::{self, Measured, Op, Outcome, Params, TempDir};
use crate::trace::Tracer;
use gmark::core::gen::{generate_graph, GeneratorOptions};
use gmark::core::workload::generate_workload_with_threads;
use gmark::run::{run, run_in_memory, Artifact, DirSink, RunOptions, RunPlan};
use gmark::store::{
    EdgeSink as _, NTriplesWriter, StoreMeta, StoreReader, StoreWriter, TypePartition,
    DEFAULT_PAGE_SIZE,
};
use gmark::translate::{stream_workload, write_workload, WorkloadOutputs, WorkloadStreamOptions};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const BIB_XML: &str = include_str!("../../examples/configs/bib.xml");
const GEN_NODES: u64 = 500_000;
/// A tenth of the paper's §6.2 workload size: at 1000 queries the
/// workload stage's per-query scratch files took three quarters of a
/// pass, and its time followed the file system more than the program.
const QUERIES: usize = 100;
/// The set-up's warm-up builds graph and workload in memory, this many
/// times smaller in nodes and in queries. It writes no file: file-system
/// latency on a shared machine made a writing warm-up vary threefold.
const WARMUP_DIVISOR: u64 = 4;
/// Seed of the warm-up run: fixed, so set-up does the same work on
/// every `--seed`.
const WARMUP_SEED: u64 = 1;

fn plan(nodes: u64, queries: usize) -> Result<RunPlan, String> {
    let mut plan = RunPlan::from_xml(BIB_XML).map_err(|e| e.to_string())?;
    plan = plan.with_nodes(nodes);
    plan.outputs.store = true;
    plan.workload
        .as_mut()
        .ok_or("bib.xml has no <workload> section")?
        .size = queries;
    plan.validate().map_err(|e| e.to_string())?;
    Ok(plan)
}

/// What one pass left on disk, for the output checks and the
/// traced-vs-untraced comparison.
#[derive(Debug, PartialEq)]
struct Written {
    edges: u64,
    ntriples_bytes: u64,
    store_bytes: u64,
    workload_bytes: u64,
}

/// The output checks: the store opens, passes its full integrity check,
/// and holds exactly the edges the run reports writing.
fn check(dir: &Path, edges_written: u64) -> Result<Written, String> {
    let store = dir.join(Artifact::Store.file_name());
    let reader = StoreReader::open(&store).map_err(|e| e.to_string())?;
    reader.verify().map_err(|e| e.to_string())?;
    if reader.edge_count() != edges_written {
        return Err(format!(
            "store holds {} edges, run wrote {edges_written}",
            reader.edge_count()
        ));
    }
    let size = |a: Artifact| std::fs::metadata(dir.join(a.file_name())).map_or(0, |m| m.len());
    Ok(Written {
        edges: edges_written,
        ntriples_bytes: size(Artifact::Graph),
        store_bytes: size(Artifact::Store),
        workload_bytes: [
            Artifact::Rules,
            Artifact::Sparql,
            Artifact::Cypher,
            Artifact::Sql,
            Artifact::Datalog,
        ]
        .into_iter()
        .map(size)
        .sum(),
    })
}

/// One untraced operation: `run()` into a fresh directory, timed; then
/// the checks, untimed.
fn pass(
    params: &Params,
    plan: &RunPlan,
    opts: &RunOptions,
) -> Result<(Op, Result<Written, String>), String> {
    let dir = TempDir::new(params, "generate")?;
    let mut sink = DirSink::new(dir.path()).map_err(|e| e.to_string())?;
    let (summary, op) = common::timed(|| run(plan, opts, &mut sink));
    let summary = summary.map_err(|e| e.to_string())?;
    let edges = summary.graph.map_or(0, |g| g.edges_written);
    Ok((op, check(dir.path(), edges)))
}

pub fn run_workload(params: &Params) -> Result<Outcome, String> {
    let opts = RunOptions::with_seed(params.seed).threads(params.threads);
    let mut m = Measured::default();
    let plan = common::repeat_setup(&mut m, || {
        let mut warm = plan(
            GEN_NODES / WARMUP_DIVISOR,
            QUERIES / WARMUP_DIVISOR as usize,
        )?;
        warm.outputs.store = false;
        run_in_memory(
            &warm,
            &RunOptions::with_seed(WARMUP_SEED).threads(params.threads),
        )
        .map_err(|e| e.to_string())?;
        plan(GEN_NODES, QUERIES)
    })?;

    let mut out = if params.trace {
        traced(params, &plan, &opts)?
    } else {
        let (mut attempted, mut failed) = (0, 0);
        let window = Instant::now();
        while attempted < 2 || window.elapsed().as_secs_f64() < params.seconds {
            let reset = common::reset_peak_rss();
            let (op, checked) = pass(params, &plan, &opts)?;
            if reset {
                m.rss_mb.push(common::peak_rss_mb());
            }
            attempted += 1;
            match checked {
                Ok(w) => m.items += w.edges,
                Err(e) => {
                    eprintln!("generate: check failed: {e}");
                    failed += 1;
                }
            }
            m.ops.push(op);
            // An operation takes seconds: sample the host's speed
            // between every two, so each is scaled by samples taken
            // just before and just after it.
            m.calib.sample_n(NEAREST / 2 + 1);
        }
        let mut out = Outcome::new(attempted, failed, true);
        out.end_to_end(&m);
        out
    };
    out.param("nodes", GEN_NODES);
    out.param("queries", QUERIES);
    out.param("threads", params.threads);
    out.param(
        "outputs",
        "graph.nt+graph.gstore+workload.{txt,sparql,cypher,sql,datalog}",
    );
    Ok(out)
}

/// The traced run: untraced passes for reference, alternating with the
/// same pass rebuilt from the layers' public functions with a span
/// around each call.
fn traced(params: &Params, plan: &RunPlan, opts: &RunOptions) -> Result<Outcome, String> {
    // Each pass leaves ~100 MB for the kernel to write back while the
    // next one runs, so traced and untraced passes alternate which goes
    // first.
    const REPLAYS: usize = 4;
    let tracer = Tracer::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut failed = 0;
    let mut same = true;
    let mut written = None;
    let (mut syscr, mut read_bytes) = (0, 0);
    for i in 0..REPLAYS {
        let mut untraced = || -> Result<Written, String> {
            let (op, checked) = pass(params, plan, opts)?;
            untraced_s += op.wall_ms / 1e3;
            checked.map_err(|e| format!("untraced check failed: {e}"))
        };
        let first = if i % 2 == 0 { Some(untraced()?) } else { None };

        let dir = TempDir::new(params, "generate-traced")?;
        let op = tracer.begin("op", None);
        let started = Instant::now();
        let replayed = replay(&tracer, op, plan, opts, dir.path());
        traced_s += started.elapsed().as_secs_f64();
        tracer.end(op);
        replayed?;
        let (calls, bytes) = side(&tracer, plan, opts, dir.path())?;
        syscr += calls;
        read_bytes += bytes;

        let reference = match first {
            Some(w) => w,
            None => untraced()?,
        };
        match check(dir.path(), reference.edges) {
            Ok(w) => same &= w == reference,
            Err(e) => {
                eprintln!("generate: traced check failed: {e}");
                failed += 1;
            }
        }
        written = Some(reference);
    }
    let w = written.expect("REPLAYS > 0");
    let n = REPLAYS as f64;
    let per = |name: &str| tracer.seconds(name) / n;
    let mut out = Outcome::new(REPLAYS as u64, failed, same);
    out.set("gen.s", per("gen"));
    out.set("gen.edges_per_s", w.edges as f64 / per("gen"));
    out.set("ntriples.s", per("ntriples"));
    out.set(
        "ntriples.mb_per_s",
        w.ntriples_bytes as f64 / 1e6 / per("ntriples"),
    );
    out.set("store_write.s", per("store_write"));
    out.set(
        "store_write.mb_per_s",
        w.store_bytes as f64 / 1e6 / per("store_write"),
    );
    out.set("workload.s", per("workload"));
    out.set("workload.queries_per_s", QUERIES as f64 / per("workload"));
    out.set("translate.s", per("translate"));
    out.set(
        "translate.mb_per_s",
        w.workload_bytes as f64 / 1e6 / per("translate"),
    );
    out.set("workload.stream_s", per("workload_stream"));
    out.set("store_read.open_s", per("store_read.open"));
    out.set("store_read.verify_s", per("store_read.verify"));
    out.set("store_read.syscr", syscr as f64 / n);
    out.set("store_read.mb", read_bytes as f64 / 1e6 / n);
    crate::trace::finish(&mut out, &tracer, params, "generate", untraced_s, traced_s)?;
    if !same {
        eprintln!("generate: the traced pass wrote different outputs than run()");
    }
    Ok(out)
}

/// What `run()` does for this plan, one layer call at a time.
fn replay(
    tracer: &Tracer,
    op: usize,
    plan: &RunPlan,
    opts: &RunOptions,
    dir: &Path,
) -> Result<(), String> {
    let seed = opts.graph_seed();
    let gen_opts = GeneratorOptions {
        seed,
        threads: opts.threads,
        gaussian_fast_path: opts.gaussian_fast_path,
    };
    let schema = &plan.graph.schema;
    let (graph, _) = tracer.time("gen", Some(op), || generate_graph(&plan.graph, &gen_opts));

    tracer.time("ntriples", Some(op), || -> Result<(), String> {
        let file = std::fs::File::create(dir.join(Artifact::Graph.file_name()))
            .map_err(|e| e.to_string())?;
        let mut writer = NTriplesWriter::with_base(
            std::io::BufWriter::new(file),
            schema.predicate_names(),
            &opts.base_iri,
        );
        for pred in 0..graph.predicate_count() {
            for (src, trg) in graph.edges(pred) {
                writer.edge(src, pred, trg);
            }
        }
        writer.finish().map_err(|e| e.to_string())?;
        Ok(())
    })?;

    tracer.time("store_write", Some(op), || {
        let meta = StoreMeta {
            seed,
            schema_hash: schema.schema_hash(),
            page_size: DEFAULT_PAGE_SIZE,
            predicate_names: schema.predicate_names(),
            partition: TypePartition::from_counts(&plan.graph.node_counts()),
        };
        StoreWriter::write_graph(&dir.join(Artifact::Store.file_name()), &meta, &graph)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    drop(graph);

    let mut wcfg = plan.workload.clone().expect("plan() sets a workload");
    wcfg.seed = seed;
    // The workload stage as run() executes it: queries generated and
    // rendered together through per-query scratch shards.
    tracer.time("workload_stream", Some(op), || -> Result<(), String> {
        let mut outs = workload_files(dir, "")?;
        let stream_opts = WorkloadStreamOptions {
            threads: opts.threads,
            scratch_dir: dir.to_path_buf(),
        };
        stream_workload(schema, &wcfg, &stream_opts, &mut outs).map_err(|e| e.to_string())?;
        flush_all(&mut outs)
    })
}

/// Side measurements outside the operation: the workload stage split
/// into its two layers, and the written store read back in full (`run()`
/// only writes it; this is where the paged reader's cost shows). Returns
/// the read syscalls and bytes of the read-back.
fn side(
    tracer: &Tracer,
    plan: &RunPlan,
    opts: &RunOptions,
    dir: &Path,
) -> Result<(u64, u64), String> {
    let schema = &plan.graph.schema;
    let mut wcfg = plan.workload.clone().expect("plan() sets a workload");
    wcfg.seed = opts.graph_seed();
    let split = tracer.begin("workload_split", None);
    let (workload, _) = tracer
        .time("workload", Some(split), || {
            generate_workload_with_threads(schema, &wcfg, opts.threads)
        })
        .map_err(|e| e.to_string())?;
    tracer.time("translate", Some(split), || -> Result<(), String> {
        let mut outs = workload_files(dir, ".split")?;
        write_workload(schema, &workload.queries, &mut outs).map_err(|e| e.to_string())?;
        flush_all(&mut outs)
    })?;
    tracer.end(split);

    let read = tracer.begin("store_read", None);
    let before = common::proc_io();
    let reader = tracer
        .time("store_read.open", Some(read), || {
            StoreReader::open(&dir.join(Artifact::Store.file_name()))
        })
        .map_err(|e| e.to_string())?;
    tracer
        .time("store_read.verify", Some(read), || reader.verify())
        .map_err(|e| e.to_string())?;
    let after = common::proc_io();
    tracer.end(read);
    Ok((after.0 - before.0, after.1 - before.1))
}

type Files = WorkloadOutputs<std::io::BufWriter<std::fs::File>>;

/// The five workload documents in `dir`, their names ending in `suffix`.
fn workload_files(dir: &Path, suffix: &str) -> Result<Files, String> {
    let open = |a: Artifact| {
        std::fs::File::create(dir.join(format!("{}{suffix}", a.file_name())))
            .map(std::io::BufWriter::new)
            .map_err(|e| e.to_string())
    };
    Ok(WorkloadOutputs {
        rules: open(Artifact::Rules)?,
        sparql: open(Artifact::Sparql)?,
        cypher: open(Artifact::Cypher)?,
        sql: open(Artifact::Sql)?,
        datalog: open(Artifact::Datalog)?,
    })
}

fn flush_all(outs: &mut Files) -> Result<(), String> {
    for w in [
        &mut outs.rules,
        &mut outs.sparql,
        &mut outs.cypher,
        &mut outs.sql,
        &mut outs.datalog,
    ] {
        w.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}
