//! `serve`: a closed loop against the daemon, because benchmark clients
//! wait for each reply. `THREADS` (one) keep-alive connections drive an
//! in-process `gmark::serve::Server` with `WORKERS` workers and a
//! `CACHE_MB` snapshot cache. Requests follow Zipf(1.0) over `DISTINCT`
//! bib plans of `NODES` nodes with distinct seeds, built with
//! `RUN_THREADS` threads, and cycle through a fixed artifact mix. The
//! cache holds only part of the plans, so hits, builds and evictions
//! all happen: the median request is a `graph.nt` hit and the tail is a
//! build. Operation and item: one request.

use crate::calib::NEAREST;
use crate::common::{self, Measured, Op, Outcome, Params, TempDir};
use crate::trace::Tracer;
use gmark::core::gen::{generate_graph, GeneratorOptions};
use gmark::run::{run, Artifact, MemorySink, RunOptions, RunPlan};
use gmark::serve::http::{Client, ClientResponse};
use gmark::serve::json::{self, Json};
use gmark::serve::{ServeConfig, Server};
use gmark::stats::{DegreeSampler as _, Prng, Zipf};
use gmark::store::{EdgeSink as _, NTriplesWriter};
use gmark::translate::{stream_workload, WorkloadOutputs, WorkloadStreamOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const BIB_XML: &str = include_str!("../../examples/configs/bib.xml");
const NODES: u64 = 2_000;
const DISTINCT: usize = 128;
const ZIPF_EXPONENT: f64 = 1.0;
const WORKERS: usize = 2;
const CACHE_MB: usize = 20;
/// Threads of each build. With more than one, a 2000-node build spends
/// most of its time creating, writing and deleting the workload stage's
/// per-query scratch shards, and the tail latency then follows the file
/// system rather than the program; `generate` measures that pipeline at
/// a size where it pays.
const RUN_THREADS: usize = 1;
/// The artifact each request asks for, by its index modulo the length.
/// `graph.nt` is about 150 times the bytes of the other two, and about a
/// fifth of requests are builds, so latencies fall into three groups:
/// small hits, `graph.nt` hits and builds. With the three artifacts in
/// equal shares the median request sat on the edge between the first
/// two and moved with each seed's hit ratio; with `graph.nt` in four
/// requests of six it falls in the middle of the `graph.nt` hits.
const ARTIFACTS: [Artifact; 6] = [
    Artifact::Graph,
    Artifact::Sparql,
    Artifact::Graph,
    Artifact::Graph,
    Artifact::Summary,
    Artifact::Graph,
];

/// Untimed requests after set-up, so the cache reaches its steady mix
/// of hits and evictions before the window opens.
const WARMUP: usize = 1_000;
/// Requests per call of [`drive`] in the window, which ends after the
/// call in which `--seconds` have passed. The host's speed is sampled
/// between calls.
const BATCH: usize = 100;
/// Requests the window sends at most.
const MAX_REQUESTS: usize = 400_000;
/// Requests the traced run sends untraced and as many traced, in
/// alternating slices so both see the same drift of the machine.
const TRACED_REQUESTS: usize = 4_000;
const TRACE_SLICE: usize = 250;

/// One distinct plan: its seed and the digest of each artifact in the
/// mix, from a direct `run()`.
struct Plan {
    seed: u64,
    digests: [u64; ARTIFACTS.len()],
}

/// `summary.json` records stage wall times; everything else in it is a
/// pure function of the plan. Digest it with the times blanked out.
fn digest(artifact: Artifact, body: &[u8]) -> u64 {
    if artifact != Artifact::Summary {
        return common::fnv1a(common::FNV_OFFSET, body);
    }
    let text = String::from_utf8_lossy(body);
    let key = "\"seconds\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_ref();
    while let Some(at) = rest.find(key) {
        let (head, tail) = rest.split_at(at + key.len());
        out.push_str(head);
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    common::fnv1a(common::FNV_OFFSET, out.as_bytes())
}

fn served_plan() -> Result<RunPlan, String> {
    Ok(RunPlan::from_xml(BIB_XML)
        .map_err(|e| e.to_string())?
        .with_nodes(NODES))
}

/// The options a request asks the daemon for: the plan's seed and
/// `RUN_THREADS`, defaults for everything else.
fn served_options(seed: u64) -> RunOptions {
    RunOptions {
        seed: Some(seed),
        threads: RUN_THREADS,
        ..RunOptions::default()
    }
}

/// The reference outputs: every distinct plan run directly into a
/// `MemorySink`.
fn references(params: &Params) -> Result<Vec<Plan>, String> {
    let plan = served_plan()?;
    (0..DISTINCT)
        .map(|i| {
            let seed = common::derive_seed(params.seed, i);
            let mut sink = MemorySink::new();
            run(&plan, &served_options(seed), &mut sink).map_err(|e| e.to_string())?;
            let mut digests = [0; ARTIFACTS.len()];
            for (d, artifact) in digests.iter_mut().zip(ARTIFACTS) {
                let bytes = sink
                    .bytes(artifact)
                    .ok_or_else(|| format!("run() produced no {}", artifact.file_name()))?;
                *d = digest(artifact, &bytes);
            }
            Ok(Plan { seed, digests })
        })
        .collect()
}

fn path(plan: &Plan, artifact: Artifact) -> String {
    format!(
        "/v1/run?nodes={NODES}&seed={}&threads={RUN_THREADS}&artifact={}",
        plan.seed,
        artifact.file_name()
    )
}

/// A keep-alive connection that reconnects when the server announces a
/// close.
struct Connection {
    addr: std::net::SocketAddr,
    client: Option<Client>,
}

impl Connection {
    fn new(addr: std::net::SocketAddr) -> Connection {
        Connection { addr, client: None }
    }

    /// One request. A kept-alive connection may have been closed by the
    /// server since its last reply (idle timeout, or a worker yielding it
    /// to queued connections): like any HTTP client, retry such a stale
    /// connection once on a fresh one.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        let reused = self.client.is_some();
        match self.send(method, path, body) {
            Err(_) if reused => self.send(method, path, body),
            result => result,
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
        let mut client = match self.client.take() {
            Some(client) => client,
            None => Client::connect(self.addr)?,
        };
        let r = client.request(method, path, body)?;
        if !r.close_after() {
            self.client = Some(client);
        }
        Ok(r)
    }

    /// Sends one run request; returns its times and whether the response
    /// was a 200 carrying the reference bytes.
    /// With a tracer, the request is an `op` span whose one child is the
    /// round trip; the output check runs after both end.
    fn fire(&mut self, plan: &Plan, slot: usize, tracer: Option<&Tracer>) -> (Op, bool) {
        let artifact = ARTIFACTS[slot];
        let spans = tracer.map(|t| {
            let op = t.begin("op", None);
            (t, op, t.begin("serve.request", Some(op)))
        });
        let (response, op) =
            common::timed(|| self.request("POST", &path(plan, artifact), BIB_XML.as_bytes()));
        if let Some((t, op, request)) = spans {
            t.end(request);
            t.end(op);
        }
        let ok = match response {
            Ok(r) if r.status != 200 => {
                eprintln!(
                    "serve: status {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body).trim()
                );
                false
            }
            Ok(r) if digest(artifact, &r.body) != plan.digests[slot] => {
                eprintln!(
                    "serve: {} of seed {} differs from run()",
                    artifact.file_name(),
                    plan.seed
                );
                false
            }
            Ok(_) => true,
            Err(e) => {
                eprintln!("serve: request failed: {e}");
                false
            }
        };
        (op, ok)
    }
}

/// The request sequence: Zipf-skewed plan indices, drawn up front from
/// the seed so which plan is asked for never depends on timing.
fn sequence(seed: u64, len: usize) -> Vec<usize> {
    let mut prng = Prng::seed_from_u64(seed ^ 0x5E7E_0001);
    let zipf = Zipf::new(DISTINCT as u64, ZIPF_EXPONENT);
    (0..len)
        .map(|_| (zipf.sample(&mut prng) - 1) as usize)
        .collect()
}

/// Fires requests `range` of the sequence over the connections, each
/// claiming the next index when its previous reply is in. Returns the
/// wall time and one `(times, ok)` sample per request.
fn drive(
    conns: &mut [Connection],
    plans: &[Plan],
    seq: &[usize],
    range: std::ops::Range<usize>,
    tracer: Option<&Tracer>,
) -> (f64, Vec<(Op, bool)>) {
    let next = AtomicUsize::new(range.start);
    let samples = Mutex::new(Vec::with_capacity(range.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, samples, end) = (&next, &samples, range.end);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= end {
                    return;
                }
                let sample = conn.fire(&plans[seq[i]], i % ARTIFACTS.len(), tracer);
                samples.lock().expect("no sampler panics").push(sample);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (wall, samples.into_inner().expect("no sampler panics"))
}

/// Starts the daemon and touches every distinct plan once.
fn start(params: &Params, plans: &[Plan]) -> Result<Server, String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        cache_mb: CACHE_MB,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))?;
    let mut conns: Vec<Connection> = (0..params.threads)
        .map(|_| Connection::new(server.local_addr()))
        .collect();
    let order: Vec<usize> = (0..DISTINCT).collect();
    let (_, samples) = drive(&mut conns, plans, &order, 0..DISTINCT, None);
    if samples.iter().any(|(_, ok)| !ok) {
        server.shutdown();
        return Err("pre-touching the plans failed".to_owned());
    }
    Ok(server)
}

/// The `/v1/stats` counters the per-layer metrics are deltas of.
#[derive(Clone, Copy, Default)]
struct Stats {
    hits: f64,
    builds: f64,
    evictions: f64,
    rejected: f64,
    /// `(count, sum in us)` of the queue-wait, build and stream
    /// histograms.
    latency: [(f64, f64); 3],
}

impl Stats {
    /// Accumulates `sign * other`, so that summing `after - before` over
    /// several intervals gives the total over them.
    fn add(&mut self, other: &Stats, sign: f64) {
        self.hits += sign * other.hits;
        self.builds += sign * other.builds;
        self.evictions += sign * other.evictions;
        self.rejected += sign * other.rejected;
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            mine.0 += sign * theirs.0;
            mine.1 += sign * theirs.1;
        }
    }
}

/// Reads `/v1/stats` over a client's own kept-alive connection: a new
/// connection would wait in the queue until a worker's idle window ran
/// out.
fn stats(conn: &mut Connection) -> Result<Stats, String> {
    let r = conn
        .request("GET", "/v1/stats", b"")
        .map_err(|e| e.to_string())?;
    let doc = json::parse(&String::from_utf8_lossy(&r.body))?;
    let num = |path: &[&str]| -> f64 {
        let mut node: Option<&Json> = Some(&doc);
        for key in path {
            node = node.and_then(|n| n.get(key));
        }
        node.and_then(Json::as_u64).unwrap_or(0) as f64
    };
    let hist = |name: &str| {
        let count = num(&["latency", name, "count"]);
        // The histogram reports an integer mean; its product with the
        // count is the sum within `count` microseconds.
        (count, count * num(&["latency", name, "mean_us"]))
    };
    Ok(Stats {
        hits: num(&["cache", "hits"]),
        builds: num(&["cache", "builds"]),
        evictions: num(&["cache", "evictions"]),
        rejected: num(&["admission", "rejected"]),
        latency: [hist("queue_wait"), hist("build"), hist("stream")],
    })
}

pub fn run_workload(params: &Params) -> Result<Outcome, String> {
    let plans = references(params)?;
    let seq = sequence(params.seed, WARMUP + MAX_REQUESTS);
    let mut servers = Vec::new();
    let mut m = Measured::default();
    common::repeat_setup(&mut m, || {
        // Only the last set-up's server stays up.
        for server in servers.drain(..) {
            Server::shutdown(server);
        }
        servers.push(start(params, &plans)?);
        Ok(())
    })?;
    let server = servers.pop().expect("set-up ran");
    let addr = server.local_addr();
    let mut conns: Vec<Connection> = (0..params.threads).map(|_| Connection::new(addr)).collect();
    let (_, warm) = drive(&mut conns, &plans, &seq, 0..WARMUP, None);
    let mut failed = warm.iter().filter(|(_, ok)| !ok).count() as u64;
    let mut attempted = WARMUP as u64;

    let result = if params.trace {
        traced(params, &plans, &seq, &mut conns)
    } else {
        let window = Instant::now();
        let mut at = WARMUP;
        while at == WARMUP || window.elapsed().as_secs_f64() < params.seconds {
            if at + BATCH > seq.len() {
                break;
            }
            let reset = common::reset_peak_rss();
            let (_, samples) = drive(&mut conns, &plans, &seq, at..at + BATCH, None);
            if reset {
                m.rss_mb.push(common::peak_rss_mb());
            }
            at += BATCH;
            attempted += samples.len() as u64;
            failed += samples.iter().filter(|(_, ok)| !ok).count() as u64;
            m.items += samples.len() as u64;
            m.ops.extend(samples.iter().map(|(op, _)| *op));
            m.calib.maybe_sample();
        }
        m.calib.sample_n(NEAREST / 2 + 1);
        let mut out = Outcome::new(0, 0, true);
        out.end_to_end(&m);
        Ok(out)
    };
    drop(conns);
    server.shutdown();
    let mut out = result?;
    out.attempted += attempted;
    out.failed += failed;
    out.param("nodes", NODES);
    out.param("distinct_plans", DISTINCT);
    out.param("zipf_exponent", ZIPF_EXPONENT);
    out.param("clients", params.threads);
    out.param("loop", "closed, keep-alive");
    out.param("workers", WORKERS);
    out.param("cache_mb", CACHE_MB);
    out.param(
        "artifacts",
        "graph.nt,workload.sparql,graph.nt,graph.nt,summary.json,graph.nt (cycled)",
    );
    out.param("warmup_requests", WARMUP);
    out.param("batch", BATCH);
    out.param("run_threads", RUN_THREADS);
    Ok(out)
}

/// The traced run: `TRACED_REQUESTS` untraced, then as many traced with
/// a span per request and the server's own counters read around them,
/// then every distinct plan rebuilt once in-process from the layer calls
/// a build makes.
fn traced(
    params: &Params,
    plans: &[Plan],
    seq: &[usize],
    conns: &mut [Connection],
) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    // Untraced and traced batches alternate, so both see the same mix of
    // cache states; the server's counters are read around the traced
    // batches only.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut delta = Stats::default();
    let mut at = WARMUP;
    for _ in 0..TRACED_REQUESTS / TRACE_SLICE {
        untraced.extend(drive(conns, plans, seq, at..at + TRACE_SLICE, None).1);
        let before = stats(&mut conns[0])?;
        let slice = at + TRACE_SLICE..at + 2 * TRACE_SLICE;
        traced.extend(drive(conns, plans, seq, slice, Some(&tracer)).1);
        let after = stats(&mut conns[0])?;
        delta.add(&after, 1.0);
        delta.add(&before, -1.0);
        at += 2 * TRACE_SLICE;
    }

    let failed = untraced.iter().chain(&traced).filter(|(_, ok)| !ok).count() as u64;
    let mut out = Outcome::new(2 * TRACED_REQUESTS as u64, failed, true);
    let requests = TRACED_REQUESTS as f64;
    let mean_us = |i: usize| {
        let (count, sum) = delta.latency[i];
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    };
    let builds = delta.builds;
    let hits = delta.hits;
    let client_mean_us = tracer.seconds("serve.request") / requests * 1e6;
    let (queue, build, stream) = (mean_us(0), mean_us(1), mean_us(2));
    out.set("serve.queue_wait_mean_us", queue);
    out.set("serve.build_mean_us", build);
    out.set("serve.stream_mean_us", stream);
    // A request waits in the queue and streams every time but builds only
    // on a miss; what is left of the client's mean is the transport, the
    // request parse and the cache lookup.
    out.set(
        "serve.other_mean_us",
        client_mean_us - queue - stream - build * builds / requests,
    );
    out.set("serve.hit_ratio", hits / (hits + builds).max(1.0));
    out.set("serve.builds", builds);
    out.set("serve.evictions", delta.evictions);
    out.set("serve.rejected", delta.rejected);

    let (graph_s, workload_s) = replay_builds(params, plans, &tracer)?;
    out.set("build.graph_ms", graph_s * 1e3 / DISTINCT as f64);
    out.set("build.workload_ms", workload_s * 1e3 / DISTINCT as f64);

    let untraced_s: f64 = untraced.iter().map(|(op, _)| op.wall_ms / 1e3).sum();
    let traced_s: f64 = traced.iter().map(|(op, _)| op.wall_ms / 1e3).sum();
    crate::trace::finish(&mut out, &tracer, params, "serve", untraced_s, traced_s)?;
    Ok(out)
}

/// Rebuilds every distinct plan once at the requests' thread count, one
/// layer call at a time: the graph (generation plus N-Triples), then
/// the workload pipeline the daemon's `run()` streams through.
fn replay_builds(params: &Params, plans: &[Plan], tracer: &Tracer) -> Result<(f64, f64), String> {
    let plan = served_plan()?;
    let scratch = TempDir::new(params, "serve-builds")?;
    let wcfg = plan.workload.clone().ok_or("bib.xml has no <workload>")?;
    for p in plans {
        let opts = served_options(p.seed);
        let build = tracer.begin("build", None);
        tracer.time("build.graph", Some(build), || {
            let gen_opts = GeneratorOptions {
                seed: p.seed,
                threads: opts.threads,
                gaussian_fast_path: opts.gaussian_fast_path,
            };
            let (graph, _) = generate_graph(&plan.graph, &gen_opts);
            let mut writer = NTriplesWriter::with_base(
                Vec::new(),
                plan.graph.schema.predicate_names(),
                &opts.base_iri,
            );
            for pred in 0..graph.predicate_count() {
                for (src, trg) in graph.edges(pred) {
                    writer.edge(src, pred, trg);
                }
            }
            writer.finish().map_err(|e| e.to_string())
        })?;
        tracer.time("build.workload", Some(build), || {
            let mut w = wcfg.clone();
            w.seed = p.seed;
            let mut outs = WorkloadOutputs {
                rules: Vec::new(),
                sparql: Vec::new(),
                cypher: Vec::new(),
                sql: Vec::new(),
                datalog: Vec::new(),
            };
            let stream_opts = WorkloadStreamOptions {
                threads: opts.threads,
                scratch_dir: scratch.path().to_path_buf(),
            };
            stream_workload(&plan.graph.schema, &w, &stream_opts, &mut outs)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
        tracer.end(build);
    }
    Ok((
        tracer.seconds("build.graph"),
        tracer.seconds("build.workload"),
    ))
}
