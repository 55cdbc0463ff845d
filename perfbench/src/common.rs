//! What every workload shares: run parameters, the scratch directory,
//! exact order statistics, process counters, and the result line.

use crate::calib::{Calibrator, NEAREST};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Times a set-up is repeated; `setup_s` is the median, so one slow
/// repetition (a cold page cache, a burst of the host's load) does not
/// move it.
pub const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics, in print order, with their units. Every
/// workload reports every one of them (see README.md for what an
/// "item" and an "operation" are on each workload). The times are
/// reference times ([`crate::calib`]): CPU time, scaled by the host's
/// speed around it. On a shared host the wall time of the same work
/// moved with the neighbours' load by more than any bound a regression
/// check could use. CPU time leaves out the time the host ran someone
/// else on our CPUs (steal) and the time our threads waited for a CPU;
/// the scale takes out most of the rest.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_ref_s", "1/s"),
    ("p50_ref_ms", "ms"),
    ("tail_ref_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Worker threads of every stage that takes a count, and client
/// connections of `serve`. With one, the CPU time of an operation is
/// its work and nothing else: with two, the same instances cost 15%
/// more or less CPU time depending on whether the other CPU was busy.
pub const THREADS: usize = 1;

/// The per-layer metrics of the traced run, with their units. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("gen.s", "s"),
    ("gen.edges_per_s", "1/s"),
    ("ntriples.s", "s"),
    ("ntriples.mb_per_s", "MB/s"),
    ("store_write.s", "s"),
    ("store_write.mb_per_s", "MB/s"),
    ("workload.s", "s"),
    ("workload.queries_per_s", "1/s"),
    ("translate.s", "s"),
    ("translate.mb_per_s", "MB/s"),
    ("workload.stream_s", "s"),
    ("store_read.open_s", "s"),
    ("store_read.verify_s", "s"),
    ("store_read.syscr", "count"),
    ("store_read.mb", "MB"),
    ("eval.prewarm_s", "s"),
    ("eval.cache_fill_s", "s"),
    ("eval.cache_mb", "MB"),
    ("eval.cache_fills", "count"),
    ("eval.cache_hits", "count"),
    ("eval.plan_s", "s"),
    ("eval.cells_s.P", "s"),
    ("eval.cells_s.G", "s"),
    ("eval.cells_s.S", "s"),
    ("eval.cells_s.D", "s"),
    ("eval.failed.P", "count"),
    ("eval.failed.G", "count"),
    ("eval.failed.S", "count"),
    ("eval.failed.D", "count"),
    ("eval.cells_s.chain", "s"),
    ("eval.cells_s.star", "s"),
    ("eval.cells_s.cycle", "s"),
    ("eval.cells_s.starchain", "s"),
    ("serve.queue_wait_mean_us", "us"),
    ("serve.build_mean_us", "us"),
    ("serve.stream_mean_us", "us"),
    ("serve.other_mean_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.builds", "count"),
    ("serve.evictions", "count"),
    ("serve.rejected", "count"),
    ("build.graph_ms", "ms"),
    ("build.workload_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for every stage that takes a count.
    pub threads: usize,
    /// The CPUs this process may use, printed as context.
    pub nproc: usize,
    /// Scratch space inside the working directory (the benchmark reads
    /// and writes nothing outside it).
    pub work_dir: PathBuf,
    tmp: PathBuf,
}

impl Params {
    /// Also points the process's temporary directory into the work
    /// directory: the pipeline's scratch shards (`run()` with a sink
    /// that has no directory of its own, as in the daemon) land there
    /// instead of the system's.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Result<Params, String> {
        let work_dir = std::env::current_dir()
            .map_err(|e| format!("reading the working directory: {e}"))?
            .join(".perfbench");
        let tmp = work_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
        // Set before any thread starts, so no reader races the write.
        std::env::set_var("TMPDIR", &tmp);
        Ok(Params {
            seed,
            seconds,
            trace,
            threads: THREADS,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            work_dir,
            tmp,
        })
    }

    /// Removes the temporary directory, once nothing uses it any more.
    pub fn remove_tmp(&self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// A directory under [`Params::work_dir`] that is removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(params: &Params, tag: &str) -> Result<TempDir, String> {
        let path = params
            .work_dir
            .join(format!("{tag}-{}-{}", std::process::id(), params.seed));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Times `f` [`SETUP_REPEATS`] times into `m.setup`, with kernel
/// samples around each repetition, keeping the last result.
pub fn repeat_setup<T>(
    m: &mut Measured,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        m.calib.sample_n(NEAREST / 2 + 1);
        let (result, op) = timed(&mut f);
        last = Some(result?);
        m.setup.push(op);
    }
    m.calib.sample_n(NEAREST / 2 + 1);
    Ok(last.expect("SETUP_REPEATS > 0"))
}

/// The sample at quantile `q` by the nearest-rank rule: always one of
/// the measured values, never an interpolated or bucketed one.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest quantile, up to 0.99, that leaves at least ten of `n`
/// samples beyond it, and never below the median: 0.99 from 1000
/// samples on. Above it, a quantile is one or two outliers of the run.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// CPU seconds charged to every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Seconds since the process first asked.
pub fn clock_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The times of one operation.
#[derive(Clone, Copy, Default)]
pub struct Op {
    /// Midpoint on [`clock_s`].
    pub mid_s: f64,
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

/// Runs `f`, timing it on both clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Op) {
    let cpu = process_cpu_s();
    let started = clock_s();
    let out = f();
    let ended = clock_s();
    let op = Op {
        mid_s: (started + ended) / 2.0,
        wall_ms: (ended - started) * 1e3,
        cpu_ms: (process_cpu_s() - cpu) * 1e3,
    };
    (out, op)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Hands the heap's free memory back to the kernel, then resets this
/// process's peak resident set size (`VmHWM`) to its current size, so
/// that the next [`peak_rss_mb`] gives the peak of what runs in between.
/// Without the first step, memory an earlier operation freed but the
/// allocator kept would count towards every later one. False where the
/// kernel does not allow the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: malloc_trim only releases free heap memory.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `(syscr, rchar)` of this process: read syscalls and bytes read.
pub fn proc_io() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "syscr:").unwrap_or(0),
        proc_field("/proc/self/io", "rchar:").unwrap_or(0),
    )
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// FNV-1a, for output digests.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The `k`-th seed drawn from `seed` (a SplitMix64 step): distinct,
/// well-spread seeds for a workload's instances or plans.
pub fn derive_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The commit the checkout was made from, when it is a git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head,
        Err(_) => return "unknown".to_owned(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| "unknown".to_owned(), |c| c.trim().to_owned()),
        None => head.to_owned(),
    }
}

/// The untraced measurements every workload reduces to the end-to-end
/// metrics.
#[derive(Default)]
pub struct Measured {
    /// Each set-up repetition.
    pub setup: Vec<Op>,
    /// Every operation of the measured window, run one after another.
    pub ops: Vec<Op>,
    /// Items the window's operations completed.
    pub items: u64,
    /// The peak resident set size of each operation (each batch of
    /// requests, for `serve`), where it could be reset before it.
    pub rss_mb: Vec<f64>,
    /// The host's speed through set-up and window.
    pub calib: Calibrator,
}

/// What a workload hands back: counts, metric values, and context.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not per-operation (digests, trace fidelity).
    pub checks_ok: bool,
    pub metrics: BTreeMap<String, f64>,
    /// The workload's parameters, printed with the result.
    pub context: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, checks_ok: bool) -> Outcome {
        Outcome {
            attempted,
            failed,
            checks_ok,
            metrics: BTreeMap::new(),
            context: Vec::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_owned(), value.to_string()));
    }

    /// Fills the end-to-end metrics from the untraced measurements, and
    /// records the raw CPU and wall-clock figures of the same operations
    /// as context: the wall clock is what a user waits for, but on a
    /// shared host it follows the host's load as much as the program.
    pub fn end_to_end(&mut self, m: &Measured) {
        let ref_ms: Vec<f64> = m.ops.iter().map(|o| m.calib.ref_ms(o)).collect();
        let setup_s: Vec<f64> = m.setup.iter().map(|o| m.calib.ref_ms(o) / 1e3).collect();
        let wall: Vec<f64> = m.ops.iter().map(|o| o.wall_ms).collect();
        let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
        let (ref_s, wall_s) = (sum_s(&ref_ms), sum_s(&wall));
        self.set("setup_s", median(&setup_s));
        self.set("items_per_ref_s", m.items as f64 / ref_s.max(1e-9));
        let tail = tail_quantile(ref_ms.len());
        self.set("p50_ref_ms", quantile(&ref_ms, 0.50));
        self.set("tail_ref_ms", quantile(&ref_ms, tail));
        self.param("tail_quantile", format!("{tail:.4}"));
        // The peak of a whole run is the largest of many random
        // operations' peaks, and moved by a fifth between seeds on
        // `evaluate`; a high percentile of the operations' own peaks
        // does not.
        if m.rss_mb.is_empty() {
            self.set("peak_rss_mb", peak_rss_mb());
            self.param("peak_rss", "VmHWM of the process");
        } else {
            let q = tail_quantile(m.rss_mb.len());
            self.set("peak_rss_mb", quantile(&m.rss_mb, q));
            self.param(
                "peak_rss",
                format!("quantile {q:.4} of {} per-operation peaks", m.rss_mb.len()),
            );
        }
        let (kernel_ms, kernel_samples) = m.calib.summary();
        self.param("operations", m.ops.len());
        self.param("items", m.items);
        self.param("ref_s", format!("{ref_s:.4}"));
        self.param(
            "cpu_s",
            format!("{:.4}", m.ops.iter().map(|o| o.cpu_ms).sum::<f64>() / 1e3),
        );
        let [sort_ms, fault_ms, echo_ms] = m.calib.part_medians();
        self.param(
            "kernel_ms",
            format!(
                "{kernel_ms:.4} (median of {kernel_samples}; sort {sort_ms:.3}, \
                 faults {fault_ms:.3}, echo {echo_ms:.3})"
            ),
        );
        self.param("wall_s", format!("{wall_s:.4}"));
        self.param(
            "items_per_s",
            format!("{:.4}", m.items as f64 / wall_s.max(1e-9)),
        );
        self.param("p50_ms", format!("{:.4}", quantile(&wall, 0.50)));
        self.param("p99_ms", format!("{:.4}", quantile(&wall, 0.99)));
        let setup_wall: Vec<f64> = m.setup.iter().map(|o| o.wall_ms / 1e3).collect();
        self.param("setup_wall_s", format!("{:.4}", median(&setup_wall)));
    }

    /// Prints the context, one metric per line, and the result JSON as
    /// the last line of standard output.
    pub fn print(&self, workload: &str, params: &Params) {
        let table: &[(&str, &str)] = if params.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        println!("workload {workload}");
        println!("seed {}", params.seed);
        println!("nproc {}", params.nproc);
        println!("commit {}", commit());
        println!("trace {}", u8::from(params.trace));
        for (key, value) in &self.context {
            println!("param {key} {value}");
        }
        let mut json = String::new();
        for (name, unit) in table {
            let value = self.metrics.get(*name).copied().unwrap_or(0.0);
            println!("metric {name} {value} {unit}");
            if !json.is_empty() {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.failed == 0 && self.checks_ok;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.attempted, self.failed
        );
    }
}

/// Every digit Rust prints for an `f64` (shortest round-trip form), with
/// non-finite values clamped so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}
