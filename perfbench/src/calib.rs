//! The host's speed, measured while a workload runs by a fixed
//! computation of the benchmark's own, so that the cost of an operation
//! can be given on a scale that stays put when the host speeds up or
//! slows down.
//!
//! On a shared host the CPU time of the same work moves with the load
//! of other tenants on the same cores and caches: one `evaluate`
//! instance, repeated for two and a half minutes, cost between 36 and
//! 60 CPU ms in different ten-second windows. Sorting a fixed array
//! slowed down and sped up with it: the ratio of the two moved by a
//! fifth as much. Requests to the daemon are short bursts of work between
//! waits for the network, and under heavy steal their CPU time rose by a
//! third while the sort's barely moved; so the kernel also faults in
//! fresh pages and makes fixed request/response round trips over a
//! loopback TCP connection. The
//! program cannot change the kernel's cost, so a faster program shows as
//! a lower ratio.

use crate::common::{self, median, Op};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;

/// Elements the kernel sorts: 1 MiB of `u64`.
const KERNEL_LEN: usize = 1 << 17;
/// Bytes whose pages the kernel faults in: 256 pages.
const FAULT_BYTES: usize = 1 << 20;
/// Round trips the kernel makes, each a small request and a reply of
/// [`REPLY_BYTES`].
const ROUND_TRIPS: usize = 200;
const REQUEST_BYTES: usize = 100;
const REPLY_BYTES: usize = 2048;
/// The CPU time one kernel run is taken to cost at reference speed:
/// about its median beside `evaluate` on the host the benchmark was
/// tuned on (2 vCPUs of an Intel Xeon at 2.0 GHz).
pub const REF_KERNEL_MS: f64 = 6.5;
/// An operation is scaled by the median of this many kernel samples,
/// those nearest in time to its midpoint.
pub const NEAREST: usize = 9;
/// While operations run, a kernel sample is taken after an operation
/// once this long has passed since the last one.
const EVERY_S: f64 = 0.1;

#[derive(Default)]
pub struct Calibrator {
    /// `(midpoint, CPU ms)` of every kernel run, in time order.
    samples: Vec<(f64, f64)>,
    /// The echo thread and the connection to it, made on first use.
    echo: Option<(TcpStream, JoinHandle<()>)>,
    /// The array the kernel sorts and the region whose pages it faults
    /// in, allocated once so that the kernel's cost does not depend on
    /// the state of the heap.
    array: Vec<u64>,
    region: Vec<u8>,
    /// CPU ms of each part of every kernel run: sort, faults, echo.
    parts: Vec<[f64; 3]>,
}

impl Calibrator {
    /// Runs the kernel once and records its cost.
    pub fn sample(&mut self) {
        if self.echo.is_none() {
            self.echo = Some(start_echo());
        }
        let (conn, _) = self.echo.as_mut().expect("started above");
        let (array, region) = (&mut self.array, &mut self.region);
        let (parts, op) = common::timed(|| {
            [
                common::timed(|| sort(array)).1.cpu_ms,
                common::timed(|| fault_in(region)).1.cpu_ms,
                common::timed(|| round_trips(conn)).1.cpu_ms,
            ]
        });
        self.samples.push((op.mid_s, op.cpu_ms));
        self.parts.push(parts);
    }

    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Samples when [`EVERY_S`] have passed since the last sample.
    pub fn maybe_sample(&mut self) {
        let last = self.samples.last().map_or(f64::NEG_INFINITY, |s| s.0);
        if common::clock_s() - last >= EVERY_S {
            self.sample();
        }
    }

    /// The reference cost of `op`: its CPU time scaled by how much
    /// faster or slower than reference speed the host ran around it.
    pub fn ref_ms(&self, op: &Op) -> f64 {
        op.cpu_ms * REF_KERNEL_MS / self.kernel_ms_at(op.mid_s)
    }

    /// The median cost of the [`NEAREST`] kernel samples nearest `at_s`.
    fn kernel_ms_at(&self, at_s: f64) -> f64 {
        assert!(!self.samples.is_empty(), "no kernel samples were taken");
        let after = self.samples.partition_point(|s| s.0 < at_s);
        let (mut lo, mut hi) = (after, after);
        while hi - lo < NEAREST && (lo > 0 || hi < self.samples.len()) {
            let take_lo = lo > 0
                && (hi == self.samples.len()
                    || at_s - self.samples[lo - 1].0 <= self.samples[hi].0 - at_s);
            if take_lo {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        median(&near)
    }

    /// The median of every sample, and how many there are.
    pub fn summary(&self) -> (f64, usize) {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        (median(&all), all.len())
    }

    /// The median of each part: sort, faults, echo.
    pub fn part_medians(&self) -> [f64; 3] {
        let part = |i: usize| median(&self.parts.iter().map(|p| p[i]).collect::<Vec<_>>());
        [part(0), part(1), part(2)]
    }
}

impl Drop for Calibrator {
    /// Closes the connection, which ends the echo thread, and waits for
    /// it.
    fn drop(&mut self) {
        if let Some((conn, thread)) = self.echo.take() {
            drop(conn);
            let _ = thread.join();
        }
    }
}

/// A thread that answers every [`REQUEST_BYTES`]-byte request on one
/// loopback connection with [`REPLY_BYTES`] bytes, until it closes.
fn start_echo() -> (TcpStream, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding a loopback port");
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address");
    let thread = std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_nodelay(true);
        let mut request = [0u8; REQUEST_BYTES];
        let reply = [7u8; REPLY_BYTES];
        while conn.read_exact(&mut request).is_ok() && conn.write_all(&reply).is_ok() {}
    });
    let conn = TcpStream::connect(addr).expect("connecting to the echo thread");
    conn.set_nodelay(true).expect("setting TCP_NODELAY");
    (conn, thread)
}

fn round_trips(conn: &mut TcpStream) {
    let request = [1u8; REQUEST_BYTES];
    let mut reply = [0u8; REPLY_BYTES];
    for _ in 0..ROUND_TRIPS {
        conn.write_all(&request).expect("the echo thread is up");
        conn.read_exact(&mut reply).expect("the echo thread is up");
    }
}

extern "C" {
    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
}

/// Drops the pages of the page-aligned part of `region` and touches
/// each again, so that every touch is a fresh page fault, as when a
/// program grows its heap.
fn fault_in(region: &mut Vec<u8>) {
    const PAGE: usize = 4096;
    const MADV_DONTNEED: i32 = 4;
    if region.is_empty() {
        region.resize(FAULT_BYTES + PAGE, 0);
    }
    let offset = region.as_ptr().align_offset(PAGE);
    let pages = &mut region[offset..offset + FAULT_BYTES];
    // SAFETY: `pages` is a page-aligned range of memory this Vec owns;
    // after MADV_DONTNEED its pages read as zero, which is valid u8.
    let rc = unsafe { madvise(pages.as_mut_ptr(), FAULT_BYTES, MADV_DONTNEED) };
    assert_eq!(rc, 0, "madvise(MADV_DONTNEED) failed");
    for page in pages.chunks_mut(PAGE) {
        page[0] = 1;
    }
    std::hint::black_box(&pages);
}

/// Fills `array` with a fixed pseudo-random sequence and sorts it: the
/// same work on every call.
fn sort(array: &mut Vec<u64>) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    array.clear();
    array.extend((0..KERNEL_LEN).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }));
    array.sort_unstable();
    std::hint::black_box(&array);
}
