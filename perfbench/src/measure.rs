//! Measurement plumbing: latency samples, failure tallies, spans, memory
//! and disk probes, and the record comparison every oracle check uses.

use siot_core::backend::TrustBackend;
use siot_core::error::TrustError;
use siot_core::record::TrustRecord;
use siot_core::store::TrustEngine;
use siot_core::task::TaskId;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failed call counts as missing every latency percentile: it is kept
/// in the samples as this sentinel, which sorts above any real latency.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-call latencies in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos().min(u128::from(FAILED - 1)) as u64);
    }

    pub fn push_failed(&mut self) {
        self.0.push(FAILED);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// The median over consecutive blocks of `block` calls of each
    /// block's `q`-quantile, in nanoseconds: the latency of a typical
    /// stretch of the run, which a burst of interference from outside the
    /// benchmark moves for one block only. Fewer than `block` calls form
    /// one block.
    pub fn block_quantile(&self, block: usize, q: f64) -> f64 {
        let mut per_block: Vec<f64> = self
            .0
            .chunks_exact(block)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                quantile(&c, q) as f64
            })
            .collect();
        if per_block.is_empty() {
            let mut all = self.0.clone();
            all.sort_unstable();
            per_block.push(quantile(&all, q) as f64);
        }
        median(&per_block)
    }

    /// `(p50, p99, count)` in nanoseconds.
    pub fn summary(&self) -> (u64, u64, usize) {
        let mut v = self.0.clone();
        v.sort_unstable();
        (quantile(&v, 0.50), quantile(&v, 0.99), v.len())
    }
}

/// One commit call as the client saw it: when it was sent and answered
/// (ns since the run's epoch) and how many sessions it acked (0 when it
/// failed).
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    pub start_ns: u64,
    pub end_ns: u64,
    pub sessions: u64,
}

/// Acked sessions per second in each whole `slice_ns` slice of the run,
/// by completion time. Robust figures use the median slice, so a burst of
/// interference from outside the benchmark moves one slice, not the run.
pub fn slice_rates(acks: &[Ack], slice_ns: u64, elapsed_ns: u64) -> Vec<f64> {
    let slices = (elapsed_ns / slice_ns) as usize;
    let mut sessions = vec![0u64; slices];
    for a in acks {
        if let Some(s) = sessions.get_mut((a.end_ns / slice_ns) as usize) {
            *s += a.sessions;
        }
    }
    sessions.iter().map(|&n| n as f64 * 1e9 / slice_ns as f64).collect()
}

/// Process CPU microseconds per acked session in each whole one-second
/// slice, given the CPU clock at the slice boundaries (`cpu_marks[k]` at
/// `k` seconds). Slices that acked nothing are skipped.
pub fn slice_cpu_us_per_session(acks: &[Ack], cpu_marks: &[u64]) -> Vec<f64> {
    let slices = cpu_marks.len().saturating_sub(1);
    let mut sessions = vec![0u64; slices];
    for a in acks {
        if let Some(s) = sessions.get_mut((a.end_ns / 1_000_000_000) as usize) {
            *s += a.sessions;
        }
    }
    sessions
        .iter()
        .zip(cpu_marks.windows(2))
        .filter(|(&n, _)| n > 0)
        .map(|(&n, w)| w[1].saturating_sub(w[0]) as f64 / 1e3 / n as f64)
        .collect()
}

/// Every call's `Result`, counted; failures keyed by `call:ErrorVariant`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<String, u64>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn err(&mut self, call: &str, e: &TrustError) {
        let debug = format!("{e:?}");
        self.fail(call, debug.split(['{', '(', ' ']).next().unwrap_or("Unknown"));
    }

    pub fn fail(&mut self, call: &str, kind: &str) {
        self.attempted += 1;
        self.failed += 1;
        *self.errors.entry(format!("{call}:{kind}")).or_default() += 1;
    }

    /// Counts `result` and hands back its value.
    pub fn count<T>(&mut self, call: &str, result: Result<T, TrustError>) -> Option<T> {
        match result {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.err(call, &e);
                None
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.errors {
            *self.errors.entry(k).or_default() += v;
        }
    }
}

/// One timed call at a layer boundary, recorded from the benchmark's side
/// of the call. `parent` indexes the same tracer's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub client: u32,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; a disabled tracer records nothing and costs a
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    client: u32,
    epoch: Instant,
    pub spans: Vec<Span>,
}

pub const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool, client: u32, epoch: Instant) -> Self {
        Tracer { on, client, epoch, spans: Vec::new() }
    }

    pub fn begin(&mut self, name: &'static str, id: u64, parent: usize) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = (parent != NO_SPAN).then_some(parent);
        self.spans.push(Span { name, client: self.client, id, parent, start_ns, end_ns: 0 });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        if span != NO_SPAN {
            self.spans[span].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// Per span name: `(count, mean duration ns, mean self time ns)`, where
/// self time is the span's duration minus that of its direct children.
pub fn span_summary(tracers: &[Vec<Span>]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut acc: BTreeMap<&'static str, (u64, u128, i128)> = BTreeMap::new();
    for spans in tracers {
        let mut child_ns = vec![0u128; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += u128::from(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = u128::from(s.end_ns.saturating_sub(s.start_ns));
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur as i128 - child_ns[i] as i128;
        }
    }
    acc.into_iter()
        .map(|(k, (n, dur, own))| (k, (n, dur as f64 / n as f64, own as f64 / n as f64)))
        .collect()
}

/// Writes spans as JSON lines, at most `cap` of them per client.
pub fn write_spans(path: &Path, tracers: &[Vec<Span>], cap: usize) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for spans in tracers {
        for s in spans.iter().take(cap) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"client\":{},\"id\":{},\"index\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.client,
                s.id,
                written,
                parent,
                s.start_ns,
                s.end_ns
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}

/// CPU time every thread of this process has used so far, exited threads
/// included, in nanoseconds. Unlike wall time it does not count time the
/// machine gave to other tenants, so it measures the work the program did.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: clock_gettime writes one `struct timespec` through the
    // pointer, which points to a live local with that C layout: on 64-bit
    // Linux both `time_t` and `long` are 64-bit signed integers.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process CPU nanoseconds per round trip of a two-thread ping-pong over
/// std channels: the machine's current cost of handing work between
/// threads, independent of the program under test. Other tenants slow
/// it down about as much as they slow the serving stack, whose cost per
/// session is dominated by the same hand-offs (clients, actors, wire
/// threads). A ping-pong costs less when the scheduler happens to put
/// both threads on one CPU, so this is the median of several, each on a
/// fresh pair of threads.
pub fn roundtrip_cpu_ns() -> f64 {
    let samples: Vec<f64> = (0..8).map(|_| ping_pong_cpu_ns(2_500)).collect();
    median(&samples)
}

fn ping_pong_cpu_ns(trips: u64) -> f64 {
    use std::sync::mpsc::channel;
    let (to_b, from_a) = channel::<u64>();
    let (to_a, from_b) = channel::<u64>();
    let start = process_cpu_ns();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = from_a.recv() {
            if to_a.send(v + 1).is_err() {
                break;
            }
        }
    });
    for i in 0..trips {
        to_b.send(i).expect("echo alive");
        from_b.recv().expect("echo alive");
    }
    drop(to_b);
    echo.join().expect("echo thread");
    (process_cpu_ns() - start) as f64 / trips as f64
}

/// Resets this process's peak resident memory (`VmHWM`) to its current
/// resident size, so a later peak covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `(VmRSS, VmHWM)` of this process in bytes; zeros where `/proc` is
/// unavailable.
pub fn rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Total size of the regular files under `dir`, and how many there are.
pub fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(m) if m.is_dir() => {
                    let (b, f) = dir_bytes(&path);
                    bytes += b;
                    files += f;
                }
                Ok(m) => {
                    bytes += m.len();
                    files += 1;
                }
                Err(_) => {}
            }
        }
    }
    (bytes, files)
}

pub type RecordRow = (u32, TaskId, [u64; 5]);

/// Every stored record of `engine`, bit-exact, for comparison.
pub fn records<B: TrustBackend<u32>>(engine: &TrustEngine<u32, B>, out: &mut Vec<RecordRow>) {
    engine.for_each_stored_record(|peer, task, r: TrustRecord| {
        let bits = [
            r.s_hat.to_bits(),
            r.g_hat.to_bits(),
            r.d_hat.to_bits(),
            r.c_hat.to_bits(),
            r.interactions,
        ];
        out.push((peer, task, bits));
    });
}

/// Checks two record sets are bit-identical (order-insensitive).
pub fn same_records(
    what: &str,
    mut served: Vec<RecordRow>,
    mut oracle: Vec<RecordRow>,
) -> Result<(), String> {
    served.sort_unstable_by_key(|r| (r.0, r.1));
    oracle.sort_unstable_by_key(|r| (r.0, r.1));
    if served.len() != oracle.len() {
        return Err(format!(
            "{what}: {} served records, oracle has {}",
            served.len(),
            oracle.len()
        ));
    }
    match served.iter().zip(&oracle).find(|(a, b)| a != b) {
        None => Ok(()),
        Some((a, b)) => Err(format!("{what}: served {a:?} differs from oracle {b:?}")),
    }
}

/// A background thread that polls `sample` every `every` until stopped —
/// the traced run's view of saturation and replica lag.
pub struct Sampler<T: Send + 'static> {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<T>>,
}

impl<T: Send + 'static> Sampler<T> {
    pub fn start(every: Duration, mut sample: impl FnMut() -> T + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                seen.push(sample());
                std::thread::sleep(every);
            }
            seen
        });
        Sampler { stop, thread }
    }

    pub fn finish(self) -> Vec<T> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("sampler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn failed_calls_sort_last() {
        let mut s = Samples::default();
        for _ in 0..99 {
            s.push(Duration::from_micros(5));
        }
        s.push_failed();
        s.push_failed();
        let (p50, p99, n) = s.summary();
        assert_eq!((p50, n), (5_000, 101));
        assert_eq!(p99, FAILED);
    }

    #[test]
    fn block_p99_is_the_median_block() {
        let mut s = Samples::default();
        for block in 0..3u64 {
            for i in 0..100u64 {
                s.push(Duration::from_nanos(if i == 99 { 1_000 * (block + 1) } else { 1 }));
            }
        }
        // each block's p99 is its 99th call; the blocks read 1, 1, 1
        assert_eq!(s.block_quantile(100, 0.99), 1.0);
        assert_eq!(s.block_quantile(100, 1.0), 2_000.0);
        assert_eq!(s.block_quantile(1_000, 0.99), 1.0);
        assert_eq!(s.block_quantile(1_000, 1.0), 3_000.0);
    }

    #[test]
    fn slices_count_sessions_by_completion() {
        let acks = [
            Ack { start_ns: 0, end_ns: 10, sessions: 4 },
            Ack { start_ns: 0, end_ns: 1_500, sessions: 2 },
            Ack { start_ns: 0, end_ns: 2_500, sessions: 9 },
        ];
        assert_eq!(slice_rates(&acks, 1_000, 2_600), vec![4e6, 2e6]);
    }

    #[test]
    fn cpu_per_session_by_slice() {
        let acks = [
            Ack { start_ns: 0, end_ns: 500_000_000, sessions: 4 },
            Ack { start_ns: 0, end_ns: 1_500_000_000, sessions: 2 },
            Ack { start_ns: 0, end_ns: 2_500_000_000, sessions: 9 },
        ];
        // two whole slices: 8 ms of CPU over 4 sessions, 2 ms over 2
        let marks = [1_000_000, 9_000_000, 11_000_000];
        assert_eq!(slice_cpu_us_per_session(&acks, &marks), vec![2_000.0, 1_000.0]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "round", client: 0, id: 0, parent: None, start_ns: 0, end_ns: 100 },
            Span { name: "read", client: 0, id: 0, parent: Some(0), start_ns: 10, end_ns: 40 },
            Span { name: "commit", client: 0, id: 0, parent: Some(0), start_ns: 50, end_ns: 90 },
        ];
        let s = span_summary(&[spans]);
        assert_eq!(s["round"], (1, 100.0, 30.0));
        assert_eq!(s["read"], (1, 30.0, 30.0));
    }
}
