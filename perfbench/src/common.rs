//! What the three workloads share: run configuration, the result of one
//! pass, the closed-loop window client, and the sequential oracle fold.

use crate::gen::{self, KeySpace, Stream};
use crate::measure::{Ack, Sampler, Samples, Span, Tally, Tracer, NO_SPAN};
use siot_core::delegation::{CompletedDelegation, DelegationReceipt};
use siot_core::error::TrustError;
use siot_core::record::ForgettingFactors;
use siot_core::service::{block_on, ShardStats, ShardedTrustServiceHandle};
use siot_core::store::TrustStore;
use siot_core::task::Task;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Closed-loop clients per workload, one thread each.
pub const CLIENTS: u32 = 2;

/// Each workload builds its serving stack at least `SETUPS` times and
/// for at least `SETUP_SECONDS` (at most `MAX_SETUPS` times), reports the
/// median set-up, and keeps the last stack for the run.
const SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 200;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Scratch space for journals and span files, inside the checkout.
    pub out: PathBuf,
    /// Whether this pass records spans and samples layer counters.
    pub trace: bool,
}

impl Config {
    pub fn deadline(&self, epoch: Instant) -> Instant {
        epoch + Duration::from_secs_f64(self.seconds)
    }
}

/// Everything one pass of one workload measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Wall seconds each set-up took.
    pub setup: Vec<f64>,
    /// Process CPU seconds each set-up used.
    pub setup_cpu: Vec<f64>,
    /// Process CPU nanoseconds used from the first client call to the
    /// last ack.
    pub run_cpu_ns: u64,
    /// [`crate::measure::roundtrip_cpu_ns`] around this pass: the mean of
    /// one reading before and one after.
    pub roundtrip_ns: f64,
    /// Process CPU nanoseconds at the run's start and at each whole second
    /// after it, up to the deadline.
    pub cpu_marks: Vec<u64>,
    /// From the first client call to the last ack.
    pub elapsed_s: f64,
    /// Acked sessions.
    pub commits: u64,
    pub rounds: u64,
    pub commit: Samples,
    /// Every commit call with its timing, for per-slice throughput.
    pub acks: Vec<Ack>,
    pub round: Samples,
    pub read: Samples,
    pub decide: Samples,
    /// The process's peak resident memory when the run ended.
    pub peak_rss_bytes: u64,
    pub reopen_s: Option<f64>,
    pub disk_bytes_per_record: Option<f64>,
    pub tally: Tally,
    /// Failed correctness checks; empty means every check passed.
    pub check_failures: Vec<String>,
    /// Per-layer values this pass measured (filled on traced passes).
    pub layer: BTreeMap<&'static str, f64>,
    pub spans: Vec<Vec<Span>>,
    /// Input and configuration stamp: sizes, key counts, policies.
    pub inputs: Vec<(&'static str, String)>,
    /// Extra human-readable findings (e.g. the rounds' mean profit).
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.check_failures.push(format!("{what}: {e}"));
        }
    }

    /// Bytes of the benchmark's own per-call records (latencies, acks,
    /// spans). They grow with the calls a run makes, so a faster stack
    /// would otherwise read as a bigger one.
    pub fn record_bytes(&self) -> u64 {
        let samples = [&self.commit, &self.round, &self.read, &self.decide]
            .iter()
            .map(|s| s.0.len())
            .sum::<usize>();
        let spans: usize = self.spans.iter().map(Vec::len).sum();
        (samples * std::mem::size_of::<u64>()
            + self.acks.len() * std::mem::size_of::<Ack>()
            + spans * std::mem::size_of::<Span>()) as u64
    }
}

/// Wall and CPU clocks read together, to time one stretch of work on both.
pub struct Clocks(Instant, u64);

impl Clocks {
    pub fn start() -> Self {
        Clocks(Instant::now(), crate::measure::process_cpu_ns())
    }

    /// `(wall seconds, CPU seconds)` since `start`.
    pub fn seconds(&self) -> (f64, f64) {
        let cpu = crate::measure::process_cpu_ns().saturating_sub(self.1);
        (self.0.elapsed().as_secs_f64(), cpu as f64 / 1e9)
    }

    pub fn cpu_ns(&self) -> u64 {
        crate::measure::process_cpu_ns().saturating_sub(self.1)
    }
}

/// Reads the process CPU clock at `epoch` and at every whole second after
/// it up to `deadline`, on a thread of its own, so the run's CPU cost can
/// be taken per one-second slice.
pub fn mark_cpu_seconds(epoch: Instant, deadline: Instant) -> std::thread::JoinHandle<Vec<u64>> {
    let first = crate::measure::process_cpu_ns();
    std::thread::spawn(move || {
        let mut marks = vec![first];
        for k in 1u64.. {
            let at = epoch + Duration::from_secs(k);
            if at > deadline {
                break;
            }
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            marks.push(crate::measure::process_cpu_ns());
        }
        marks
    })
}

/// Builds the stack repeatedly (see [`SETUPS`]), recording each build's
/// wall and CPU time in `out`; every build but the last is torn down
/// before the next one starts. `None` if the last build failed.
pub fn set_up_repeatedly<S>(
    cfg: &Config,
    out: &mut RunOutput,
    mut build: impl FnMut(&mut Tally) -> Option<S>,
    mut tear_down: impl FnMut(S),
) -> Option<S> {
    let budget = if cfg.smoke { SETUP_SECONDS / 10.0 } else { SETUP_SECONDS };
    let started = Instant::now();
    let mut stack = None;
    while out.setup.len() < MAX_SETUPS
        && (out.setup.len() < SETUPS || started.elapsed().as_secs_f64() < budget)
    {
        if let Some(previous) = stack.take() {
            tear_down(previous);
        }
        let clocks = Clocks::start();
        stack = build(&mut out.tally);
        let (wall, cpu) = clocks.seconds();
        out.setup.push(wall);
        out.setup_cpu.push(cpu);
    }
    stack
}

/// One client's record of a windowed closed loop.
#[derive(Debug)]
pub struct WindowLog {
    pub lat: Samples,
    pub acks: Vec<Ack>,
    /// Windows generated and submitted — the oracle replays exactly these.
    pub windows: u64,
    pub acked: u64,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

type Inflight<Fut> = (usize, Instant, usize, usize, Fut);

/// A closed-loop client: builds each window of committed sessions from
/// its seeded stream and commits it with `submit`, keeping at most
/// `depth` windows in flight. It starts windows until `deadline` and then
/// waits for the ones in flight. `before(w, tally)` runs before window `w`
/// is built.
#[allow(clippy::too_many_arguments)]
pub fn drive_windows<Fut>(
    client: u32,
    mut stream: Stream,
    tasks: &[Task],
    window: usize,
    depth: usize,
    epoch: Instant,
    deadline: Instant,
    trace: bool,
    call: &'static str,
    mut before: impl FnMut(u64, &mut Tally),
    mut submit: impl FnMut(Vec<CompletedDelegation<u32>>) -> Fut,
) -> WindowLog
where
    Fut: Future<Output = Result<Vec<DelegationReceipt<u32>>, TrustError>>,
{
    let scratch: TrustStore<u32> = TrustStore::new();
    let mut tracer = Tracer::new(trace, client, epoch);
    let mut log = WindowLog {
        lat: Samples::default(),
        acks: Vec::new(),
        windows: 0,
        acked: 0,
        tally: Tally::default(),
        spans: Vec::new(),
    };
    let mut inflight: VecDeque<Inflight<Fut>> = VecDeque::new();
    let settle = |(len, start, span, call_span, fut): Inflight<Fut>,
                  log: &mut WindowLog,
                  tracer: &mut Tracer| {
        let result = block_on(fut);
        let end = Instant::now();
        tracer.end(call_span);
        tracer.end(span);
        let mut ack =
            Ack { start_ns: ns_since(epoch, start), end_ns: ns_since(epoch, end), sessions: 0 };
        match result {
            Ok(receipts) if receipts.len() == len => {
                log.tally.ok();
                log.acked += len as u64;
                log.lat.push(end - start);
                ack.sessions = len as u64;
            }
            Ok(_) => {
                log.tally.fail(call, "ReceiptCountMismatch");
                log.lat.push_failed();
            }
            Err(e) => {
                log.tally.err(call, &e);
                log.lat.push_failed();
            }
        }
        log.acks.push(ack);
    };
    while Instant::now() < deadline {
        let w = log.windows;
        before(w, &mut log.tally);
        let span = tracer.begin("window", w, NO_SPAN);
        let build = tracer.begin("delegation.build", w, span);
        let mut batch = Vec::with_capacity(window);
        for entry in stream.window(window) {
            if let Some(s) =
                log.tally.count("delegation.finish", gen::session(&scratch, tasks, &entry))
            {
                batch.push(s);
            }
        }
        tracer.end(build);
        let len = batch.len();
        let call_span = tracer.begin(call, w, span);
        let start = Instant::now();
        let fut = submit(batch);
        inflight.push_back((len, start, span, call_span, fut));
        log.windows += 1;
        if inflight.len() >= depth {
            let oldest = inflight.pop_front().expect("non-empty");
            settle(oldest, &mut log, &mut tracer);
        }
    }
    while let Some(oldest) = inflight.pop_front() {
        settle(oldest, &mut log, &mut tracer);
    }
    log.spans = tracer.spans;
    log
}

pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Folds the windows every client submitted, one client after another,
/// through `TrustEngine::commit_batch_receipts` — the sequential
/// reference every served state must match bit for bit. Clients own
/// disjoint keys, so the order between clients does not matter.
pub fn oracle_fold(
    seed: u64,
    space: KeySpace,
    tasks: &[Task],
    window: usize,
    windows: &[u64],
) -> TrustStore<u32> {
    let scratch: TrustStore<u32> = TrustStore::new();
    let mut engine: TrustStore<u32> = TrustStore::new();
    let betas = ForgettingFactors::figures();
    for (client, &n) in windows.iter().enumerate() {
        let mut stream = Stream::new(seed, client as u32, space);
        for _ in 0..n {
            let batch: Vec<_> = stream
                .window(window)
                .iter()
                .filter_map(|e| gen::session(&scratch, tasks, e).ok())
                .collect();
            engine.commit_batch_receipts(batch, &betas);
        }
    }
    engine
}

/// Layer counters from the shard stats taken before and after a run, per
/// actor in a fixed order.
pub fn service_layer(
    before: &[ShardStats],
    after: &[ShardStats],
    acked: u64,
    durable: bool,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    let delta = |f: fn(&ShardStats) -> u64| -> Vec<u64> {
        before.iter().zip(after).map(|(b, a)| f(a) - f(b)).collect()
    };
    let committed = delta(|s| s.committed);
    let batches: u64 = delta(|s| s.commit_batches).iter().sum();
    let drains: u64 = delta(|s| s.drains).iter().sum();
    let folded: u64 = committed.iter().sum();
    let mean = folded as f64 / committed.len().max(1) as f64;
    let max = committed.iter().copied().max().unwrap_or(0) as f64;
    layer.insert("log.fsyncs", if durable { batches as f64 } else { 0.0 });
    layer.insert("service.mean_commit_batch", ratio(folded as f64, batches as f64));
    layer.insert(
        "service.largest_commit_batch",
        after.iter().map(|s| s.largest_commit_batch).max().unwrap_or(0) as f64,
    );
    layer.insert("service.drains", drains as f64);
    layer.insert(
        "replica.publish_lag",
        after.iter().map(|s| s.drains.saturating_sub(s.published_epoch)).max().unwrap_or(0) as f64,
    );
    layer.insert("sharded.imbalance", ratio(max, mean));
    layer.insert("fleet.folded_over_sent", ratio(folded as f64, acked as f64));
}

/// Every actor's stats behind `handles`, in order.
pub fn shard_stats(
    handles: &[ShardedTrustServiceHandle<u32>],
    tally: &mut Tally,
) -> Option<Vec<ShardStats>> {
    let mut all = Vec::new();
    for h in handles {
        all.extend(tally.count("sharded.shard_stats", block_on(h.shard_stats()))?);
    }
    Some(all)
}

/// The traced pass's sampler: every 5 ms, the worst mailbox saturation
/// behind `handles` and whether any replica lags its actor.
pub fn start_sampler(handles: Vec<ShardedTrustServiceHandle<u32>>) -> Sampler<(f64, bool)> {
    Sampler::start(Duration::from_millis(5), move || {
        let mut sat = 0.0f64;
        let mut lagging = false;
        for h in &handles {
            if let Ok(stats) = block_on(h.shard_stats()) {
                sat = stats.iter().map(ShardStats::saturation).fold(sat, f64::max);
            }
            lagging |= h.replica().max_lag() > 0;
        }
        (sat, lagging)
    })
}

/// Layer values from the sampler's samples.
pub fn sampler_layer(samples: &[(f64, bool)], layer: &mut BTreeMap<&'static str, f64>) {
    let sat = samples.iter().map(|s| s.0).fold(0.0, f64::max);
    let lagging = samples.iter().filter(|s| s.1).count();
    layer.insert("service.saturation_max", sat);
    layer.insert("replica.lag_nonzero_ratio", ratio(lagging as f64, samples.len() as f64));
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
