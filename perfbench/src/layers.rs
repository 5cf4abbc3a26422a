//! Layer probes for the traced run, identical on every workload.
//!
//! The waterfall sends the same seeded window stream from one client
//! through the same `submit_batch`-shaped call on seven rungs, each adding
//! one layer. Every rung starts from empty state, and the rungs are
//! interleaved over several repetitions so drift on the host spreads over
//! all of them; the median repetition is reported. Each rung is timed on
//! the wall clock and on the process CPU clock (all threads).
//!
//! A layer's own cost is its rung's increment over the one before it, in
//! CPU time: the work the layer adds per session on any thread. Wall-time
//! increments would mix in parallelism (two shards fold on two cores at
//! once) and time other tenants take from the machine. The fsync rung is
//! the exception: its cost is waiting for the device, so its increment is
//! in wall time.
//!
//! The micro-probes time single calls into one layer's public functions.

use crate::common;
use crate::gen::{self, KeySpace, Rng, Stream};
use crate::measure::{self, Samples, Tally};
use siot_core::backend::TrustBackend;
use siot_core::context::Context;
use siot_core::delegation::{CompletedDelegation, DelegationRequest};
use siot_core::error::TrustError;
use siot_core::goal::Goal;
use siot_core::log::{FsyncPolicy, LogOptions, DEFAULT_SEGMENT_BYTES};
use siot_core::record::{ForgettingFactors, TrustRecord};
use siot_core::service::{
    block_on, FleetTrustHandle, Freshness, RemoteTrustServer, RemoteTrustServiceHandle,
    ServiceOptions, ShardedTrustService,
};
use siot_core::store::{DurableTrustStore, TrustStore};
use siot_core::task::Task;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Sizes {
    /// Peers of the probe key space (one client).
    pub peers: u32,
    pub sessions: usize,
    pub window: usize,
    pub reps: usize,
    /// Timed single calls per latency probe.
    pub calls: usize,
    pub barriers: usize,
}

pub const FULL: Sizes =
    Sizes { peers: 25_000, sessions: 61_440, window: 512, reps: 3, calls: 2_000, barriers: 300 };
pub const SMOKE: Sizes =
    Sizes { peers: 200, sessions: 2_048, window: 128, reps: 1, calls: 50, barriers: 10 };

/// `(wall, cpu)` metric names of the rungs, in order.
const RUNGS: [(&str, &str); 7] = [
    ("waterfall.r1_engine_ns", "waterfall.r1_engine_cpu_ns"),
    ("waterfall.r2_journal_ns", "waterfall.r2_journal_cpu_ns"),
    ("waterfall.r3_fsync_ns", "waterfall.r3_fsync_cpu_ns"),
    ("waterfall.r4_service1_ns", "waterfall.r4_service1_cpu_ns"),
    ("waterfall.r5_sharded2_ns", "waterfall.r5_sharded2_cpu_ns"),
    ("waterfall.r6_wire_ns", "waterfall.r6_wire_cpu_ns"),
    ("waterfall.r7_fleet_ns", "waterfall.r7_fleet_cpu_ns"),
];

fn log_options(fsync: FsyncPolicy) -> LogOptions {
    LogOptions { fsync, compact_every: 0, segment_bytes: DEFAULT_SEGMENT_BYTES }
}

/// The probe stream: one client's windows over its own key space.
fn windows(seed: u64, sizes: &Sizes) -> Vec<Vec<gen::Entry>> {
    let space = KeySpace { clients: 1, peers: sizes.peers };
    let mut stream = Stream::new(gen::mix(seed, 0x7761_7465), 0, space);
    (0..sizes.sessions.div_ceil(sizes.window)).map(|_| stream.window(sizes.window)).collect()
}

fn build(
    tasks: &[Task],
    entries: &[gen::Entry],
    tally: &mut Tally,
) -> Vec<CompletedDelegation<u32>> {
    let scratch: TrustStore<u32> = TrustStore::new();
    entries
        .iter()
        .filter_map(|e| tally.count("delegation.finish", gen::session(&scratch, tasks, e)))
        .collect()
}

/// `[wall, cpu]` nanoseconds per session of `call` over the whole stream;
/// the windows are built outside the timed region.
fn time_rung(
    stream: &[Vec<gen::Entry>],
    tasks: &[Task],
    tally: &mut Tally,
    rung: &str,
    mut call: impl FnMut(Vec<CompletedDelegation<u32>>) -> Result<usize, TrustError>,
) -> [f64; 2] {
    let mut wall = Duration::ZERO;
    let mut cpu = 0u64;
    let mut sessions = 0usize;
    for entries in stream {
        let batch = build(tasks, entries, tally);
        let clocks = common::Clocks::start();
        let start = Instant::now();
        let result = call(batch);
        wall += start.elapsed();
        cpu += clocks.cpu_ns();
        if let Some(n) = tally.count(rung, result) {
            sessions += n;
        }
    }
    let n = sessions as f64;
    [common::ratio(wall.as_nanos() as f64, n), common::ratio(cpu as f64, n)]
}

type Probe = BTreeMap<&'static str, f64>;

/// One repetition of all seven rungs, each from empty state.
fn waterfall_rep(
    stream: &[Vec<gen::Entry>],
    tasks: &[Task],
    dir: &Path,
    tally: &mut Tally,
    probe: &mut Probe,
) -> [[f64; 2]; 7] {
    let betas = ForgettingFactors::figures();
    let sessions = stream.iter().map(Vec::len).sum::<usize>() as f64;
    let mut r = [[0.0; 2]; 7];

    let mut engine: TrustStore<u32> = TrustStore::new();
    r[0] = time_rung(stream, tasks, tally, "store.commit_batch_receipts", |b| {
        Ok(engine.commit_batch_receipts(b, &betas).len())
    });

    for (i, fsync) in [(1, FsyncPolicy::Never), (2, FsyncPolicy::Always)] {
        let path = dir.join(format!("rung{}", i + 1));
        let _ = std::fs::remove_dir_all(&path);
        let Some(mut engine) =
            tally.count("log.open", DurableTrustStore::<u32>::open_with(&path, log_options(fsync)))
        else {
            continue;
        };
        r[i] = time_rung(stream, tasks, tally, "log.commit_batch_receipts", |b| {
            Ok(engine.commit_batch_receipts(b, &betas).len())
        });
        if fsync == FsyncPolicy::Always {
            let frames = engine.backend().frames_since_compaction() as f64;
            probe.insert("log.segments", engine.segments() as f64);
            drop(engine);
            probe.insert("log.bytes_per_session", measure::dir_bytes(&path).0 as f64 / sessions);
            let start = Instant::now();
            let reopened = tally.count(
                "log.reopen",
                DurableTrustStore::<u32>::open_with(&path, log_options(fsync)),
            );
            probe.insert(
                "log.replay_ns_per_frame",
                common::ratio(start.elapsed().as_nanos() as f64, frames),
            );
            drop(reopened);
        }
        let _ = std::fs::remove_dir_all(&path);
    }

    for (i, shards) in [(3, 1), (4, 2)] {
        let service: ShardedTrustService<u32> =
            ShardedTrustService::spawn_sharded(shards, ServiceOptions::default(), |_| {
                TrustStore::new()
            });
        let handle = service.handle();
        r[i] = time_rung(stream, tasks, tally, "sharded.submit_batch", |b| {
            block_on(handle.submit_batch(b)).map(|v| v.len())
        });
        drop(handle);
        let _ = service.shutdown();
    }

    for (i, fleet) in [(5, false), (6, true)] {
        let service: ShardedTrustService<u32> =
            ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| TrustStore::new());
        let Some(server) =
            tally.count("remote.bind", RemoteTrustServer::bind("127.0.0.1:0", service.handle()))
        else {
            let _ = service.shutdown();
            continue;
        };
        let addr = server.local_addr();
        if fleet {
            if let Some(f) =
                tally.count("fleet.connect", FleetTrustHandle::<u32>::connect([addr.to_string()]))
            {
                r[i] = time_rung(stream, tasks, tally, "fleet.submit_batch", |b| {
                    block_on(f.submit_batch(b)).map(|v| v.len())
                });
            }
        } else if let Some(remote) =
            tally.count("remote.connect", RemoteTrustServiceHandle::<u32>::connect(addr))
        {
            r[i] = time_rung(stream, tasks, tally, "remote.submit_batch", |b| {
                block_on(remote.submit_batch(b)).map(|v| v.len())
            });
        }
        server.shutdown();
        let _ = service.shutdown();
    }
    r
}

/// Median nanoseconds per call of `f`, over `calls` calls.
fn per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut s = Samples::default();
    for i in 0..calls {
        let start = Instant::now();
        f(i);
        s.push(start.elapsed());
    }
    s.summary().0 as f64
}

/// All layer probes: waterfall rungs and their increments, and the
/// micro-probes. Failures land in `tally`.
pub fn run(seed: u64, sizes: &Sizes, dir: &Path, tally: &mut Tally) -> Probe {
    let tasks = gen::tasks();
    let stream = windows(seed, sizes);
    let entries: Vec<gen::Entry> = stream.iter().flatten().copied().collect();
    let mut probe = Probe::new();
    let _ = std::fs::create_dir_all(dir);

    let reps: Vec<[[f64; 2]; 7]> =
        (0..sizes.reps).map(|_| waterfall_rep(&stream, &tasks, dir, tally, &mut probe)).collect();
    let median_of = |i: usize, clock: usize| {
        measure::median(&reps.iter().map(|r| r[i][clock]).collect::<Vec<_>>())
    };
    let wall: Vec<f64> = (0..7).map(|i| median_of(i, 0)).collect();
    let cpu: Vec<f64> = (0..7).map(|i| median_of(i, 1)).collect();
    for (i, (name, cpu_name)) in RUNGS.iter().enumerate() {
        probe.insert(name, wall[i]);
        probe.insert(cpu_name, cpu[i]);
    }
    probe.insert("store.fold_ns_per_session", cpu[0]);
    probe.insert("log.append_ns_per_session", cpu[1] - cpu[0]);
    probe.insert("log.fsync_ns_per_session", wall[2] - wall[1]);
    probe.insert("service.actor_ns_per_session", cpu[3] - cpu[0]);
    probe.insert("sharded.route_ns_per_session", cpu[4] - cpu[3]);
    probe.insert("remote.commit_ns_per_session", cpu[5] - cpu[4]);
    probe.insert("fleet.route_ns_per_session", cpu[6] - cpu[5]);

    // delegation: build a session, and evaluate one against warm state
    let scratch: TrustStore<u32> = TrustStore::new();
    let start = Instant::now();
    let built = entries.iter().filter(|e| gen::session(&scratch, &tasks, e).is_ok()).count();
    probe.insert(
        "delegation.build_ns",
        common::ratio(start.elapsed().as_nanos() as f64, built as f64),
    );
    let mut warm: TrustStore<u32> = TrustStore::new();
    let betas = ForgettingFactors::figures();
    for w in &stream {
        warm.commit_batch_receipts(build(&tasks, w, tally), &betas);
    }
    let request = |e: &gen::Entry| {
        DelegationRequest::new(e.0, &tasks[e.1 .0 as usize], Goal::ANY, Context::amicable(e.1))
    };
    let start = Instant::now();
    for e in &entries {
        black_box(request(e).evaluate(&warm).trustworthiness());
    }
    probe
        .insert("delegation.evaluate_ns", start.elapsed().as_nanos() as f64 / entries.len() as f64);

    // the journal's group-commit barrier: a window of appends, one fsync
    let path = dir.join("barrier");
    let _ = std::fs::remove_dir_all(&path);
    if let Some(mut durable) = tally.count(
        "log.open",
        DurableTrustStore::<u32>::open_with(&path, log_options(FsyncPolicy::Always)),
    ) {
        let mut rng = Rng::new(gen::mix(seed, 0x6261_7272));
        let mut s = Samples::default();
        for _ in 0..sizes.barriers {
            for _ in 0..sizes.window {
                let e = entries[rng.below(entries.len() as u64) as usize];
                let rec = TrustRecord::with_priors(rng.unit(), rng.unit(), rng.unit(), rng.unit());
                durable.backend_mut().insert(e.0, e.1, rec);
            }
            let start = Instant::now();
            let synced = durable.commit_barrier();
            s.push(start.elapsed());
            tally.count("log.commit_barrier", synced);
        }
        let (p50, p99, _) = s.summary();
        probe.insert("log.barrier_us_p50", p50 as f64 / 1e3);
        probe.insert("log.barrier_us_p99", p99 as f64 / 1e3);
    }
    let _ = std::fs::remove_dir_all(&path);

    // a warm two-shard service, in process, over the wire and via a fleet
    let service: ShardedTrustService<u32> =
        ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| TrustStore::new());
    let handle = service.handle();
    for w in &stream {
        let batch = build(&tasks, w, tally);
        tally.count("sharded.submit_batch", block_on(handle.submit_batch(batch)));
    }
    let pick = |i: usize| entries[(i * 7919) % entries.len()];
    probe.insert(
        "service.evaluate_us",
        per_call(sizes.calls, |i| {
            let _ = tally.count("sharded.evaluate", block_on(handle.evaluate(request(&pick(i)))));
        }) / 1e3,
    );
    let replica = handle.replica();
    let reads = sizes.calls * 10;
    let start = Instant::now();
    for i in 0..reads {
        let e = pick(i);
        black_box(replica.record(e.0, e.1));
    }
    probe.insert("replica.read_ns", start.elapsed().as_nanos() as f64 / reads as f64);
    if let Some(server) =
        tally.count("remote.bind", RemoteTrustServer::bind("127.0.0.1:0", handle.clone()))
    {
        let addr = server.local_addr();
        if let Some(remote) =
            tally.count("remote.connect", RemoteTrustServiceHandle::<u32>::connect(addr))
        {
            probe.insert(
                "remote.ping_us",
                per_call(sizes.calls, |i| {
                    let e = pick(i);
                    let got = block_on(remote.trustworthiness_with(
                        e.0,
                        e.1,
                        Freshness::snapshot(u64::MAX),
                    ));
                    let _ = tally.count("remote.trustworthiness_with", got);
                }) / 1e3,
            );
        }
        if let Some(fleet) =
            tally.count("fleet.connect", FleetTrustHandle::<u32>::connect([addr.to_string()]))
        {
            let mut busy = Duration::ZERO;
            let mut tagged = 0;
            for w in stream.iter().take(sizes.calls.div_ceil(sizes.window).max(8)) {
                let batch = build(&tasks, w, tally);
                tagged += batch.len();
                let start = Instant::now();
                black_box(fleet.prepare(batch));
                busy += start.elapsed();
            }
            probe.insert(
                "fleet.tag_ns_per_session",
                common::ratio(busy.as_nanos() as f64, tagged as f64),
            );
        }
        server.shutdown();
    }
    drop(handle);
    let _ = service.shutdown();

    // the wire's frame checksum over a 64 KiB buffer
    let mut rng = Rng::new(gen::mix(seed, 0x6372_6333));
    let buf: Vec<u8> = (0..64 * 1024).map(|_| rng.next_u64() as u8).collect();
    let reps = 256;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(siot_core::framing::crc32(black_box(&buf)));
    }
    probe.insert("framing.crc_ns_per_kib", start.elapsed().as_nanos() as f64 / (reps * 64) as f64);
    probe
}
