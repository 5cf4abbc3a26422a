//! `ingest_durable`: write-only. Two clients pipeline windows of committed
//! sessions through `ShardedTrustServiceHandle::submit_batch` into a
//! two-shard service on `DurableTrustStore` under `FsyncPolicy::Always`,
//! so every ack waits on a group-commit fsync. After the run every shard's
//! journal is reopened (the restart time) and checked against the
//! sequential fold.

use crate::common::{self, Clocks, Config, RunOutput, CLIENTS};
use crate::gen::{self, KeySpace, Stream};
use crate::measure;
use siot_core::log::{FsyncPolicy, LogOptions, DEFAULT_SEGMENT_BYTES};
use siot_core::service::{ServiceOptions, ShardedTrustService};
use siot_core::store::DurableTrustStore;
use std::time::Instant;

pub struct Sizes {
    /// Peers per client; keys = clients × peers × tasks.
    pub peers: u32,
    pub window: usize,
    pub depth: usize,
}

pub const FULL: Sizes = Sizes { peers: 31_250, window: 512, depth: 2 };
pub const SMOKE: Sizes = Sizes { peers: 500, window: 64, depth: 2 };

const SHARDS: usize = 2;
const LOG: LogOptions = LogOptions {
    fsync: FsyncPolicy::Always,
    compact_every: 0,
    segment_bytes: DEFAULT_SEGMENT_BYTES,
};

type Service = ShardedTrustService<u32, siot_core::log::LogBackend<u32>>;

pub fn run(cfg: &Config, sizes: &Sizes) -> RunOutput {
    let space = KeySpace { clients: CLIENTS, peers: sizes.peers };
    let tasks = gen::tasks();
    let root = cfg.out.join(format!("ingest-{}-{}", std::process::id(), u8::from(cfg.trace)));
    let mut out = RunOutput {
        inputs: vec![
            ("clients", CLIENTS.to_string()),
            ("shards", SHARDS.to_string()),
            ("keys", space.keys().to_string()),
            ("window", sizes.window.to_string()),
            ("depth", sizes.depth.to_string()),
            ("fsync", format!("{:?}", LOG.fsync)),
            ("segment_bytes", LOG.segment_bytes.to_string()),
        ],
        ..RunOutput::default()
    };
    let (rss_before, _) = measure::rss_bytes();

    let service = common::set_up_repeatedly(
        cfg,
        &mut out,
        |tally| {
            let _ = std::fs::remove_dir_all(&root);
            let spawned =
                ShardedTrustService::try_spawn_sharded(SHARDS, ServiceOptions::default(), |k| {
                    DurableTrustStore::<u32>::open_shard_with(&root, k, LOG)
                });
            tally.count("log.open", spawned)
        },
        |s: Service| {
            let _ = s.shutdown();
        },
    );
    let Some(service) = service else {
        out.check("setup", Err("the durable service did not open".into()));
        return out;
    };
    let handle = service.handle();
    let stats_before = common::shard_stats(std::slice::from_ref(&handle), &mut out.tally);
    let sampler = cfg.trace.then(|| common::start_sampler(vec![handle.clone()]));

    measure::reset_peak_rss();
    let run_clocks = Clocks::start();
    let epoch = Instant::now();
    let deadline = cfg.deadline(epoch);
    let cpu_marks = common::mark_cpu_seconds(epoch, deadline);
    let logs: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = handle.clone();
                let tasks = &tasks;
                scope.spawn(move || {
                    common::drive_windows(
                        c,
                        Stream::new(cfg.seed, c, space),
                        tasks,
                        sizes.window,
                        sizes.depth,
                        epoch,
                        deadline,
                        cfg.trace,
                        "sharded.submit_batch",
                        |_, _| {},
                        |batch| handle.submit_batch(batch),
                    )
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    });
    out.elapsed_s = epoch.elapsed().as_secs_f64();
    out.run_cpu_ns = run_clocks.cpu_ns();
    out.cpu_marks = cpu_marks.join().expect("CPU clock thread panicked");
    let (rss_after, peak) = measure::rss_bytes();
    out.peak_rss_bytes = peak;

    if let Some(sampler) = sampler {
        common::sampler_layer(&sampler.finish(), &mut out.layer);
    }
    let stats_after = common::shard_stats(std::slice::from_ref(&handle), &mut out.tally);
    let windows: Vec<u64> = logs.iter().map(|l| l.windows).collect();
    for log in logs {
        out.commits += log.acked;
        out.commit.extend(log.lat);
        out.acks.extend(log.acks);
        out.tally.merge(log.tally);
        out.spans.push(log.spans);
    }
    if let (Some(before), Some(after)) = (&stats_before, &stats_after) {
        common::service_layer(before, after, out.commits, true, &mut out.layer);
    }
    drop(handle);
    if let Some(engines) = out.tally.count("sharded.shutdown", service.shutdown()) {
        drop(engines);
    }

    // restart: reopen every shard's journal from disk
    let (disk_bytes, _) = measure::dir_bytes(&root);
    let start = Instant::now();
    let reopened: Vec<_> = (0..SHARDS)
        .filter_map(|k| {
            out.tally.count("log.reopen", DurableTrustStore::<u32>::open_shard(&root, k))
        })
        .collect();
    out.reopen_s = Some(start.elapsed().as_secs_f64());
    let mut served = Vec::new();
    for engine in &reopened {
        measure::records(engine, &mut served);
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&root);

    let oracle = common::oracle_fold(cfg.seed, space, &tasks, sizes.window, &windows);
    let records = oracle.record_count() as f64;
    out.disk_bytes_per_record = Some(common::ratio(disk_bytes as f64, served.len() as f64));
    let mut expected = Vec::new();
    measure::records(&oracle, &mut expected);
    out.check(
        "reopened journals match the sequential fold",
        measure::same_records("records", served, expected),
    );

    let sessions = windows.iter().sum::<u64>() as f64 * sizes.window as f64;
    out.layer.insert("store.update_share", 1.0 - common::ratio(records, sessions));
    out.layer.insert(
        "store.rss_bytes_per_record",
        common::ratio(rss_after.saturating_sub(rss_before) as f64, records),
    );
    out.layer.insert("fleet.stall_ms", 0.0);
    out.inputs.push(("sessions", (sessions as u64).to_string()));
    out.inputs.push(("records", (records as u64).to_string()));
    out
}
