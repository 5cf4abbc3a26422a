//! `fleet_failover`: committed-session windows through one shared
//! `FleetTrustHandle` over two loopback nodes, each a one-shard in-memory
//! service. When client 0 reaches a fixed window index, node 1's server
//! is shut down, rebound with `bind_with` on the same `DedupWindow`, and
//! swapped in with `replace_node`. Every session must still fold exactly
//! once.

use crate::common::{self, Clocks, Config, RunOutput, CLIENTS};
use crate::gen::{self, KeySpace, Stream};
use crate::measure::{self, Tally};
use siot_core::service::{
    FleetOptions, FleetTrustHandle, RemoteTrustServer, ServiceOptions, ShardedTrustService,
};
use siot_core::store::TrustStore;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Sizes {
    pub peers: u32,
    pub window: usize,
    /// Windows a client keeps in flight. One: each client waits for a
    /// window's receipts before sending the next. With two, a window that
    /// is retried across the failover can fold after its successor, so a
    /// client's sessions on one key fold out of order and the records no
    /// longer match the sequential fold.
    pub depth: usize,
    /// Client 0's window index at which node 1 is killed.
    pub kill_at: u64,
}

pub const FULL: Sizes = Sizes { peers: 6_250, window: 256, depth: 1, kill_at: 200 };
pub const SMOKE: Sizes = Sizes { peers: 250, window: 32, depth: 1, kill_at: 5 };

const NODES: usize = 2;

const OPTIONS: FleetOptions = FleetOptions {
    request_deadline: Duration::from_secs(30),
    connect_timeout: Duration::from_secs(2),
    backoff_base: Duration::from_millis(2),
    backoff_cap: Duration::from_millis(50),
    seed: 0x5107,
};

struct Stack {
    services: Vec<ShardedTrustService<u32>>,
    servers: Vec<RemoteTrustServer>,
    fleet: FleetTrustHandle<u32>,
}

fn set_up(tally: &mut Tally) -> Option<Stack> {
    let services: Vec<ShardedTrustService<u32>> = (0..NODES)
        .map(|_| {
            ShardedTrustService::spawn_sharded(1, ServiceOptions::default(), |_| TrustStore::new())
        })
        .collect();
    let servers = services
        .iter()
        .map(|s| tally.count("remote.bind", RemoteTrustServer::bind("127.0.0.1:0", s.handle())))
        .collect::<Option<Vec<_>>>()?;
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let fleet =
        tally.count("fleet.connect", FleetTrustHandle::<u32>::connect_opts(addrs, OPTIONS))?;
    Some(Stack { services, servers, fleet })
}

pub fn run(cfg: &Config, sizes: &Sizes) -> RunOutput {
    let space = KeySpace { clients: CLIENTS, peers: sizes.peers };
    let tasks = gen::tasks();
    let mut out = RunOutput {
        inputs: vec![
            ("clients", CLIENTS.to_string()),
            ("nodes", NODES.to_string()),
            ("shards_per_node", "1".to_string()),
            ("keys", space.keys().to_string()),
            ("window", sizes.window.to_string()),
            ("depth", sizes.depth.to_string()),
            ("kill_at_window", sizes.kill_at.to_string()),
            ("fsync", "none (in-memory)".to_string()),
        ],
        ..RunOutput::default()
    };
    let (rss_before, _) = measure::rss_bytes();

    let stack = common::set_up_repeatedly(cfg, &mut out, set_up, |s| {
        drop(s.fleet);
        for server in s.servers {
            server.shutdown();
        }
        for service in s.services {
            let _ = service.shutdown();
        }
    });
    let Some(Stack { services, mut servers, fleet }) = stack else {
        out.check("setup", Err("the fleet did not come up".into()));
        return out;
    };
    let handles: Vec<_> = services.iter().map(|s| s.handle()).collect();
    let stats_before = common::shard_stats(&handles, &mut out.tally);
    let sampler = cfg.trace.then(|| common::start_sampler(handles.clone()));

    let victim = Mutex::new(servers.pop());
    let reborn: Mutex<Option<RemoteTrustServer>> = Mutex::new(None);
    let kill_span: Mutex<Option<(u64, u64)>> = Mutex::new(None);
    measure::reset_peak_rss();
    let run_clocks = Clocks::start();
    let epoch = Instant::now();
    let deadline = cfg.deadline(epoch);
    let cpu_marks = common::mark_cpu_seconds(epoch, deadline);
    let logs: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let fleet = fleet.clone();
                let tasks = &tasks;
                let (victim, reborn, kill_span) = (&victim, &reborn, &kill_span);
                let node1 = services[1].handle();
                scope.spawn(move || {
                    let kill = |w: u64, tally: &mut Tally| {
                        if c != 0 || w != sizes.kill_at {
                            return;
                        }
                        let Some(server) = victim.lock().expect("victim lock").take() else {
                            return;
                        };
                        let start = common::ns_since(epoch, Instant::now());
                        let window = server.dedup_window();
                        server.shutdown();
                        let bound =
                            RemoteTrustServer::bind_with("127.0.0.1:0", node1.clone(), window);
                        if let Some(s) = tally.count("remote.bind_with", bound) {
                            fleet.replace_node(1, s.local_addr().to_string());
                            *reborn.lock().expect("reborn lock") = Some(s);
                        }
                        let end = common::ns_since(epoch, Instant::now());
                        *kill_span.lock().expect("kill lock") = Some((start, end));
                    };
                    common::drive_windows(
                        c,
                        Stream::new(cfg.seed, c, space),
                        tasks,
                        sizes.window,
                        sizes.depth,
                        epoch,
                        deadline,
                        cfg.trace,
                        "fleet.submit_batch",
                        kill,
                        |batch| fleet.submit_batch(batch),
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
    let stats_after = common::shard_stats(&handles, &mut out.tally);
    let kill = *kill_span.lock().expect("kill lock");
    // the stall: the slowest window whose commit overlapped the kill
    let stall_ns = kill.map_or(0, |(k0, k1)| {
        logs.iter()
            .flat_map(|l| l.acks.iter())
            .filter(|a| a.start_ns <= k1 && a.end_ns >= k0)
            .map(|a| a.end_ns - a.start_ns)
            .max()
            .unwrap_or(0)
    });
    out.layer.insert("fleet.stall_ms", stall_ns as f64 / 1e6);
    out.notes.push(match kill {
        Some((k0, k1)) => format!(
            "node 1 killed and rebound at {:.3}s, took {:.3}ms",
            k0 as f64 / 1e9,
            (k1 - k0) as f64 / 1e6
        ),
        None => "node 1 was never killed: client 0 did not reach the kill window".to_string(),
    });
    let windows: Vec<u64> = logs.iter().map(|l| l.windows).collect();
    for log in logs {
        out.commits += log.acked;
        out.commit.extend(log.lat);
        out.acks.extend(log.acks);
        out.tally.merge(log.tally);
        out.spans.push(log.spans);
    }
    if let (Some(before), Some(after)) = (&stats_before, &stats_after) {
        common::service_layer(before, after, out.commits, false, &mut out.layer);
        let folded: u64 = before.iter().zip(after).map(|(b, a)| a.committed - b.committed).sum();
        out.check(
            "every acked session folded exactly once",
            if folded == out.commits {
                Ok(())
            } else {
                Err(format!("{folded} folded, {} acked", out.commits))
            },
        );
    }

    drop(fleet);
    for server in servers
        .into_iter()
        .chain(victim.into_inner().expect("victim lock"))
        .chain(reborn.into_inner().expect("reborn lock"))
    {
        server.shutdown();
    }
    let mut served = Vec::new();
    for service in services {
        if let Some(engines) = out.tally.count("sharded.shutdown", service.shutdown()) {
            for engine in &engines {
                measure::records(engine, &mut served);
            }
        }
    }
    let oracle = common::oracle_fold(cfg.seed, space, &tasks, sizes.window, &windows);
    let mut expected = Vec::new();
    measure::records(&oracle, &mut expected);
    out.check(
        "served records match the sequential fold",
        measure::same_records("records", served, expected),
    );

    let records = oracle.record_count() as f64;
    let sessions = windows.iter().sum::<u64>() as f64 * sizes.window as f64;
    out.layer.insert("store.update_share", 1.0 - common::ratio(records, sessions));
    out.layer.insert(
        "store.rss_bytes_per_record",
        common::ratio(rss_after.saturating_sub(rss_before) as f64, records),
    );
    out.inputs.push(("sessions", (sessions as u64).to_string()));
    out.inputs.push(("records", (records as u64).to_string()));
    out
}
