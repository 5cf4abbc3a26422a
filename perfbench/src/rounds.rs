//! `rounds_remote`: read-dominated delegation rounds over loopback TCP. A
//! `RemoteTrustServer` fronts a two-shard in-memory service pre-warmed
//! with requester-scoped records. Each round is one `QueryMany` read of
//! k candidates at `Freshness::snapshot(0)`, a server-side `delegate` on
//! the best one, a local `finish` and an awaited `commit`. Requesters own
//! disjoint peers and await every commit, so each requester's rounds are
//! deterministic and a sequential replay must reproduce the served
//! records and the realized profit exactly.

use crate::common::{self, Clocks, Config, RunOutput, CLIENTS};
use crate::gen::{self, KeySpace, Quality, Rng};
use crate::measure::{self, Ack, Samples, Tally, Tracer, NO_SPAN};
use siot_core::context::Context;
use siot_core::delegation::{CompletedDelegation, Decision, DelegationReceipt, DelegationRequest};
use siot_core::error::TrustError;
use siot_core::goal::Goal;
use siot_core::record::{ForgettingFactors, TrustRecord};
use siot_core::service::{
    block_on, Freshness, RemoteTrustServer, RemoteTrustServiceHandle, ServiceOptions,
    ShardedTrustService,
};
use siot_core::store::TrustStore;
use siot_core::task::{Task, TaskId};
use std::time::Instant;

pub struct Sizes {
    /// Peers per requester; warm records = clients × peers × tasks.
    pub peers: u32,
    /// Outcomes folded into every key while warming.
    pub warm_obs: usize,
    /// Candidates read per round.
    pub candidates: usize,
}

pub const FULL: Sizes = Sizes { peers: 12_500, warm_obs: 2, candidates: 8 };
pub const SMOKE: Sizes = Sizes { peers: 200, warm_obs: 2, candidates: 8 };

const SHARDS: usize = 2;
const WARM_CHUNK: usize = 4096;

/// The three calls of a round, served remotely or replayed locally.
trait RoundOps {
    fn read(&mut self, items: Vec<(u32, TaskId)>) -> Result<Vec<Option<TrustRecord>>, TrustError>;
    fn decide(&mut self, request: DelegationRequest<u32>) -> Result<Decision<u32>, TrustError>;
    fn commit(
        &mut self,
        completed: CompletedDelegation<u32>,
    ) -> Result<DelegationReceipt<u32>, TrustError>;
}

struct Remote(RemoteTrustServiceHandle<u32>);

impl RoundOps for Remote {
    fn read(&mut self, items: Vec<(u32, TaskId)>) -> Result<Vec<Option<TrustRecord>>, TrustError> {
        block_on(self.0.record_many(items, Freshness::snapshot(0)))
    }
    fn decide(&mut self, request: DelegationRequest<u32>) -> Result<Decision<u32>, TrustError> {
        block_on(self.0.delegate(request))
    }
    fn commit(
        &mut self,
        completed: CompletedDelegation<u32>,
    ) -> Result<DelegationReceipt<u32>, TrustError> {
        block_on(self.0.commit(completed))
    }
}

struct Local<'a>(&'a mut TrustStore<u32>, ForgettingFactors);

impl RoundOps for Local<'_> {
    fn read(&mut self, items: Vec<(u32, TaskId)>) -> Result<Vec<Option<TrustRecord>>, TrustError> {
        Ok(items.into_iter().map(|(p, t)| self.0.record(p, t)).collect())
    }
    fn decide(&mut self, request: DelegationRequest<u32>) -> Result<Decision<u32>, TrustError> {
        Ok(request.evaluate(&*self.0).into_decision())
    }
    fn commit(
        &mut self,
        completed: CompletedDelegation<u32>,
    ) -> Result<DelegationReceipt<u32>, TrustError> {
        Ok(self.0.commit(completed, &self.1))
    }
}

/// One requester's rounds: latencies, outcomes and spans.
struct Requester {
    client: u32,
    rng: Rng,
    round: Samples,
    read: Samples,
    decide: Samples,
    commit: Samples,
    acks: Vec<Ack>,
    epoch: Instant,
    rounds: u64,
    commits: u64,
    profit: f64,
    tally: Tally,
    tracer: Tracer,
}

impl Requester {
    fn new(seed: u64, client: u32, trace: bool, epoch: Instant) -> Self {
        Requester {
            client,
            rng: Rng::new(gen::mix(seed, 100 + u64::from(client))),
            round: Samples::default(),
            read: Samples::default(),
            decide: Samples::default(),
            commit: Samples::default(),
            acks: Vec::new(),
            epoch,
            rounds: 0,
            commits: 0,
            profit: 0.0,
            tally: Tally::default(),
            tracer: Tracer::new(trace, client, epoch),
        }
    }

    /// Times `f` as one call: its latency lands in the sample set `pick`
    /// selects (or counts as missing it on failure), its span under
    /// `parent`.
    fn call<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        pick: fn(&mut Self) -> &mut Samples,
        f: impl FnOnce() -> Result<T, TrustError>,
    ) -> Option<T> {
        let span = self.tracer.begin(name, self.rounds, parent);
        let start = Instant::now();
        let result = f();
        let took = start.elapsed();
        self.tracer.end(span);
        match result {
            Ok(v) => {
                self.tally.ok();
                pick(self).push(took);
                Some(v)
            }
            Err(e) => {
                self.tally.err(name, &e);
                pick(self).push_failed();
                None
            }
        }
    }

    fn round(
        &mut self,
        ops: &mut impl RoundOps,
        seed: u64,
        space: KeySpace,
        tasks: &[Task],
        k: usize,
    ) {
        let round_span = self.tracer.begin("round", self.rounds, NO_SPAN);
        let start = Instant::now();
        let done = self.round_body(ops, seed, space, tasks, k, round_span);
        if done {
            self.round.push(start.elapsed());
        } else {
            self.round.push_failed();
        }
        self.tracer.end(round_span);
        self.rounds += 1;
    }

    /// Whether every call of the round succeeded.
    fn round_body(
        &mut self,
        ops: &mut impl RoundOps,
        seed: u64,
        space: KeySpace,
        tasks: &[Task],
        k: usize,
        span: usize,
    ) -> bool {
        let task = TaskId(self.rng.below(u64::from(gen::TASKS)) as u32);
        let items: Vec<(u32, TaskId)> =
            (0..k).map(|_| (space.peer(self.client, &mut self.rng), task)).collect();
        let peers: Vec<u32> = items.iter().map(|i| i.0).collect();
        let Some(records) =
            self.call("remote.record_many", span, |r| &mut r.read, || ops.read(items))
        else {
            return false;
        };
        // the best candidate by expected net profit; the first wins ties
        let mut best = (peers[0], f64::NEG_INFINITY);
        for (&peer, rec) in peers.iter().zip(&records) {
            let score = rec.map_or(f64::NEG_INFINITY, |r| r.expected_net_profit());
            if score > best.1 {
                best = (peer, score);
            }
        }
        let request = DelegationRequest::new(
            best.0,
            &tasks[task.0 as usize],
            Goal::ANY,
            Context::amicable(task),
        );
        let Some(decision) =
            self.call("remote.delegate", span, |r| &mut r.decide, || ops.decide(request))
        else {
            return false;
        };
        let (observation, profit) = Quality::of(seed, best.0).draw(&mut self.rng);
        let Decision::Delegate(active) = decision else {
            return true;
        };
        self.profit += profit;
        let finish = self.tracer.begin("delegation.finish", self.rounds, span);
        let completed =
            active.finish(siot_core::delegation::DelegationOutcome::observed(observation));
        self.tracer.end(finish);
        let Some(completed) = self.tally.count("delegation.finish", completed) else {
            return false;
        };
        let start = common::ns_since(self.epoch, Instant::now());
        let committed =
            self.call("remote.commit", span, |r| &mut r.commit, || ops.commit(completed)).is_some();
        let end = common::ns_since(self.epoch, Instant::now());
        self.acks.push(Ack { start_ns: start, end_ns: end, sessions: u64::from(committed) });
        self.commits += u64::from(committed);
        committed
    }
}

/// The warm-up sessions: `warm_obs` outcomes per requester-scoped key,
/// drawn from each peer's hidden quality.
fn warm_entries(seed: u64, space: KeySpace, warm_obs: usize) -> Vec<gen::Entry> {
    let mut rng = Rng::new(gen::mix(seed, 99));
    let mut entries = Vec::new();
    for client in 0..space.clients {
        for i in 0..space.peers {
            let peer = client + space.clients * i;
            let quality = Quality::of(seed, peer);
            for t in 0..gen::TASKS {
                for _ in 0..warm_obs {
                    entries.push((peer, TaskId(t), quality.draw(&mut rng).0));
                }
            }
        }
    }
    entries
}

struct Stack {
    service: ShardedTrustService<u32>,
    server: RemoteTrustServer,
    remotes: Vec<RemoteTrustServiceHandle<u32>>,
}

fn set_up(warm: &[gen::Entry], tasks: &[Task], tally: &mut Tally) -> Option<Stack> {
    let service: ShardedTrustService<u32> =
        ShardedTrustService::spawn_sharded(SHARDS, ServiceOptions::default(), |_| {
            TrustStore::new()
        });
    let handle = service.handle();
    let scratch: TrustStore<u32> = TrustStore::new();
    for chunk in warm.chunks(WARM_CHUNK) {
        let batch: Vec<_> = chunk
            .iter()
            .filter_map(|e| tally.count("delegation.finish", gen::session(&scratch, tasks, e)))
            .collect();
        tally.count("sharded.submit_batch", block_on(handle.submit_batch(batch)))?;
    }
    let server = tally.count("remote.bind", RemoteTrustServer::bind("127.0.0.1:0", handle))?;
    let addr = server.local_addr();
    let remotes = (0..CLIENTS)
        .map(|_| tally.count("remote.connect", RemoteTrustServiceHandle::<u32>::connect(addr)))
        .collect::<Option<Vec<_>>>()?;
    Some(Stack { service, server, remotes })
}

pub fn run(cfg: &Config, sizes: &Sizes) -> RunOutput {
    let space = KeySpace { clients: CLIENTS, peers: sizes.peers };
    let tasks = gen::tasks();
    let warm = warm_entries(cfg.seed, space, sizes.warm_obs);
    let mut out = RunOutput {
        inputs: vec![
            ("clients", CLIENTS.to_string()),
            ("shards", SHARDS.to_string()),
            ("keys", space.keys().to_string()),
            ("warm_sessions", warm.len().to_string()),
            ("candidates", sizes.candidates.to_string()),
            ("freshness", "snapshot(0)".to_string()),
            ("fsync", "none (in-memory)".to_string()),
        ],
        ..RunOutput::default()
    };
    let (rss_before, _) = measure::rss_bytes();

    let stack = common::set_up_repeatedly(
        cfg,
        &mut out,
        |tally| set_up(&warm, &tasks, tally),
        |s| {
            drop(s.remotes);
            s.server.shutdown();
            let _ = s.service.shutdown();
        },
    );
    let Some(Stack { service, server, remotes }) = stack else {
        out.check("setup", Err("the served stack did not come up".into()));
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
    let requesters: Vec<Requester> = std::thread::scope(|scope| {
        let clients: Vec<_> = remotes
            .into_iter()
            .enumerate()
            .map(|(c, remote)| {
                let tasks = &tasks;
                scope.spawn(move || {
                    let mut ops = Remote(remote);
                    let mut r = Requester::new(cfg.seed, c as u32, cfg.trace, epoch);
                    while Instant::now() < deadline {
                        r.round(&mut ops, cfg.seed, space, tasks, sizes.candidates);
                    }
                    r
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("requester thread panicked")).collect()
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
    if let (Some(before), Some(after)) = (&stats_before, &stats_after) {
        let commits = requesters.iter().map(|r| r.commits).sum();
        common::service_layer(before, after, commits, false, &mut out.layer);
    }
    drop(handle);
    server.shutdown();
    let mut served = Vec::new();
    if let Some(engines) = out.tally.count("sharded.shutdown", service.shutdown()) {
        for engine in &engines {
            measure::records(engine, &mut served);
        }
    }

    // sequential replay of the same warm-up and the same drives
    let mut oracle: TrustStore<u32> = TrustStore::new();
    let betas = ForgettingFactors::figures();
    let scratch: TrustStore<u32> = TrustStore::new();
    for chunk in warm.chunks(WARM_CHUNK) {
        let batch = chunk.iter().filter_map(|e| gen::session(&scratch, &tasks, e).ok()).collect();
        oracle.commit_batch_receipts(batch, &betas);
    }
    let mut served_profit = Vec::new();
    let mut oracle_profit = Vec::new();
    for r in requesters {
        let mut replay = Requester::new(cfg.seed, r.client, false, epoch);
        let mut ops = Local(&mut oracle, betas);
        for _ in 0..r.rounds {
            replay.round(&mut ops, cfg.seed, space, &tasks, sizes.candidates);
        }
        served_profit.push(r.profit / r.rounds.max(1) as f64);
        oracle_profit.push(replay.profit / replay.rounds.max(1) as f64);
        out.rounds += r.rounds;
        out.commits += r.commits;
        out.round.extend(r.round);
        out.read.extend(r.read);
        out.decide.extend(r.decide);
        out.commit.extend(r.commit);
        out.acks.extend(r.acks);
        out.tally.merge(r.tally);
        out.spans.push(r.tracer.spans);
    }
    let mut expected = Vec::new();
    measure::records(&oracle, &mut expected);
    out.check(
        "served records match the sequential replay",
        measure::same_records("records", served, expected),
    );
    let same_profit =
        served_profit.iter().zip(&oracle_profit).all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(
        "mean profit matches the sequential replay",
        if same_profit {
            Ok(())
        } else {
            Err(format!("served {served_profit:?}, replay {oracle_profit:?}"))
        },
    );
    out.notes.push(format!("mean_profit_per_round {served_profit:?}"));

    let records = oracle.record_count() as f64;
    let inserted = records - space.keys() as f64;
    out.layer.insert("store.update_share", 1.0 - common::ratio(inserted, out.commits as f64));
    out.layer.insert(
        "store.rss_bytes_per_record",
        common::ratio(rss_after.saturating_sub(rss_before) as f64, records),
    );
    out.layer.insert("fleet.stall_ms", 0.0);
    out.inputs.push(("records", (records as u64).to_string()));
    out
}
