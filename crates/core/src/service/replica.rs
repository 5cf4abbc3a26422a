//! Epoch-snapshotted read replicas: the read-optimized query tier.
//!
//! Every query API before this one serializes through an actor mailbox —
//! correct (read-your-awaited-writes) but wrong for the read-dominated
//! traffic a production SIoT deployment actually sees, where millions of
//! `trustworthiness`/`known_peers`/`task_records` lookups ride a thin
//! write stream. This module lets reads leave the write path entirely:
//!
//! * Each shard actor **publishes** an immutable, epoch-stamped
//!   [`ReadSnapshot`] of its read state at the end of every drain cycle
//!   that folded commits. Publication is cheap — the snapshot is a
//!   persistent (structurally shared) B+tree keyed by `(peer, task)`, so
//!   publishing clones the root `Arc`, not the records — and it never
//!   blocks the write path: the shared slot is swapped under a
//!   pointer-sized critical section, and the replaced snapshot is freed
//!   after it.
//! * Mirroring a fold into the actor's working copy is one descent. A node
//!   still shared with a published snapshot is copied on its first touch
//!   after that publication and edited in place afterwards, so each
//!   touched node is copied at most once per publication: O(depth) node
//!   copies for a 1-session drain, and never more nodes than the drain
//!   touched for a large one.
//! * A [`ReplicaHandle`] serves `trustworthiness` / `record` /
//!   `known_peers` / `task_records` directly off the latest snapshots with
//!   **zero mailbox traffic** — reads scale independently of the actors
//!   and keep answering (from the last published state) even while a shard
//!   is saturated or after the service stopped.
//! * Callers that want staleness *bounds* rather than raw snapshots use
//!   [`Freshness::Snapshot`] on the ordinary service handles: the read is
//!   served from the snapshot only while it is missing at most
//!   `max_epoch_lag` of the shard's folds, and falls through to the mailbox
//!   (a fresh read) otherwise. See [`Freshness`] for the full consistency
//!   menu — those docs are the single normative statement of the
//!   guarantees.
//!
//! ## Epochs and staleness
//!
//! Snapshots are stamped with the **drain epoch** they were published at —
//! the same per-shard counter that stamps [`Cut`] replies and shows up in
//! [`ShardStats::drains`] — using the number the publishing drain cycle
//! *completes* as. Staleness, though, is counted in **mutating folds**,
//! not drain cycles: the slot carries a fold counter the actor advances
//! once per non-empty commit fold, each snapshot remembers the count it
//! was built at, and their difference — *how many commit folds the
//! snapshot is missing* — is the lag that [`Freshness::Snapshot`] bounds.
//! (Drain cycles would be the wrong unit: read-only traffic spins the
//! drain counter without changing any record, and whether consecutive
//! queries share a drain cycle is a scheduling accident.) Under
//! [`ServiceOptions::publish_every`] ` = K` the lag never exceeds `K - 1`.
//! Drain cycles that folded nothing do **not** publish and do not advance
//! the fold counter, so a read-only or freshly spawned service never
//! looks stale and broadcasts never force a publication round.
//!
//! With the default [`ServiceOptions::publish_every`] ` = 1` every
//! mutating drain publishes before it acks, so an awaited commit is
//! already visible to snapshot reads when the ack arrives; larger values
//! amortize publication on write-hot shards and widen the lag the
//! bounded-staleness check can observe.
//!
//! ```
//! use siot_core::prelude::*;
//! use siot_core::service::{block_on, ServiceOptions, ShardedTrustService};
//!
//! let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).unwrap();
//! let service = ShardedTrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
//! let handle = service.handle();
//! let replica = handle.replica();
//!
//! block_on(async {
//!     let request = DelegationRequest::new(7, &task, Goal::ANY, Context::amicable(task.id()))
//!         .committed();
//!     handle.complete(request, DelegationOutcome::succeeded(0.9, 0.1)).await.unwrap();
//! });
//! // the awaited commit was published before its ack: zero-mailbox reads
//! // see it without touching the actor
//! assert_eq!(replica.known_peers().value, vec![7]);
//! assert!(replica.record(7, task.id()).is_some());
//! service.shutdown().unwrap();
//! // the last published state keeps answering after shutdown
//! assert_eq!(replica.known_peers().value, vec![7]);
//! ```
//!
//! [`Cut`]: super::Cut
//! [`Freshness`]: super::Freshness
//! [`Freshness::Snapshot`]: super::Freshness::Snapshot
//! [`ShardStats::drains`]: super::ShardStats::drains
//! [`ShardStats::published_epoch`]: super::ShardStats::published_epoch
//! [`ServiceOptions::publish_every`]: super::ServiceOptions::publish_every

use super::{Cut, ShardStats};
use crate::delegation::DelegationReceipt;
use crate::record::TrustRecord;
use crate::task::TaskId;
use crate::tw::{Normalizer, Trustworthiness};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// A persistent (structurally shared) B+tree from `(peer, task)` to record.
//
// Records sit inline in the leaves; inner nodes hold `(first key, child)`
// pairs. Publishing the whole read state is one `Arc` clone of the root —
// no deep copy per drain. Every upsert descends through `Arc::make_mut`: a
// node still shared with a published snapshot is copied on its first touch
// after that publication and edited in place on every later touch until
// the next one. A drain therefore copies each node it touches at most once
// per publication — O(depth) node copies for a 1-session drain, at most
// the touched leaves plus their ancestors for a large one — and every node
// it does not touch stays shared between the working copy and all
// published snapshots (SymanticWeft ADR-0005's frame: immutable units,
// convergence without coordination). The service never deletes a record,
// so nodes only ever split.
// ---------------------------------------------------------------------------

/// Entries per node before it splits: wide enough to keep the tree a few
/// levels deep at millions of records, narrow enough that the copy a node
/// takes on its first touch after a publication stays cheap.
const FANOUT: usize = 32;

type Key<P> = (P, TaskId);

#[derive(Debug, Clone)]
enum Node<P> {
    /// Records, ascending by key.
    Leaf(Vec<(Key<P>, TrustRecord)>),
    /// Children, ascending, each with the first key of its subtree.
    Inner(Vec<(Key<P>, Arc<Node<P>>)>),
}

impl<P: Copy + Ord> Node<P> {
    fn first_key(&self) -> Key<P> {
        match self {
            Node::Leaf(records) => records[0].0,
            Node::Inner(children) => children[0].0,
        }
    }

    /// Upserts into this subtree, copying every still-shared node on the
    /// way down. Returns whether `key` is new and, if this node overflowed,
    /// the right sibling split off it.
    fn upsert(&mut self, key: Key<P>, rec: TrustRecord) -> (bool, Option<Arc<Node<P>>>) {
        match self {
            Node::Leaf(records) => match records.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => {
                    records[i].1 = rec;
                    (false, None)
                }
                Err(i) => {
                    let split = insert_split(records, i, (key, rec));
                    (true, split.map(|right| Arc::new(Node::Leaf(right))))
                }
            },
            Node::Inner(children) => {
                // the last child starting at or below `key`; the first
                // child also takes keys below the whole subtree
                let i = children.partition_point(|(first, _)| *first <= key).saturating_sub(1);
                let (first, child) = &mut children[i];
                *first = (*first).min(key);
                let (added, split) = Arc::make_mut(child).upsert(key, rec);
                let split = split.and_then(|sibling| {
                    let entry = (sibling.first_key(), sibling);
                    insert_split(children, i + 1, entry).map(|right| Arc::new(Node::Inner(right)))
                });
                (added, split)
            }
        }
    }
}

/// Inserts `item` at `at`, growing the node by exactly one slot, and splits
/// off the upper half once the node overflows [`FANOUT`].
fn insert_split<T>(items: &mut Vec<T>, at: usize, item: T) -> Option<Vec<T>> {
    items.reserve_exact(1);
    items.insert(at, item);
    (items.len() > FANOUT).then(|| items.split_off(items.len() / 2))
}

/// The snapshot's record store: cloning is O(1) (the root `Arc`), an
/// upsert is one descent.
#[derive(Debug, Clone)]
struct RecordMap<P> {
    root: Arc<Node<P>>,
    records: usize,
}

impl<P> Default for RecordMap<P> {
    fn default() -> Self {
        RecordMap { root: Arc::new(Node::Leaf(Vec::new())), records: 0 }
    }
}

impl<P: Copy + Ord> RecordMap<P> {
    fn upsert(&mut self, key: Key<P>, rec: TrustRecord) {
        let (added, split) = Arc::make_mut(&mut self.root).upsert(key, rec);
        if let Some(right) = split {
            let left = Arc::clone(&self.root);
            let children = vec![(left.first_key(), left), (right.first_key(), right)];
            self.root = Arc::new(Node::Inner(children));
        }
        self.records += usize::from(added);
    }

    fn get(&self, key: Key<P>) -> Option<TrustRecord> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Inner(children) => {
                    let i = children.partition_point(|(first, _)| *first <= key);
                    node = &children[i.checked_sub(1)?].1;
                }
                Node::Leaf(records) => {
                    let i = records.binary_search_by(|(k, _)| k.cmp(&key)).ok()?;
                    return Some(records[i].1);
                }
            }
        }
    }

    /// In-order (ascending-key) visit.
    fn for_each(&self, f: &mut impl FnMut(Key<P>, TrustRecord)) {
        fn walk<P: Copy>(node: &Node<P>, f: &mut impl FnMut(Key<P>, TrustRecord)) {
            match node {
                Node::Leaf(records) => records.iter().for_each(|&(key, rec)| f(key, rec)),
                Node::Inner(children) => children.iter().for_each(|(_, child)| walk(child, f)),
            }
        }
        walk(&self.root, f);
    }
}

// ---------------------------------------------------------------------------
// ReadSnapshot: the immutable unit the actor publishes.
// ---------------------------------------------------------------------------

/// One shard's immutable, epoch-stamped read state: every `(peer, task)`
/// record the shard had folded when the stamping drain cycle completed,
/// plus the normalizer to derive Eq. 18 trustworthiness. Published by the
/// shard actor (see the [module docs](self)), shared by `Arc` — reading
/// never copies records and never touches the actor.
#[derive(Debug, Clone)]
pub struct ReadSnapshot<P> {
    epoch: u64,
    /// The slot's mutating-fold count when this snapshot was built — the
    /// baseline the bounded-staleness check measures lag from.
    folds: u64,
    normalizer: Normalizer,
    map: RecordMap<P>,
}

impl<P: Copy + Ord> ReadSnapshot<P> {
    /// The drain epoch this snapshot was published at — comparable with
    /// [`Cut`] epochs and [`ShardStats::drains`]: if this
    /// epoch is ≥ a cut's epoch for the same shard, the snapshot observed
    /// at least everything that cut did.
    ///
    /// [`ShardStats::drains`]: super::ShardStats::drains
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The normalization operator the owning engine derives Eq. 18
    /// trustworthiness with.
    pub fn normalizer(&self) -> Normalizer {
        self.normalizer
    }

    /// The record for `(peer, task)` as of [`epoch`](Self::epoch), if any
    /// interaction had happened.
    pub fn record(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        self.map.get((peer, task))
    }

    /// Eq. 18 trustworthiness toward `(peer, task)` as of
    /// [`epoch`](Self::epoch).
    pub fn trustworthiness(&self, peer: P, task: TaskId) -> Option<Trustworthiness> {
        self.record(peer, task).map(|r| r.trustworthiness(self.normalizer))
    }

    /// Peers with at least one record — each exactly once, ascending.
    pub fn known_peers(&self) -> Vec<P> {
        let mut out = Vec::new();
        self.map.for_each(&mut |(peer, _), _| {
            if out.last() != Some(&peer) {
                out.push(peer);
            }
        });
        out
    }

    /// Every `(peer, record)` pair held for `task`, ascending by peer.
    pub fn task_records(&self, task: TaskId) -> Vec<(P, TrustRecord)> {
        let mut out = Vec::new();
        self.map.for_each(&mut |(peer, t), rec| {
            if t == task {
                out.push((peer, rec));
            }
        });
        out
    }

    /// How many `(peer, task)` records the snapshot holds.
    pub fn record_count(&self) -> usize {
        self.map.records
    }
}

// ---------------------------------------------------------------------------
// ReplicaSlot: the publication point shared between actor and readers.
// ---------------------------------------------------------------------------

/// The `Arc`-swap slot one shard publishes through. Readers
/// [`load`](Self::load) the current snapshot; the actor
/// [`publish`](Self::publish)es a new one. The mutex guards only the
/// pointer swap itself — a pointer-sized critical section on either side,
/// never held across record access or publication building — so the write
/// path is never meaningfully blocked by readers. (A raw `AtomicPtr` of
/// `Arc`s cannot be loaded safely without hazard-pointer machinery; the
/// swap-only mutex is the safe std-only spelling of the same shape.)
#[derive(Debug)]
pub(crate) struct ReplicaSlot<P> {
    current: Mutex<Arc<ReadSnapshot<P>>>,
    /// Epoch of the newest fold the actor applied (advanced before the
    /// fold's receipts are acked) — what a forced publication stamps its
    /// snapshot with.
    last_fold: AtomicU64,
    /// Count of mutating folds the actor has applied. The lag that
    /// [`Freshness::Snapshot`](super::Freshness::Snapshot) bounds is
    /// `folds - snapshot.folds`: how many commit folds the published
    /// snapshot is missing. Fold *counts* rather than drain epochs so
    /// read-only traffic — which spins the drain counter without changing
    /// a record — never makes a caught-up snapshot look stale.
    folds: AtomicU64,
}

impl<P: Copy + Ord> ReplicaSlot<P> {
    pub(crate) fn new(normalizer: Normalizer) -> Arc<Self> {
        let initial = ReadSnapshot { epoch: 0, folds: 0, normalizer, map: RecordMap::default() };
        Arc::new(ReplicaSlot {
            current: Mutex::new(Arc::new(initial)),
            last_fold: AtomicU64::new(0),
            folds: AtomicU64::new(0),
        })
    }

    /// The latest published snapshot.
    pub(crate) fn load(&self) -> Arc<ReadSnapshot<P>> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The latest snapshot, only while it is missing at most
    /// `max_epoch_lag` of the actor's mutating folds — `None` means "too
    /// stale, fall through to the mailbox".
    pub(crate) fn fresh_within(&self, max_epoch_lag: u64) -> Option<Arc<ReadSnapshot<P>>> {
        let snap = self.load();
        // the fold counter is read after loading: folds landing in between
        // only make this check stricter than the loaded snapshot deserves
        if self.folds.load(Ordering::Acquire).saturating_sub(snap.folds) <= max_epoch_lag {
            Some(snap)
        } else {
            None
        }
    }

    /// Mutating folds the published snapshot is missing — the lag
    /// [`Freshness::Snapshot`](super::Freshness::Snapshot) bounds.
    pub(crate) fn lag(&self) -> u64 {
        let snap_folds = self.load().folds;
        self.folds.load(Ordering::Acquire).saturating_sub(snap_folds)
    }

    fn note_fold(&self, epoch: u64) {
        self.last_fold.store(epoch, Ordering::Release);
        self.folds.fetch_add(1, Ordering::AcqRel);
    }

    fn publish(&self, snapshot: ReadSnapshot<P>) {
        let next = Arc::new(snapshot);
        let replaced = {
            let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *current, next)
        };
        // dropped after the guard: freeing the nodes only the replaced
        // snapshot still owned must not hold readers at the lock
        drop(replaced);
    }
}

// ---------------------------------------------------------------------------
// Publisher: the actor-side half.
// ---------------------------------------------------------------------------

/// The actor's working copy of its read state plus the publication policy.
/// Owned by the actor thread; `apply` mirrors each fold receipt (the
/// receipt carries the absolute post-fold record, so no engine re-read),
/// `folded` advances the fold epoch and publishes per
/// [`ServiceOptions::publish_every`](super::ServiceOptions::publish_every).
#[derive(Debug)]
pub(crate) struct Publisher<P> {
    slot: Arc<ReplicaSlot<P>>,
    map: RecordMap<P>,
    normalizer: Normalizer,
    publish_every: u64,
    /// Folds applied since the last publication.
    dirty: u64,
}

impl<P: Copy + Ord> Publisher<P> {
    /// A publisher over `slot`, seeded with the engine's pre-existing
    /// records (`seed` visits every `(peer, task, record)` triple — the
    /// engine/backend read seam) so a reopened durable engine serves its
    /// recovered state from epoch 0.
    pub(crate) fn new(
        slot: Arc<ReplicaSlot<P>>,
        publish_every: u64,
        seed: impl FnOnce(&mut dyn FnMut(P, TaskId, TrustRecord)),
    ) -> Self {
        let normalizer = slot.load().normalizer;
        let mut map = RecordMap::default();
        seed(&mut |peer, task, rec| map.upsert((peer, task), rec));
        if map.records > 0 {
            slot.publish(ReadSnapshot { epoch: 0, folds: 0, normalizer, map: map.clone() });
        }
        Publisher { slot, map, normalizer, publish_every: publish_every.max(1), dirty: 0 }
    }

    /// Mirrors one fold receipt into the working copy.
    pub(crate) fn apply(&mut self, receipt: &DelegationReceipt<P>) {
        self.map.upsert((receipt.trustee, receipt.task), receipt.record);
    }

    /// Called once per non-empty fold, with the epoch the folding drain
    /// cycle completes as: advances the fold epoch (so staleness checks
    /// see the pending state), publishes if the policy says so, and
    /// mirrors the published epoch into `stats`.
    pub(crate) fn folded(&mut self, epoch: u64, stats: &mut ShardStats) {
        self.slot.note_fold(epoch);
        self.dirty += 1;
        if self.dirty >= self.publish_every {
            self.publish(epoch, stats);
        }
    }

    /// Publishes the working copy regardless of policy, at the epoch of
    /// the newest applied fold (the shutdown path: the last published
    /// state outlives the actor).
    pub(crate) fn force_publish(&mut self, stats: &mut ShardStats) {
        if self.dirty > 0 {
            let epoch = self.slot.last_fold.load(Ordering::Acquire);
            self.publish(epoch, stats);
        }
    }

    fn publish(&mut self, epoch: u64, stats: &mut ShardStats) {
        self.slot.publish(ReadSnapshot {
            epoch,
            // actor thread: every note_fold happened-before this publish,
            // so the counter names exactly the folds the map contains
            folds: self.slot.folds.load(Ordering::Acquire),
            normalizer: self.normalizer,
            map: self.map.clone(),
        });
        stats.published_epoch = epoch;
        self.dirty = 0;
    }
}

// ---------------------------------------------------------------------------
// ReplicaHandle: the zero-mailbox reader.
// ---------------------------------------------------------------------------

/// A read replica over a service's shards: serves `trustworthiness` /
/// `record` / `known_peers` / `task_records` directly off the latest
/// published [`ReadSnapshot`]s — zero mailbox traffic, so reads cost the
/// actors nothing and keep answering (from the last published state) even
/// while shards are saturated, reconnecting, or stopped.
///
/// Obtained from [`ShardedTrustServiceHandle::replica`] (one slot per
/// shard). All
/// methods are synchronous — there is nothing to await. For reads with an
/// explicit staleness *bound* (fall through to a fresh mailbox read when
/// too stale), use [`Freshness::Snapshot`] on the ordinary handles
/// instead.
///
/// [`ShardedTrustServiceHandle::replica`]: super::ShardedTrustServiceHandle::replica
/// [`Freshness::Snapshot`]: super::Freshness::Snapshot
#[derive(Debug)]
pub struct ReplicaHandle<P> {
    slots: Arc<[Arc<ReplicaSlot<P>>]>,
}

impl<P> Clone for ReplicaHandle<P> {
    fn clone(&self) -> Self {
        ReplicaHandle { slots: Arc::clone(&self.slots) }
    }
}

impl<P: Copy + Ord> ReplicaHandle<P> {
    pub(crate) fn over(slots: Arc<[Arc<ReplicaSlot<P>>]>) -> Self {
        ReplicaHandle { slots }
    }

    /// How many shard snapshots this replica reads over.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The latest published snapshot of every shard, in shard order.
    pub fn snapshots(&self) -> Vec<Arc<ReadSnapshot<P>>> {
        self.slots.iter().map(|s| s.load()).collect()
    }

    /// The worst per-shard lag (mutating folds the published snapshot is
    /// missing) across the replica — `0` means every shard's snapshot
    /// reflects its last fold.
    pub fn max_lag(&self) -> u64 {
        self.slots.iter().map(|s| s.lag()).max().unwrap_or(0)
    }

    /// Peers with at least one record across all shards — each exactly
    /// once, ascending — merged from the latest snapshots and stamped
    /// with their epochs (shard order).
    pub fn known_peers(&self) -> Cut<Vec<P>> {
        let snaps = self.snapshots();
        let epochs = snaps.iter().map(|s| s.epoch()).collect();
        let mut peers: Vec<P> = snaps.iter().flat_map(|s| s.known_peers()).collect();
        peers.sort_unstable();
        Cut { epochs, value: peers }
    }

    /// Every `(peer, record)` pair held for `task` across all shards,
    /// ascending by peer, merged from the latest snapshots and
    /// epoch-stamped.
    pub fn task_records(&self, task: TaskId) -> Cut<Vec<(P, TrustRecord)>> {
        let snaps = self.snapshots();
        let epochs = snaps.iter().map(|s| s.epoch()).collect();
        let mut records: Vec<(P, TrustRecord)> =
            snaps.iter().flat_map(|s| s.task_records(task)).collect();
        records.sort_unstable_by_key(|&(peer, _)| peer);
        Cut { epochs, value: records }
    }
}

impl<P: Copy + Ord + Hash> ReplicaHandle<P> {
    /// The slot owning `peer` under the stable shard routing (single-slot
    /// replicas route everything to their one slot).
    fn slot_of(&self, peer: P) -> &ReplicaSlot<P> {
        if self.slots.len() == 1 {
            &self.slots[0]
        } else {
            &self.slots[super::sharded::shard_index(&peer, self.slots.len())]
        }
    }

    /// The record for `(peer, task)` from the owning shard's latest
    /// snapshot.
    pub fn record(&self, peer: P, task: TaskId) -> Option<TrustRecord> {
        self.slot_of(peer).load().record(peer, task)
    }

    /// Eq. 18 trustworthiness toward `(peer, task)` from the owning
    /// shard's latest snapshot.
    pub fn trustworthiness(&self, peer: P, task: TaskId) -> Option<Trustworthiness> {
        self.slot_of(peer).load().trustworthiness(peer, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rec(interactions: u64) -> TrustRecord {
        TrustRecord { interactions, ..TrustRecord::default() }
    }

    fn key(peer: u32, task: u32) -> Key<u32> {
        (peer, TaskId(task))
    }

    /// The depth of `map`'s leaves, asserting the B+tree invariants: at
    /// most [`FANOUT`] entries per node, every inner key the first key of
    /// its child (which also rejects empty non-root nodes), and every leaf
    /// at one depth.
    fn depth(map: &RecordMap<u32>) -> usize {
        fn walk(node: &Node<u32>, at: usize, out: &mut Vec<usize>) {
            match node {
                Node::Leaf(records) => {
                    assert!(records.len() <= FANOUT, "leaf of {} records", records.len());
                    out.push(at);
                }
                Node::Inner(children) => {
                    assert!((1..=FANOUT).contains(&children.len()), "{} children", children.len());
                    for (first, child) in children {
                        assert_eq!(*first, child.first_key());
                        walk(child, at + 1, out);
                    }
                }
            }
        }
        let mut leaves = Vec::new();
        walk(&map.root, 1, &mut leaves);
        leaves.dedup();
        assert_eq!(leaves.len(), 1, "leaves at one depth");
        leaves[0]
    }

    fn contents(map: &RecordMap<u32>) -> Vec<(Key<u32>, TrustRecord)> {
        let mut out = Vec::new();
        map.for_each(&mut |k, r| out.push((k, r)));
        out
    }

    #[test]
    fn record_map_upserts_and_iterates_sorted() {
        let mut map: RecordMap<u32> = RecordMap::default();
        assert_eq!(map.get(key(0, 0)), None, "empty map");
        // both edges of the key space: ascending, then descending inserts
        for peer in 0..256u32 {
            map.upsert(key(peer, 0), rec(1));
        }
        for peer in (0..256u32).rev() {
            map.upsert(key(peer, 1), rec(2));
        }
        assert_eq!(map.records, 512);
        let seen: Vec<Key<u32>> = contents(&map).into_iter().map(|(k, _)| k).collect();
        let want: Vec<Key<u32>> = (0..256u32).flat_map(|p| [key(p, 0), key(p, 1)]).collect();
        assert_eq!(seen, want);
        // replacement does not grow the map
        map.upsert(key(7, 0), rec(9));
        assert_eq!(map.records, 512);
        assert_eq!(map.get(key(7, 0)).unwrap().interactions, 9);
        assert_eq!(map.get(key(7, 2)), None);
        assert_eq!(map.get(key(256, 0)), None);
    }

    #[test]
    fn record_map_stays_balanced() {
        let mut ascending: RecordMap<u32> = RecordMap::default();
        let mut scattered: RecordMap<u32> = RecordMap::default();
        for peer in 0..4096u32 {
            ascending.upsert(key(peer, 0), rec(1));
            // a fixed odd multiplier permutes 0..4096
            scattered.upsert(key(peer.wrapping_mul(2_654_435_761) % 4096, 0), rec(1));
        }
        // even splits keep every non-root node at least half full, so 4096
        // records sit at most four levels deep
        for map in [&ascending, &scattered] {
            let depth = depth(map);
            assert!(depth <= 4, "depth {depth} for 4096 keys");
        }
    }

    #[test]
    fn published_clones_share_structure_with_the_working_copy() {
        let mut map: RecordMap<u32> = RecordMap::default();
        for peer in 0..1024u32 {
            map.upsert(key(peer, 0), rec(1));
        }
        let published = map.clone();
        map.upsert(key(0, 0), rec(2));
        // the published snapshot still sees the old value...
        assert_eq!(published.get(key(0, 0)).unwrap().interactions, 1);
        assert_eq!(map.get(key(0, 0)).unwrap().interactions, 2);
        // ...the touched path was copied once, and every other child of
        // the root is still the same allocation (compared by address: an
        // `Arc` held here would itself force a copy on the next touch)
        let children = |m: &RecordMap<u32>| match &*m.root {
            Node::Inner(children) => children.iter().map(|(_, c)| Arc::as_ptr(c)).collect(),
            Node::Leaf(_) => Vec::new(),
        };
        let (old, new) = (children(&published), children(&map));
        assert!(old.len() > 1);
        assert_ne!(old[0], new[0], "touched child is a copy");
        assert_eq!(old[1..], new[1..]);
        // a later touch before the next publication edits the copy in place
        map.upsert(key(1, 0), rec(3));
        assert_eq!(children(&map), new, "no second copy");
        assert_eq!(published.get(key(1, 0)).unwrap().interactions, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random upsert sequences against a `BTreeMap` oracle, with clones
        /// taken at random points: every clone keeps the state it was taken
        /// at (copy-on-write isolation), the working copy ends at the
        /// oracle's final state, and the tree keeps its shape throughout.
        #[test]
        fn record_map_matches_a_btreemap_oracle(
            order in 0u8..4,
            ops in prop::collection::vec((0u32..1000, 0u32..4, 0u32..100), 0..2500),
        ) {
            let n = ops.len() as u32;
            let keys: Vec<Key<u32>> = ops
                .iter()
                .enumerate()
                .map(|(i, &(peer, task, _))| match order {
                    0 => key(i as u32 / 3, i as u32 % 3),
                    1 => key((n - i as u32) / 3, (n - i as u32) % 3),
                    2 => key(peer, task),
                    _ => key(peer % 8, task % 2),
                })
                .collect();
            let mut map: RecordMap<u32> = RecordMap::default();
            let mut oracle: BTreeMap<Key<u32>, TrustRecord> = BTreeMap::new();
            let mut clones = Vec::new();
            for (i, (&k, &(_, _, roll))) in keys.iter().zip(&ops).enumerate() {
                map.upsert(k, rec(i as u64));
                oracle.insert(k, rec(i as u64));
                if roll < 3 {
                    clones.push((map.clone(), oracle.clone()));
                }
            }
            clones.push((map, oracle));
            for (snapshot, expected) in &clones {
                let want: Vec<_> = expected.iter().map(|(&k, &r)| (k, r)).collect();
                prop_assert_eq!(contents(snapshot), want);
                prop_assert_eq!(snapshot.records, expected.len());
                for (&k, &r) in expected {
                    prop_assert_eq!(snapshot.get(k), Some(r));
                }
                prop_assert_eq!(snapshot.get(key(1000, 0)), None);
                depth(snapshot);
            }
        }
    }

    #[test]
    fn slot_staleness_accounting() {
        let slot: Arc<ReplicaSlot<u32>> = ReplicaSlot::new(Normalizer::UNIT);
        let mut stats = ShardStats::default();
        let mut publisher = Publisher::new(Arc::clone(&slot), 3, |_| {});
        assert_eq!(slot.lag(), 0);
        assert!(slot.fresh_within(0).is_some(), "fresh spawn is never stale");

        publisher.apply(&DelegationReceipt {
            trustee: 5u32,
            task: TaskId(0),
            record: rec(1),
            trustworthiness: Trustworthiness::new(0.5),
            fulfilled: true,
        });
        publisher.folded(1, &mut stats);
        // publish_every = 3: fold noted, nothing published yet
        assert_eq!(slot.lag(), 1);
        assert!(slot.fresh_within(0).is_none(), "lag 1 > bound 0");
        assert!(slot.fresh_within(1).is_some());
        assert_eq!(slot.load().record_count(), 0, "still the empty epoch-0 snapshot");

        publisher.folded(2, &mut stats);
        publisher.folded(3, &mut stats);
        assert_eq!(slot.lag(), 0, "third fold published");
        assert_eq!(stats.published_epoch, 3);
        assert_eq!(slot.load().record(5, TaskId(0)).unwrap().interactions, 1);
    }
}
