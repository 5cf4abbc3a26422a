//! Seeded inputs. Everything a workload sends is derived from the run's
//! `--seed` through these generators, so the same seed replays the same
//! session stream, candidate sets and outcomes — which is what lets every
//! workload check its served state against a sequential oracle fold.

use siot_core::context::Context;
use siot_core::delegation::{CompletedDelegation, DelegationOutcome, DelegationRequest};
use siot_core::error::TrustError;
use siot_core::goal::Goal;
use siot_core::record::Observation;
use siot_core::store::TrustStore;
use siot_core::task::{CharacteristicId, Task, TaskId};

/// Tasks every workload delegates; a key is a `(peer, task)` pair.
pub const TASKS: u32 = 4;

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent sub-seed (one per client, per purpose).
pub fn mix(seed: u64, lane: u64) -> u64 {
    Rng::new(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

pub fn tasks() -> Vec<Task> {
    (0..TASKS)
        .map(|t| Task::uniform(TaskId(t), [CharacteristicId(t)]).expect("one characteristic"))
        .collect()
}

/// Client-scoped key space: client `c` of `clients` owns the peers
/// `c, c + clients, c + 2·clients, …` — `peers` of them — so no two
/// clients ever fold the same key and each client's share of the served
/// state depends only on its own stream.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    pub clients: u32,
    pub peers: u32,
}

impl KeySpace {
    pub fn keys(&self) -> u64 {
        u64::from(self.clients) * u64::from(self.peers) * u64::from(TASKS)
    }

    pub fn peer(&self, client: u32, rng: &mut Rng) -> u32 {
        client + self.clients * rng.below(u64::from(self.peers)) as u32
    }
}

pub type Entry = (u32, TaskId, Observation);

/// One client's stream of committed-session inputs.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    client: u32,
    space: KeySpace,
}

impl Stream {
    pub fn new(seed: u64, client: u32, space: KeySpace) -> Self {
        Stream { rng: Rng::new(mix(seed, 1 + u64::from(client))), client, space }
    }

    pub fn window(&mut self, n: usize) -> Vec<Entry> {
        (0..n)
            .map(|_| {
                let peer = self.space.peer(self.client, &mut self.rng);
                let task = TaskId(self.rng.below(u64::from(TASKS)) as u32);
                let obs = Observation {
                    success_rate: self.rng.unit(),
                    gain: self.rng.unit(),
                    damage: self.rng.unit(),
                    cost: self.rng.unit(),
                };
                (peer, task, obs)
            })
            .collect()
    }
}

/// The client-side half of one committed session:
/// `new().committed().activate().finish()`.
pub fn session(
    scratch: &TrustStore<u32>,
    tasks: &[Task],
    &(peer, task, obs): &Entry,
) -> Result<CompletedDelegation<u32>, TrustError> {
    DelegationRequest::new(peer, &tasks[task.0 as usize], Goal::ANY, Context::amicable(task))
        .committed()
        .activate(scratch)
        .finish(DelegationOutcome::observed(obs))
}

/// A peer's hidden behaviour, which its trustors only learn through
/// outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub success: f64,
    pub gain: f64,
    pub damage: f64,
    pub cost: f64,
}

impl Quality {
    pub fn of(seed: u64, peer: u32) -> Self {
        let mut r = Rng::new(mix(seed, 0x5155_0000_0000 | u64::from(peer)));
        Quality {
            success: 0.2 + 0.75 * r.unit(),
            gain: 0.3 + 0.7 * r.unit(),
            damage: 0.6 * r.unit(),
            cost: 0.3 * r.unit(),
        }
    }

    /// One realized outcome and its net profit.
    pub fn draw(&self, rng: &mut Rng) -> (Observation, f64) {
        if rng.unit() < self.success {
            (Observation::success(self.gain, self.cost), self.gain - self.cost)
        } else {
            (Observation::failure(self.damage, self.cost), -self.damage - self.cost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let space = KeySpace { clients: 2, peers: 100 };
        let a = Stream::new(7, 1, space).window(50);
        let b = Stream::new(7, 1, space).window(50);
        assert_eq!(a, b);
        assert_ne!(a, Stream::new(8, 1, space).window(50));
        assert!(a.iter().all(|(p, _, _)| p % 2 == 1 && *p < 200));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(3);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }
}
