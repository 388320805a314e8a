//! Deterministic, seed-driven fault injection for the simulated cluster.
//!
//! A [`FaultSchedule`] is a time-ordered list of [`FaultEvent`]s — node
//! crashes, transient outages with scheduled revival, straggler
//! slowdowns, and silent single-block corruptions. Schedules are either
//! built explicitly (tests pinning one scenario) or generated from a
//! seed under a concurrency cap ([`FaultSchedule::generate`]), so the
//! same seed always yields the same failure history.
//!
//! A [`FaultInjector`] replays a schedule against a
//! [`BlockStore`](crate::store::BlockStore) as virtual time advances,
//! tracking which nodes are currently slow (for the engine's latency
//! multipliers) and which recently revived (for the
//! [`RetryPolicy`](crate::spec::RetryPolicy) of the query executors).

use crate::store::{BlockId, BlockStore};
use crate::time::Nanos;
use crate::topology::Topology;
use std::collections::{BTreeSet, HashMap};

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Permanent crash-stop: the node stays down until an external
    /// repair (`recover_node`) brings it back.
    Crash,
    /// Crash-stop with a scheduled revival `down_for` later. The node
    /// comes back **empty** (crash-stop loses its blocks); the
    /// [`AppliedFault::Revived`] event lets the store mark it flaky for
    /// retry modeling.
    Transient {
        /// How long the node stays down.
        down_for: Nanos,
    },
    /// Straggler: every disk/CPU/NIC step on the node runs `factor`×
    /// slower for `duration`.
    Slowdown {
        /// Latency multiplier (> 1.0 slows the node down).
        factor: f64,
        /// How long the slowdown lasts.
        duration: Nanos,
    },
    /// Silent corruption: flips a byte of the node's `nth` block
    /// (by sorted block id, modulo the block count) without touching
    /// its checksum.
    CorruptBlock {
        /// Which of the node's blocks to corrupt.
        nth: usize,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires.
    pub at: Nanos,
    /// Target node.
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-ordered fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// Tiny deterministic generator (SplitMix64) so `fusion-cluster` needs
/// no RNG dependency.
#[derive(Debug, Clone)]
struct Mix64 {
    state: u64,
}

impl Mix64 {
    fn new(seed: u64) -> Mix64 {
        Mix64 {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// The scheduled events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn push(&mut self, ev: FaultEvent) {
        self.events.push(ev);
        self.events.sort_by_key(|e| e.at.0);
    }

    /// Adds a permanent crash.
    pub fn crash(mut self, at: Nanos, node: usize) -> FaultSchedule {
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Adds a transient outage with scheduled revival.
    pub fn transient(mut self, at: Nanos, node: usize, down_for: Nanos) -> FaultSchedule {
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::Transient { down_for },
        });
        self
    }

    /// Adds a straggler slowdown.
    pub fn slowdown(
        mut self,
        at: Nanos,
        node: usize,
        factor: f64,
        duration: Nanos,
    ) -> FaultSchedule {
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::Slowdown { factor, duration },
        });
        self
    }

    /// Adds a silent single-block corruption.
    pub fn corrupt(mut self, at: Nanos, node: usize, nth: usize) -> FaultSchedule {
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::CorruptBlock { nth },
        });
        self
    }

    /// Generates a random schedule over `horizon` for a cluster of
    /// `nodes` nodes: a mix of transient outages, stragglers, and silent
    /// corruptions, with **at most `max_concurrent` nodes down at any
    /// instant** (so an RS(n, k) store with `n − k ≥ max_concurrent`
    /// always stays recoverable). Deterministic in `seed`.
    pub fn generate(
        seed: u64,
        nodes: usize,
        max_concurrent: usize,
        horizon: Nanos,
    ) -> FaultSchedule {
        let mut rng = Mix64::new(seed);
        let mut schedule = FaultSchedule::new();
        if nodes == 0 || horizon == Nanos::ZERO {
            return schedule;
        }
        // Downtime intervals per pending transient: (node, from, until).
        let mut down: Vec<(usize, Nanos, Nanos)> = Vec::new();
        let n_events = 3 + rng.below(6);
        let mut t = Nanos(1 + rng.below(horizon.0 / 8 + 1));
        for _ in 0..n_events {
            if t >= horizon {
                break;
            }
            down.retain(|&(_, _, until)| until > t);
            let node = rng.below(nodes as u64) as usize;
            let node_down = down.iter().any(|&(n, _, _)| n == node);
            let roll = rng.unit();
            if roll < 0.45 && !node_down && down.len() < max_concurrent {
                let down_for = Nanos(1 + rng.below((horizon.0 / 4).max(1)));
                down.push((node, t, t + down_for));
                schedule.push(FaultEvent {
                    at: t,
                    node,
                    kind: FaultKind::Transient { down_for },
                });
            } else if roll < 0.75 && !node_down {
                let factor = 1.5 + rng.unit() * 6.0;
                let duration = Nanos(1 + rng.below((horizon.0 / 4).max(1)));
                schedule.push(FaultEvent {
                    at: t,
                    node,
                    kind: FaultKind::Slowdown { factor, duration },
                });
            } else if !node_down {
                schedule.push(FaultEvent {
                    at: t,
                    node,
                    kind: FaultKind::CorruptBlock {
                        nth: rng.below(64) as usize,
                    },
                });
            }
            t += Nanos(1 + rng.below(horizon.0 / (n_events + 1)));
        }
        schedule
    }

    /// Takes down every node of one failure domain at the same instant —
    /// a whole-rack outage — with revival `down_for` later. The burst is
    /// one correlated event: [`FaultSchedule::max_concurrent_failures`]
    /// counts it as a single domain failure.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range for `topo`.
    pub fn rack_outage(
        mut self,
        at: Nanos,
        topo: &Topology,
        domain: usize,
        down_for: Nanos,
    ) -> FaultSchedule {
        assert!(domain < topo.domains(), "domain out of range");
        for node in topo.nodes_in(domain) {
            self.push(FaultEvent {
                at,
                node,
                kind: FaultKind::Transient { down_for },
            });
        }
        self
    }

    /// A power-domain crash burst: the given nodes crash in quick
    /// succession (`spacing` apart, starting at `at`), each reviving
    /// `down_for` after it went down. Models a PDU brown-out rolling
    /// through the hosts behind it.
    pub fn crash_burst(
        mut self,
        at: Nanos,
        nodes: &[usize],
        spacing: Nanos,
        down_for: Nanos,
    ) -> FaultSchedule {
        for (i, &node) in nodes.iter().enumerate() {
            self.push(FaultEvent {
                at: at + Nanos(spacing.0 * i as u64),
                node,
                kind: FaultKind::Transient { down_for },
            });
        }
        self
    }

    /// Generates a schedule mixing independent node faults with
    /// **correlated failures** — whole-rack outages and power-domain
    /// crash bursts — from the same SplitMix64 seed machinery as
    /// [`FaultSchedule::generate`]. The result always satisfies
    /// [`FaultSchedule::validate`] for the given tolerance: at any
    /// instant the down nodes either all sit in one failure domain (a
    /// correlated event domain-aware placement survives by construction)
    /// or number at most `tolerance`.
    pub fn generate_correlated(
        seed: u64,
        topo: &Topology,
        tolerance: usize,
        horizon: Nanos,
    ) -> FaultSchedule {
        let mut rng = Mix64::new(seed);
        let mut schedule = FaultSchedule::new();
        let nodes = topo.nodes();
        if nodes == 0 || horizon == Nanos::ZERO || tolerance == 0 {
            return schedule;
        }
        // Disjoint event windows so correlated bursts never overlap
        // independent faults (keeping the validity argument local).
        let n_events = 3 + rng.below(4);
        let window = Nanos(horizon.0 / (n_events + 1));
        let mut t = Nanos(1 + rng.below(window.0.max(1)));
        for _ in 0..n_events {
            if t + window >= horizon {
                break;
            }
            // Everything injected in this window ends before the next.
            let down_for = Nanos(1 + rng.below((window.0 / 2).max(1)));
            let roll = rng.unit();
            if roll < 0.30 && !topo.is_flat() {
                // Whole-rack outage.
                let domain = rng.below(topo.domains() as u64) as usize;
                schedule = schedule.rack_outage(t, topo, domain, down_for);
            } else if roll < 0.55 && !topo.is_flat() {
                // Power-domain crash burst inside one rack.
                let domain = rng.below(topo.domains() as u64) as usize;
                let members = topo.nodes_in(domain);
                let count = 1 + rng.below(members.len() as u64) as usize;
                let spacing = Nanos(1 + rng.below((window.0 / 8).max(1)));
                // The whole burst (incl. revivals) must fit the window.
                let spread = spacing.0 * (count as u64 - 1);
                let burst_down = Nanos(down_for.0.saturating_sub(spread).max(1));
                schedule = schedule.crash_burst(t, &members[..count], spacing, burst_down);
            } else if roll < 0.80 {
                // Independent transients, capped at the code tolerance.
                let count = 1 + rng.below(tolerance as u64) as usize;
                let mut picked = BTreeSet::new();
                while picked.len() < count.min(nodes) {
                    picked.insert(rng.below(nodes as u64) as usize);
                }
                for node in picked {
                    schedule = schedule.transient(t, node, down_for);
                }
            } else {
                let node = rng.below(nodes as u64) as usize;
                let factor = 1.5 + rng.unit() * 6.0;
                schedule = schedule.slowdown(t, node, factor, down_for);
            }
            t += window;
        }
        schedule
    }

    /// Largest number of simultaneously-failed **failure domains** this
    /// schedule ever produces (counting permanent crashes as down
    /// forever). A whole-rack outage — N nodes crashing at once — is one
    /// correlated event, not N independent ones; under a flat topology
    /// every node is its own domain and this degenerates to the old
    /// per-node count.
    pub fn max_concurrent_failures(&self, topo: &Topology) -> usize {
        // Sweep boundaries: domain-down counts only change at event edges.
        let mut edges: Vec<(Nanos, usize, i64)> = Vec::new();
        for ev in &self.events {
            let domain = topo.domain_of(ev.node);
            match ev.kind {
                FaultKind::Crash => edges.push((ev.at, domain, 1)),
                FaultKind::Transient { down_for } => {
                    edges.push((ev.at, domain, 1));
                    edges.push((ev.at + down_for, domain, -1));
                }
                _ => {}
            }
        }
        edges.sort_by_key(|&(t, _, delta)| (t.0, delta));
        let mut down_nodes: HashMap<usize, i64> = HashMap::new();
        let mut max = 0usize;
        for (_, domain, delta) in edges {
            *down_nodes.entry(domain).or_insert(0) += delta;
            down_nodes.retain(|_, v| *v > 0);
            max = max.max(down_nodes.len());
        }
        max
    }

    /// Checks the schedule against an erasure code's guaranteed loss
    /// `tolerance` (maximum simultaneous shard losses it always
    /// recovers): at every instant, the simultaneously-down nodes must
    /// either all sit in **one** failure domain (domain-aware placement
    /// caps any domain at `tolerance` shards of a stripe, so a full
    /// domain outage stays recoverable) or number at most `tolerance`
    /// (each node holds at most one shard of a stripe).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::ExceedsTolerance`] naming the first violating
    /// instant.
    pub fn validate(&self, topo: &Topology, tolerance: usize) -> Result<(), ScheduleError> {
        let mut edges: Vec<(Nanos, usize, i64)> = Vec::new();
        for ev in &self.events {
            match ev.kind {
                FaultKind::Crash => edges.push((ev.at, ev.node, 1)),
                FaultKind::Transient { down_for } => {
                    edges.push((ev.at, ev.node, 1));
                    edges.push((ev.at + down_for, ev.node, -1));
                }
                _ => {}
            }
        }
        edges.sort_by_key(|&(t, _, delta)| (t.0, delta));
        let mut down: HashMap<usize, i64> = HashMap::new();
        for (at, node, delta) in edges {
            *down.entry(node).or_insert(0) += delta;
            down.retain(|_, v| *v > 0);
            let domains: BTreeSet<usize> = down.keys().map(|&n| topo.domain_of(n)).collect();
            if domains.len() > 1 && down.len() > tolerance {
                return Err(ScheduleError::ExceedsTolerance {
                    at,
                    nodes_down: down.len(),
                    domains_down: domains.len(),
                    tolerance,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`FaultSchedule`] is unsafe for a given code and topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// At some instant the down nodes span multiple failure domains and
    /// outnumber the code's guaranteed loss tolerance.
    ExceedsTolerance {
        /// When the violation first occurs.
        at: Nanos,
        /// Simultaneously-down nodes at that instant.
        nodes_down: usize,
        /// Distinct failure domains those nodes span.
        domains_down: usize,
        /// The code's guaranteed tolerance.
        tolerance: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ScheduleError::ExceedsTolerance {
                at,
                nodes_down,
                domains_down,
                tolerance,
            } => write!(
                f,
                "at t={}ns, {nodes_down} nodes down across {domains_down} domains \
                 exceeds the code tolerance of {tolerance}",
                at.0
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A fault applied to the data plane, reported by
/// [`FaultInjector::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppliedFault {
    /// A node went down (permanently or transiently).
    Crashed {
        /// When.
        at: Nanos,
        /// Which node.
        node: usize,
    },
    /// A transiently-down node came back (empty).
    Revived {
        /// When.
        at: Nanos,
        /// Which node.
        node: usize,
        /// Blocks the outage lost.
        lost_blocks: usize,
    },
    /// A node became a straggler.
    Slowed {
        /// When.
        at: Nanos,
        /// Which node.
        node: usize,
        /// Latency multiplier.
        factor: f64,
        /// When the slowdown ends.
        until: Nanos,
    },
    /// A block was silently corrupted.
    Corrupted {
        /// When.
        at: Nanos,
        /// Node holding the block.
        node: usize,
        /// The corrupted block.
        block: BlockId,
    },
}

/// Replays a [`FaultSchedule`] against a `BlockStore` as virtual time
/// advances.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    next: usize,
    now: Nanos,
    /// Scheduled revivals: (at, node).
    revivals: Vec<(Nanos, usize)>,
    /// Active slowdowns: node → (factor, until).
    slow: HashMap<usize, (f64, Nanos)>,
    /// Faults applied so far, per node (crashes, slowdowns, and
    /// corruptions that actually landed; revivals counted separately).
    faults_injected: HashMap<usize, u64>,
    /// Revivals applied so far, per node.
    revivals_applied: HashMap<usize, u64>,
}

impl FaultInjector {
    /// An injector over an explicit schedule.
    pub fn new(schedule: FaultSchedule) -> FaultInjector {
        FaultInjector {
            schedule,
            next: 0,
            now: Nanos::ZERO,
            revivals: Vec::new(),
            slow: HashMap::new(),
            faults_injected: HashMap::new(),
            revivals_applied: HashMap::new(),
        }
    }

    /// An injector over a schedule that is validated against the code's
    /// loss tolerance up front (see [`FaultSchedule::validate`]) — the
    /// construction-time guard that keeps experiments from silently
    /// running unrecoverable scenarios.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] from validation.
    pub fn validated(
        schedule: FaultSchedule,
        topo: &Topology,
        tolerance: usize,
    ) -> Result<FaultInjector, ScheduleError> {
        schedule.validate(topo, tolerance)?;
        Ok(FaultInjector::new(schedule))
    }

    /// An injector over a generated schedule (see
    /// [`FaultSchedule::generate`]).
    pub fn from_seed(
        seed: u64,
        nodes: usize,
        max_concurrent: usize,
        horizon: Nanos,
    ) -> FaultInjector {
        FaultInjector::new(FaultSchedule::generate(
            seed,
            nodes,
            max_concurrent,
            horizon,
        ))
    }

    /// The schedule being replayed.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Current virtual time of the injector.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances virtual time to `to`, applying every due fault (and
    /// revival) to `store` in order. Returns what was applied.
    pub fn advance(&mut self, to: Nanos, store: &mut BlockStore) -> Vec<AppliedFault> {
        assert!(to >= self.now, "time cannot go backwards");
        let mut applied = Vec::new();
        loop {
            let next_event = self.schedule.events.get(self.next).map(|e| e.at);
            let next_revival = self.revivals.iter().map(|&(at, _)| at).min();
            let due = match (next_event, next_revival) {
                (Some(e), Some(r)) => Some(e.min(r)),
                (Some(e), None) => Some(e),
                (None, Some(r)) => Some(r),
                (None, None) => None,
            };
            let Some(at) = due else { break };
            if at > to {
                break;
            }
            // Revivals first at equal timestamps: a node that revives the
            // instant another fault fires should be up for it.
            if next_revival.is_some_and(|r| r <= at) {
                let i = self
                    .revivals
                    .iter()
                    .position(|&(t, _)| Some(t) == next_revival)
                    .expect("revival present");
                let (rt, node) = self.revivals.swap_remove(i);
                let lost = store.revive_node(node).unwrap_or(0);
                applied.push(AppliedFault::Revived {
                    at: rt,
                    node,
                    lost_blocks: lost,
                });
                continue;
            }
            let ev = self.schedule.events[self.next];
            self.next += 1;
            match ev.kind {
                FaultKind::Crash => {
                    if store.fail_node(ev.node).is_ok() {
                        applied.push(AppliedFault::Crashed {
                            at: ev.at,
                            node: ev.node,
                        });
                    }
                }
                FaultKind::Transient { down_for } => {
                    if store.fail_node(ev.node).is_ok() {
                        self.revivals.push((ev.at + down_for, ev.node));
                        applied.push(AppliedFault::Crashed {
                            at: ev.at,
                            node: ev.node,
                        });
                    }
                }
                FaultKind::Slowdown { factor, duration } => {
                    let until = ev.at + duration;
                    self.slow.insert(ev.node, (factor, until));
                    applied.push(AppliedFault::Slowed {
                        at: ev.at,
                        node: ev.node,
                        factor,
                        until,
                    });
                }
                FaultKind::CorruptBlock { nth } => {
                    let mut blocks = store.blocks_on(ev.node);
                    blocks.sort();
                    if !blocks.is_empty() {
                        let block = blocks[nth % blocks.len()];
                        if store.corrupt_block(ev.node, block, nth).is_ok() {
                            applied.push(AppliedFault::Corrupted {
                                at: ev.at,
                                node: ev.node,
                                block,
                            });
                        }
                    }
                }
            }
        }
        self.now = to;
        self.slow.retain(|_, &mut (_, until)| until > to);
        for f in &applied {
            match *f {
                AppliedFault::Revived { node, .. } => {
                    *self.revivals_applied.entry(node).or_insert(0) += 1;
                }
                AppliedFault::Crashed { node, .. }
                | AppliedFault::Slowed { node, .. }
                | AppliedFault::Corrupted { node, .. } => {
                    *self.faults_injected.entry(node).or_insert(0) += 1;
                }
            }
        }
        applied
    }

    /// Faults applied to `node` so far (crashes, slowdowns, corruptions
    /// that actually landed).
    pub fn faults_injected(&self, node: usize) -> u64 {
        self.faults_injected.get(&node).copied().unwrap_or(0)
    }

    /// Revivals applied to `node` so far.
    pub fn revivals_applied(&self, node: usize) -> u64 {
        self.revivals_applied.get(&node).copied().unwrap_or(0)
    }

    /// Publishes the per-node fault counters into a metrics registry as
    /// `node<i>.faults_injected` / `node<i>.revivals` (counters are
    /// monotone, so this sets them to the current totals by adding the
    /// delta since the last publish).
    pub fn publish_metrics(&self, registry: &fusion_obs::metrics::MetricsRegistry) {
        for (&node, &v) in &self.faults_injected {
            let c = registry.node(node).counter("faults_injected");
            c.add(v.saturating_sub(c.get()));
        }
        for (&node, &v) in &self.revivals_applied {
            let c = registry.node(node).counter("revivals");
            c.add(v.saturating_sub(c.get()));
        }
    }

    /// Current latency multiplier of a node (1.0 when healthy).
    pub fn slowdown(&self, node: usize) -> f64 {
        self.slow.get(&node).map_or(1.0, |&(f, _)| f)
    }

    /// All currently-slow nodes and their multipliers.
    pub fn slowdowns(&self) -> HashMap<usize, f64> {
        self.slow.iter().map(|(&n, &(f, _))| (n, f)).collect()
    }

    /// True once every scheduled event and pending revival has fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.schedule.events.len() && self.revivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn generate_is_deterministic_and_capped() {
        for seed in 0..50u64 {
            let a = FaultSchedule::generate(seed, 9, 3, Nanos::from_micros(10_000));
            let b = FaultSchedule::generate(seed, 9, 3, Nanos::from_micros(10_000));
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(
                a.max_concurrent_failures(&Topology::flat(9)) <= 3,
                "seed {seed} exceeds failure cap: {:?}",
                a.events()
            );
        }
    }

    #[test]
    fn rack_outage_counts_as_one_domain_failure() {
        let topo = Topology::racks(12, 4);
        let s = FaultSchedule::new().rack_outage(Nanos(100), &topo, 1, Nanos(50));
        // Three nodes crash at t=100, but they are ONE correlated event.
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.max_concurrent_failures(&topo), 1);
        // Under a flat view the same schedule is 3 independent failures.
        assert_eq!(s.max_concurrent_failures(&Topology::flat(12)), 3);
        // One-domain outage is valid for any tolerance.
        s.validate(&topo, 1).unwrap();
    }

    #[test]
    fn validate_rejects_cross_domain_overload() {
        let topo = Topology::racks(12, 4);
        // Four nodes down across two racks exceeds a tolerance of 3.
        let s = FaultSchedule::new()
            .transient(Nanos(10), 0, Nanos(100))
            .transient(Nanos(10), 1, Nanos(100))
            .transient(Nanos(10), 3, Nanos(100))
            .transient(Nanos(20), 4, Nanos(100));
        assert_eq!(
            s.validate(&topo, 3),
            Err(ScheduleError::ExceedsTolerance {
                at: Nanos(20),
                nodes_down: 4,
                domains_down: 2,
                tolerance: 3,
            })
        );
        s.validate(&topo, 4).unwrap();
        assert!(FaultInjector::validated(s.clone(), &topo, 3).is_err());
        assert!(FaultInjector::validated(s, &topo, 4).is_ok());
    }

    #[test]
    fn crash_burst_staggers_and_revives() {
        let s = FaultSchedule::new().crash_burst(Nanos(100), &[2, 5, 7], Nanos(10), Nanos(1000));
        let times: Vec<(u64, usize)> = s.events().iter().map(|e| (e.at.0, e.node)).collect();
        assert_eq!(times, vec![(100, 2), (110, 5), (120, 7)]);
        assert_eq!(s.max_concurrent_failures(&Topology::flat(9)), 3);
    }

    #[test]
    fn generate_correlated_is_deterministic_and_valid() {
        let topo = Topology::racks(16, 4);
        for seed in 0..60u64 {
            let a = FaultSchedule::generate_correlated(seed, &topo, 3, Nanos::from_micros(10_000));
            let b = FaultSchedule::generate_correlated(seed, &topo, 3, Nanos::from_micros(10_000));
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate(&topo, 3)
                .unwrap_or_else(|e| panic!("seed {seed} invalid: {e}; {:?}", a.events()));
        }
        // Correlated events do occur across seeds: some schedule takes a
        // whole rack (4 nodes, 1 domain) down at once.
        let saw_rack_outage = (0..60u64).any(|seed| {
            let s = FaultSchedule::generate_correlated(seed, &topo, 3, Nanos::from_micros(10_000));
            s.max_concurrent_failures(&Topology::flat(16)) >= 4
                && s.max_concurrent_failures(&topo) == 1
        });
        assert!(saw_rack_outage, "no seed produced a whole-rack outage");
    }

    #[test]
    fn transient_outage_revives_empty_and_flaky() {
        let mut store = BlockStore::new(3);
        store
            .put(1, BlockId(0), Bytes::from_static(b"payload"))
            .unwrap();
        let schedule = FaultSchedule::new().transient(Nanos(100), 1, Nanos(50));
        let mut inj = FaultInjector::new(schedule);

        let before = inj.advance(Nanos(99), &mut store);
        assert!(before.is_empty());
        assert!(store.is_alive(1));

        let crash = inj.advance(Nanos(100), &mut store);
        assert_eq!(
            crash,
            vec![AppliedFault::Crashed {
                at: Nanos(100),
                node: 1
            }]
        );
        assert!(!store.is_alive(1));

        let revive = inj.advance(Nanos(200), &mut store);
        assert_eq!(
            revive,
            vec![AppliedFault::Revived {
                at: Nanos(150),
                node: 1,
                lost_blocks: 1
            }]
        );
        // The `Revived` event is the whole report: a consumer marks the
        // node flaky from it (the injector keeps no flaky state).
        assert!(store.is_alive(1));
        assert!(store.blocks_on(1).is_empty());
        assert!(inj.exhausted());
        // One crash + one revival counted against node 1.
        assert_eq!(inj.faults_injected(1), 1);
        assert_eq!(inj.revivals_applied(1), 1);
        assert_eq!(inj.faults_injected(0), 0);
        let reg = fusion_obs::metrics::MetricsRegistry::new();
        inj.publish_metrics(&reg);
        inj.publish_metrics(&reg); // idempotent: totals, not doubled
        let json = reg.to_json();
        assert!(json.contains("\"node1.faults_injected\":1"));
        assert!(json.contains("\"node1.revivals\":1"));
    }

    #[test]
    fn slowdown_expires() {
        let mut store = BlockStore::new(2);
        let schedule = FaultSchedule::new().slowdown(Nanos(10), 0, 4.0, Nanos(90));
        let mut inj = FaultInjector::new(schedule);
        inj.advance(Nanos(50), &mut store);
        assert_eq!(inj.slowdown(0), 4.0);
        assert_eq!(inj.slowdown(1), 1.0);
        inj.advance(Nanos(200), &mut store);
        assert_eq!(inj.slowdown(0), 1.0);
        assert!(inj.slowdowns().is_empty());
    }

    #[test]
    fn corruption_targets_nth_sorted_block() {
        let mut store = BlockStore::new(1);
        store
            .put(0, BlockId(5), Bytes::from_static(b"five!"))
            .unwrap();
        store
            .put(0, BlockId(2), Bytes::from_static(b"two!!"))
            .unwrap();
        let schedule = FaultSchedule::new().corrupt(Nanos(5), 0, 1);
        let applied = FaultInjector::new(schedule).advance(Nanos(10), &mut store);
        assert_eq!(
            applied,
            vec![AppliedFault::Corrupted {
                at: Nanos(5),
                node: 0,
                block: BlockId(5)
            }]
        );
        assert!(matches!(
            store.get(0, BlockId(5)),
            Err(crate::store::ClusterError::Corrupt { .. })
        ));
        assert_eq!(store.get(0, BlockId(2)).unwrap().as_ref(), b"two!!");
    }

    #[test]
    fn builder_orders_events() {
        let s = FaultSchedule::new()
            .corrupt(Nanos(300), 0, 0)
            .crash(Nanos(100), 1)
            .slowdown(Nanos(200), 2, 2.0, Nanos(50));
        let times: Vec<u64> = s.events().iter().map(|e| e.at.0).collect();
        assert_eq!(times, vec![100, 200, 300]);
        assert_eq!(s.max_concurrent_failures(&Topology::flat(9)), 1);
    }
}
