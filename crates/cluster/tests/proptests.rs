//! Property tests for the DES engine and the fault layer: conservation
//! laws that must hold for any workload shape, and replay/detection
//! invariants that must hold for any fault schedule.

use bytes::Bytes;
use fusion_cluster::engine::{CostClass, Engine, Job, ResourceKey, SchedulingPolicy, Workflow};
use fusion_cluster::fault::{FaultInjector, FaultSchedule};
use fusion_cluster::spec::ClusterSpec;
use fusion_cluster::store::{BlockId, BlockStore, ClusterError};
use fusion_cluster::time::Nanos;
use fusion_cluster::topology::Topology;
use fusion_format::util::crc32_reference;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// A 9-node store with a few distinct blocks per node.
fn seeded_block_store() -> BlockStore {
    let mut s = BlockStore::new(9);
    for n in 0..9usize {
        for b in 0..4u64 {
            let id = BlockId(((n as u64) << 8) | b);
            s.put(n, id, Bytes::from(vec![n as u8 ^ b as u8; 64]))
                .unwrap();
        }
    }
    s
}

/// One mutation of a 2-node [`BlockStore`] holding blocks 0 and 1.
#[derive(Debug, Clone)]
enum BlockOp {
    Put(usize, u64, Vec<u8>),
    Corrupt(usize, u64, usize),
    Delete(usize, u64),
    Fail(usize),
    Revive(usize),
}

fn arb_block_op() -> impl Strategy<Value = BlockOp> {
    // Few blocks and byte indices, so the same byte is often flipped
    // twice between writes.
    let flip = || (0usize..2, 0u64..2, 0usize..3).prop_map(|(n, b, i)| BlockOp::Corrupt(n, b, i));
    prop_oneof![
        (
            0usize..2,
            0u64..2,
            prop::collection::vec(any::<u8>(), 0..24)
        )
            .prop_map(|(n, b, data)| BlockOp::Put(n, b, data)),
        flip(),
        flip(),
        (0usize..2, 0u64..2).prop_map(|(n, b)| BlockOp::Delete(n, b)),
        (0usize..2).prop_map(BlockOp::Fail),
        (0usize..2).prop_map(BlockOp::Revive),
    ]
}

/// The block store as plain data: liveness per node, and each block's
/// current bytes with the CRC recorded when it was put.
struct BlockModel {
    alive: Vec<bool>,
    blocks: HashMap<(usize, u64), (Vec<u8>, u32)>,
}

impl BlockModel {
    fn apply(&mut self, op: &BlockOp) -> Result<(), ClusterError> {
        match *op {
            BlockOp::Put(n, _, _) | BlockOp::Corrupt(n, _, _) | BlockOp::Delete(n, _)
                if !self.alive[n] =>
            {
                return Err(ClusterError::NodeDown(n));
            }
            BlockOp::Put(n, b, ref data) => {
                self.blocks
                    .insert((n, b), (data.clone(), crc32_reference(data)));
            }
            BlockOp::Corrupt(n, b, i) => {
                let (data, _) = self
                    .blocks
                    .get_mut(&(n, b))
                    .ok_or(ClusterError::NoSuchBlock {
                        node: n,
                        block: BlockId(b),
                    })?;
                if !data.is_empty() {
                    let i = i % data.len();
                    data[i] ^= 0xA5;
                }
            }
            BlockOp::Delete(n, b) => {
                self.blocks.remove(&(n, b));
            }
            BlockOp::Fail(n) => {
                self.alive[n] = false;
                self.blocks.retain(|&(bn, _), _| bn != n);
            }
            BlockOp::Revive(n) => self.alive[n] = true,
        }
        Ok(())
    }

    /// What a read must return, judged by re-hashing the current bytes.
    fn read(&self, n: usize, b: u64) -> Result<Vec<u8>, ClusterError> {
        if !self.alive[n] {
            return Err(ClusterError::NodeDown(n));
        }
        let block = BlockId(b);
        let (data, crc) = self
            .blocks
            .get(&(n, b))
            .ok_or(ClusterError::NoSuchBlock { node: n, block })?;
        if crc32_reference(data) != *crc {
            return Err(ClusterError::Corrupt { node: n, block });
        }
        Ok(data.clone())
    }
}

/// Builds a random layered workflow: steps in layer i depend on one random
/// step of layer i-1.
fn arb_workflow() -> impl Strategy<Value = Workflow> {
    prop::collection::vec((0usize..3, 1u64..500, 0usize..4, any::<u32>()), 1..12).prop_map(
        |specs| {
            let mut wf = Workflow::new();
            let mut ids = Vec::new();
            for (res, dur, class, dep_seed) in specs {
                let resource = match res {
                    0 => ResourceKey::Disk(dur as usize % 3),
                    1 => ResourceKey::Cpu(dur as usize % 3),
                    _ => ResourceKey::NicTx(dur as usize % 3),
                };
                let class = match class {
                    0 => CostClass::DiskRead,
                    1 => CostClass::Processing,
                    2 => CostClass::Network,
                    _ => CostClass::Other,
                };
                let deps: Vec<_> = if ids.is_empty() {
                    vec![]
                } else {
                    vec![ids[dep_seed as usize % ids.len()]]
                };
                let id = wf.step(resource, Nanos(dur), class, &deps);
                ids.push(id);
            }
            wf
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn breakdown_always_partitions_latency(
        clients in prop::collection::vec(prop::collection::vec(arb_workflow(), 1..4), 1..5),
    ) {
        let report = Engine::new(ClusterSpec::with_nodes(3)).run_closed_loop(clients);
        for s in &report.stats {
            prop_assert_eq!(s.breakdown.total(), s.latency);
            prop_assert_eq!(s.phases.total(), s.latency.0,
                "phase partition must also cover latency");
            prop_assert!(s.finish >= s.start);
        }
    }

    #[test]
    fn from_secs_f64_is_total_and_monotone(s in any::<f64>()) {
        // Any f64 — including NaN, ±∞, subnormals, and negative zero —
        // must map to a well-defined duration without panicking.
        let n = Nanos::from_secs_f64(s);
        if s.is_nan() || s >= u64::MAX as f64 / 1e9 {
            prop_assert_eq!(n, Nanos(u64::MAX), "degenerate inputs saturate");
        } else if s <= 0.0 {
            prop_assert_eq!(n, Nanos::ZERO);
        } else {
            // Round-trips within rounding error for representable values.
            prop_assert!((n.as_secs_f64() - s).abs() <= s * 1e-9 + 1e-9);
        }
        // Monotone: a longer duration never maps to fewer nanos (NaN
        // saturates high, so compare against finite doublings only).
        if s.is_finite() && s > 0.0 {
            prop_assert!(Nanos::from_secs_f64(s * 2.0) >= n);
        }
    }

    #[test]
    fn transfer_time_never_panics(bytes in any::<u64>(), rate in any::<f64>()) {
        // Degenerate rates (zero, negative, NaN, ∞) must yield a defined
        // duration; only bytes == 0 is free.
        let t = fusion_cluster::time::transfer_time(bytes, rate);
        if bytes == 0 {
            prop_assert_eq!(t, Nanos::ZERO);
        } else if rate.is_nan() || rate <= 0.0 {
            prop_assert_eq!(t, Nanos(u64::MAX), "degenerate rate saturates");
        }
    }

    #[test]
    fn makespan_bounds_everything(
        clients in prop::collection::vec(prop::collection::vec(arb_workflow(), 1..4), 1..5),
    ) {
        let report = Engine::new(ClusterSpec::with_nodes(3)).run_closed_loop(clients);
        for s in &report.stats {
            prop_assert!(s.finish <= report.makespan);
        }
        // Work conservation: busy time on any single-server resource can't
        // exceed the makespan.
        for (k, busy) in &report.resource_busy {
            if !matches!(k, ResourceKey::Cpu(_) | ResourceKey::ClientCpu) {
                prop_assert!(
                    *busy <= report.makespan,
                    "resource {:?} busy {} > makespan {}", k, busy, report.makespan
                );
            }
        }
    }

    #[test]
    fn latency_at_least_critical_work(wf in arb_workflow()) {
        // A workflow alone in the cluster still takes nonzero time unless
        // it is genuinely empty.
        let report = Engine::new(ClusterSpec::with_nodes(3)).run_closed_loop(vec![vec![wf]]);
        let s = &report.stats[0];
        prop_assert!(s.latency.0 > 0 || s.breakdown.total() == Nanos::ZERO);
    }

    #[test]
    fn closed_loop_client_is_sequential(
        wfs in prop::collection::vec(arb_workflow(), 2..5),
    ) {
        let report = Engine::new(ClusterSpec::with_nodes(3)).run_closed_loop(vec![wfs]);
        for pair in report.stats.windows(2) {
            prop_assert!(pair[1].start >= pair[0].finish);
        }
    }

    #[test]
    fn busy_time_conserves_step_durations(
        clients in prop::collection::vec(prop::collection::vec(arb_workflow(), 1..4), 1..5),
    ) {
        // With no stragglers, every nanosecond of demand lands on exactly
        // one resource: summed busy time equals summed step durations.
        let demand: Nanos = clients
            .iter()
            .flatten()
            .map(|wf| wf.total_work())
            .sum();
        let report = Engine::new(ClusterSpec::with_nodes(3)).run_closed_loop(clients);
        let busy: Nanos = report.resource_busy.values().copied().sum();
        prop_assert_eq!(busy, demand, "busy time must conserve offered work");
    }

    #[test]
    fn steps_never_start_before_dependencies_or_arrival(
        specs in prop::collection::vec((arb_workflow(), 0u64..5_000), 1..10),
    ) {
        // Dependency ordering and arrival gating, observed through the
        // report: a workflow starts no earlier than its arrival, and its
        // latency is at least its uncontended critical path (impossible
        // if any step jumped a dependency or the arrival gate).
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, (wf, t))| Job {
                client: i,
                seq: 0,
                tenant: i % 3,
                arrival: Nanos(*t),
                workflow: wf.clone(),
            })
            .collect();
        let critical: std::collections::HashMap<usize, Nanos> = specs
            .iter()
            .enumerate()
            .map(|(i, (wf, _))| (i, wf.critical_work()))
            .collect();
        let report = Engine::new(ClusterSpec::with_nodes(3)).run_jobs(jobs);
        prop_assert_eq!(report.stats.len(), specs.len());
        for s in &report.stats {
            prop_assert!(s.start >= s.arrival, "started before arrival");
            prop_assert!(
                s.latency >= critical[&s.client],
                "latency {} below critical path {}", s.latency, critical[&s.client]
            );
            prop_assert!(s.sojourn() >= s.latency);
        }
    }

    #[test]
    fn phase_partition_survives_multi_tenant_interleaving(
        specs in prop::collection::vec((arb_workflow(), 0u64..3_000), 1..12),
        weighted in any::<bool>(),
    ) {
        // PhaseBreakdown (and the class breakdown) must still partition
        // latency exactly when tenants interleave under either policy.
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (wf, t))| Job {
                client: i,
                seq: 0,
                tenant: i % 4,
                arrival: Nanos(t),
                workflow: wf,
            })
            .collect();
        let policy = if weighted {
            SchedulingPolicy::WeightedFair
        } else {
            SchedulingPolicy::Fifo
        };
        let report = Engine::new(ClusterSpec::with_nodes(3))
            .with_scheduling(policy)
            .with_tenant_weight(0, 2.0)
            .run_jobs(jobs);
        for s in &report.stats {
            prop_assert_eq!(s.phases.total(), s.latency.0,
                "phase partition must cover latency under {:?}", policy);
            prop_assert_eq!(s.breakdown.total(), s.latency);
        }
    }

    #[test]
    fn fault_schedules_are_deterministic_and_capped(
        seed: u64,
        nodes in 1usize..12,
        cap in 0usize..4,
    ) {
        let horizon = Nanos::from_micros(10_000);
        let a = FaultSchedule::generate(seed, nodes, cap, horizon);
        let b = FaultSchedule::generate(seed, nodes, cap, horizon);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.max_concurrent_failures(&Topology::flat(nodes)) <= cap);
        for ev in a.events() {
            prop_assert!(ev.node < nodes);
        }
    }

    #[test]
    fn correlated_schedules_are_deterministic_and_tolerable(
        seed: u64,
        nodes in 4usize..20,
        racks in 2usize..5,
        tolerance in 1usize..4,
    ) {
        prop_assume!(racks <= nodes);
        let topo = Topology::racks(nodes, racks);
        let horizon = Nanos::from_micros(10_000);
        let a = FaultSchedule::generate_correlated(seed, &topo, tolerance, horizon);
        let b = FaultSchedule::generate_correlated(seed, &topo, tolerance, horizon);
        prop_assert_eq!(&a, &b);
        // Every generated schedule passes construction-time validation…
        prop_assert!(a.validate(&topo, tolerance).is_ok());
        prop_assert!(FaultInjector::validated(a.clone(), &topo, tolerance).is_ok());
        // …and a whole-rack outage counts as one domain failure, never
        // more than the rack count.
        prop_assert!(a.max_concurrent_failures(&topo) <= topo.domains());
        for ev in a.events() {
            prop_assert!(ev.node < nodes);
        }
    }

    #[test]
    fn domain_counting_never_exceeds_node_counting(
        seed: u64,
        nodes in 4usize..16,
        racks in 1usize..5,
        cap in 0usize..4,
    ) {
        prop_assume!(racks <= nodes);
        let topo = Topology::racks(nodes, racks);
        let s = FaultSchedule::generate(seed, nodes, cap, Nanos::from_micros(10_000));
        // Grouping nodes into racks can only merge concurrent failures.
        prop_assert!(
            s.max_concurrent_failures(&topo)
                <= s.max_concurrent_failures(&Topology::flat(nodes))
        );
    }

    #[test]
    fn injector_outcome_is_independent_of_stepping(
        seed: u64,
        cuts in prop::collection::vec(0u64..30_000_000, 1..6),
    ) {
        // Replaying a schedule in one advance or in arbitrary increments
        // must apply the same faults and leave identical data planes.
        let horizon = Nanos::from_micros(10_000);
        let end = Nanos(horizon.0 * 3);
        let mut at_once = seeded_block_store();
        let mut stepped = seeded_block_store();
        let mut inj1 = FaultInjector::from_seed(seed, 9, 3, horizon);
        let mut inj2 = inj1.clone();

        let once = inj1.advance(end, &mut at_once);
        let mut cuts = cuts;
        cuts.sort_unstable();
        let mut many = Vec::new();
        let mut now = Nanos::ZERO;
        for c in cuts {
            let t = Nanos(c.min(end.0)).max(now);
            many.extend(inj2.advance(t, &mut stepped));
            now = t;
        }
        many.extend(inj2.advance(end, &mut stepped));

        prop_assert_eq!(once, many);
        prop_assert!(inj1.exhausted() && inj2.exhausted());
        for n in 0..9 {
            prop_assert_eq!(at_once.is_alive(n), stepped.is_alive(n));
            let mut b1 = at_once.blocks_on(n);
            let mut b2 = stepped.blocks_on(n);
            b1.sort();
            b2.sort();
            prop_assert_eq!(&b1, &b2);
            for id in b1 {
                prop_assert_eq!(at_once.has_block(n, id), stepped.has_block(n, id));
                prop_assert_eq!(at_once.get(n, id).ok(), stepped.get(n, id).ok());
            }
        }
    }

    #[test]
    fn silent_corruption_is_always_detected(
        data in prop::collection::vec(any::<u8>(), 1..512),
        idx in 0usize..4096,
    ) {
        let mut s = BlockStore::new(1);
        s.put(0, BlockId(7), Bytes::from(data)).unwrap();
        s.corrupt_block(0, BlockId(7), idx).unwrap();
        // A stale-CRC byte flip is caught by the probe and the read —
        // wrong bytes are never served.
        prop_assert!(!s.has_block(0, BlockId(7)));
        prop_assert!(matches!(s.get(0, BlockId(7)), Err(ClusterError::Corrupt { .. })));
    }

    #[test]
    fn block_verdict_equals_a_fresh_crc(
        ops in prop::collection::vec(arb_block_op(), 1..40),
        offset in 0usize..8,
        len in 0usize..16,
    ) {
        // The verdict reads use in place of hashing must answer exactly
        // what re-hashing the block's current bytes would, after any
        // sequence of writes, flips (double flips included), deletes,
        // crashes and revivals.
        let mut s = BlockStore::new(2);
        let mut model = BlockModel { alive: vec![true; 2], blocks: HashMap::new() };
        let mut written = BTreeSet::new();
        for op in &ops {
            let got = match *op {
                BlockOp::Put(n, b, ref data) => {
                    written.insert((n, b));
                    s.put(n, BlockId(b), Bytes::from(data.clone()))
                }
                BlockOp::Corrupt(n, b, i) => s.corrupt_block(n, BlockId(b), i),
                BlockOp::Delete(n, b) => s.delete(n, BlockId(b)),
                BlockOp::Fail(n) => s.fail_node(n),
                BlockOp::Revive(n) => s.revive_node(n).map(|_| ()),
            };
            prop_assert_eq!(got, model.apply(op), "op {:?}", op);
            for &(n, b) in &written {
                let want = model.read(n, b);
                let id = BlockId(b);
                prop_assert_eq!(s.has_block(n, id), want.is_ok());
                prop_assert_eq!(s.get(n, id).map(|d| d.to_vec()), want.clone());
                let ranged = want.map(|d| {
                    let start = offset.min(d.len());
                    d[start..(offset + len).min(d.len())].to_vec()
                });
                prop_assert_eq!(s.get_range(n, id, offset, len).map(|d| d.to_vec()), ranged);
            }
        }
    }
}
