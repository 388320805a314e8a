//! Differential lockdown of the FIFO scheduler: seeded workloads run
//! through `run_closed_loop` / `run_jobs` (single tenant, job `i` as
//! client `i`) must produce reports **bit-for-bit identical** to the
//! pre-scheduling-layer engine's closed and open loops.
//!
//! The golden digests below were captured from the engine as it existed
//! before `SchedulingPolicy` / admission control were introduced (PR 7);
//! any change to FIFO ordering, latency accounting, breakdown
//! attribution, busy-time bookkeeping, or straggler accounting moves the
//! digest. This is what guarantees every existing figure is unchanged by
//! the concurrent-traffic work.

use fusion_cluster::engine::{CostClass, Engine, Job, ResourceKey, Workflow};
use fusion_cluster::spec::ClusterSpec;
use fusion_cluster::time::Nanos;
use fusion_obs::trace::Phase;
use std::collections::HashMap;

/// Tiny xorshift so the workload is self-contained and stable forever
/// (independent of any rand crate's stream).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A layered random workflow: each step depends on one earlier step.
fn seeded_workflow(rng: &mut Lcg) -> Workflow {
    let mut wf = Workflow::new();
    let mut ids = Vec::new();
    let steps = 1 + (rng.next() % 10) as usize;
    for s in 0..steps {
        let node = (rng.next() % 3) as usize;
        let resource = match rng.next() % 5 {
            0 => ResourceKey::Disk(node),
            1 => ResourceKey::Cpu(node),
            2 => ResourceKey::NicTx(node),
            3 => ResourceKey::NicRx(node),
            _ => ResourceKey::ClientCpu,
        };
        let class = match rng.next() % 4 {
            0 => CostClass::DiskRead,
            1 => CostClass::Processing,
            2 => CostClass::Network,
            _ => CostClass::Other,
        };
        let phase = match rng.next() % 4 {
            0 => Phase::ShardRead,
            1 => Phase::Filter,
            2 => Phase::Network,
            _ => Phase::Other,
        };
        wf.set_phase(phase);
        let deps: Vec<_> = if s == 0 {
            vec![]
        } else {
            vec![ids[(rng.next() as usize) % ids.len()]]
        };
        let dur = Nanos(1 + rng.next() % 700);
        let id = wf.step(resource, dur, class, &deps);
        if rng.next().is_multiple_of(3) {
            wf.transfer_bytes(id, rng.next() % 10_000);
        }
        ids.push(id);
    }
    wf
}

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x100_0000_01b3);
}

fn key_code(k: ResourceKey) -> u64 {
    match k {
        ResourceKey::Disk(n) => 1 << 32 | n as u64,
        ResourceKey::NicTx(n) => 2 << 32 | n as u64,
        ResourceKey::NicRx(n) => 3 << 32 | n as u64,
        ResourceKey::Cpu(n) => 4 << 32 | n as u64,
        ResourceKey::ClientCpu => 5 << 32,
        ResourceKey::ClientNicTx => 6 << 32,
        ResourceKey::ClientNicRx => 7 << 32,
        ResourceKey::Delay => 8 << 32,
    }
}

/// FNV-1a digest over every observable field of a report.
fn digest(report: &fusion_cluster::engine::RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &report.stats {
        fnv(&mut h, s.client as u64);
        fnv(&mut h, s.seq as u64);
        fnv(&mut h, s.start.0);
        fnv(&mut h, s.finish.0);
        fnv(&mut h, s.latency.0);
        fnv(&mut h, s.breakdown.disk.0);
        fnv(&mut h, s.breakdown.processing.0);
        fnv(&mut h, s.breakdown.network.0);
        fnv(&mut h, s.breakdown.other.0);
        for p in Phase::ALL {
            // Phases added to the vocabulary after the goldens were
            // captured carry no time in these engine-only workloads
            // (asserted); skip them so the hashed stream stays the
            // pre-PR-7 one and vocabulary growth alone cannot move
            // the digest.
            if matches!(p, Phase::GroupedAggregate | Phase::Metadata) {
                assert_eq!(s.phases.get(p), 0, "post-golden phase must be unused");
                continue;
            }
            fnv(&mut h, s.phases.get(p));
        }
        fnv(&mut h, s.net_bytes);
    }
    let mut busy: Vec<(u64, u64)> = report
        .resource_busy
        .iter()
        .map(|(k, v)| (key_code(*k), v.0))
        .collect();
    busy.sort_unstable();
    for (k, v) in busy {
        fnv(&mut h, k);
        fnv(&mut h, v);
    }
    let mut strag: Vec<(u64, u64)> = report
        .straggler_delay
        .iter()
        .map(|(n, d)| (*n as u64, d.0))
        .collect();
    strag.sort_unstable();
    for (n, d) in strag {
        fnv(&mut h, n);
        fnv(&mut h, d);
    }
    fnv(&mut h, report.makespan.0);
    h
}

fn closed_loop_digest(seed: u64) -> u64 {
    let mut rng = Lcg(seed | 1);
    let clients: Vec<Vec<Workflow>> = (0..4)
        .map(|_| (0..5).map(|_| seeded_workflow(&mut rng)).collect())
        .collect();
    let mut engine = Engine::new(ClusterSpec::with_nodes(3));
    if seed % 2 == 1 {
        engine = engine.with_slowdowns(HashMap::from([(1, 2.5)]));
    }
    digest(&engine.run_closed_loop(clients))
}

fn open_loop_digest(seed: u64) -> u64 {
    let mut rng = Lcg(seed | 1);
    // Nondecreasing arrival times with deliberate equal-timestamp
    // bursts; job `i` is client `i`, as Figure 14d builds its stream.
    let mut t = 0u64;
    let jobs: Vec<Job> = (0..16)
        .map(|i| {
            if !rng.next().is_multiple_of(3) {
                t += rng.next() % 400;
            }
            Job {
                client: i,
                seq: 0,
                tenant: 0,
                arrival: Nanos(t),
                workflow: seeded_workflow(&mut rng),
            }
        })
        .collect();
    let mut engine = Engine::new(ClusterSpec::with_nodes(3));
    if seed % 2 == 1 {
        engine = engine.with_slowdowns(HashMap::from([(2, 3.0)]));
    }
    digest(&engine.run_jobs(jobs))
}

/// `(seed, closed-loop digest, open-loop digest)` captured from the
/// engine at commit `0be92da` (pre-PR-7), before `SchedulingPolicy`
/// existed.
const GOLDEN: [(u64, u64, u64); 4] = [
    (2, 0x3808837bff5606ce, 0x1fb3cf57fd01c932),
    (3, 0x204ed93c54280865, 0xa9d0f31527d525f1),
    (42, 0x1c04ac8d831c45af, 0x83c9167441d005ea),
    (77, 0x8026b386c81f35d1, 0x67594f61ff433130),
];

#[test]
fn closed_loop_matches_pre_scheduling_engine() {
    for (seed, closed, _) in GOLDEN {
        assert_eq!(
            closed_loop_digest(seed),
            closed,
            "run_closed_loop diverged from the pre-PR-7 engine (seed {seed})"
        );
    }
}

#[test]
fn open_loop_matches_pre_scheduling_engine() {
    for (seed, _, open) in GOLDEN {
        assert_eq!(
            open_loop_digest(seed),
            open,
            "run_jobs diverged from the pre-scheduling open loop (seed {seed})"
        );
    }
}
