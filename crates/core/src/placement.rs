//! Deterministic, topology-aware shard placement (DESIGN.md §16).
//!
//! Instead of remembering where every chunk went, the store can *compute*
//! it: each `(object, stripe, shard)` slot scores every cluster member
//! with a seeded rendezvous (highest-random-weight) hash and takes the
//! best-scoring node that satisfies the failure-domain constraints PR 6
//! property-tested — at most `tolerance` shards of a stripe per domain,
//! at most one shard of a local parity group per domain. The result is a
//! pure function of `(seed, object key, stripe, shard, membership,
//! topology)`:
//!
//! * **byte-stable** — re-evaluating with the same inputs always yields
//!   the same layout, so nothing needs to be stored per chunk;
//! * **minimally disruptive** — adding a node to an `m`-node cluster
//!   changes a slot's winner only when the new node out-scores the old
//!   one, i.e. with probability `1/(m+1)`, so rebalance moves ~1/n of
//!   chunks (the CRUSH/rendezvous property);
//! * **constraint-respecting** — the greedy pick mirrors the stored-map
//!   policy's invariants, degenerating to "distinct nodes" on a flat
//!   topology.
//!
//! Scores are compared as `(score, !node)` so ties (vanishingly rare with
//! 64-bit scores, but possible) break toward the lower node id and the
//! outcome is independent of member ordering.

use fusion_cluster::topology::Topology;
use fusion_ec::ErasureCode;

/// The stripe-placement "slot" index used for location-record replicas,
/// chosen so replica scores never collide with a data stripe's stream.
const REPLICA_STRIPE: u64 = u64::MAX;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The rendezvous score of `node` for slot `(okey, stripe, shard)` under
/// `seed`. Chained mixes keep every input byte influencing every output
/// bit; the per-node cost is five multiplies.
#[inline]
pub fn shard_score(seed: u64, okey: u64, stripe: u64, shard: u64, node: u64) -> u64 {
    mix64(seed ^ mix64(okey ^ mix64(stripe ^ mix64(shard ^ mix64(node)))))
}

/// A 128-bit object identity: the index key of the sharded namespace
/// and the source of the 64-bit placement key. Derived from
/// `(bucket, name)` by two independent FNV-1a streams so distinct
/// objects collide with probability ~2⁻¹²⁸.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u128);

impl ObjectId {
    /// The 64-bit key that seeds every placement decision for this
    /// object. Folding the two id halves through the mixer keeps the
    /// placement stream independent of either FNV stream alone.
    #[inline]
    pub fn placement_key(self) -> u64 {
        mix64(self.0 as u64 ^ mix64((self.0 >> 64) as u64))
    }
}

/// Hashes `bucket/name` into an [`ObjectId`].
pub fn object_id(bucket: &str, name: &str) -> ObjectId {
    let mut lo = 0xcbf2_9ce4_8422_2325u64;
    let mut hi = 0x6c62_272e_07bb_0142u64; // a second, independent basis
    for b in bucket
        .bytes()
        .chain(std::iter::once(b'/'))
        .chain(name.bytes())
    {
        lo ^= u64::from(b);
        lo = lo.wrapping_mul(0x100_0000_01b3);
        hi = hi.wrapping_mul(0x100_0000_01b3);
        hi ^= u64::from(b);
    }
    ObjectId(u128::from(hi) << 64 | u128::from(lo))
}

/// The 64-bit placement key of `bucket/name` — shorthand for
/// [`object_id`]`.placement_key()`.
pub fn object_key(bucket: &str, name: &str) -> u64 {
    object_id(bucket, name).placement_key()
}

/// Deterministically places one stripe's `n` shards onto distinct
/// members, respecting the PR-6 domain invariants where satisfiable:
/// no failure domain receives more than the code's tolerance in shards,
/// and no domain receives two shards of the same local group. When a constraint
/// cannot be met (fewer domains than the code wants), it is relaxed for
/// that shard exactly as the stored-map policy relaxes — distinct nodes
/// are never given up.
///
/// The returned layout depends only on the arguments (never on member
/// ordering or any RNG), which is what makes it safe to *not* store.
///
/// # Panics
///
/// Panics if `members` has fewer than `n` nodes or contains a node
/// outside `topo`.
pub fn place_stripe(
    seed: u64,
    okey: u64,
    stripe: u64,
    code: &ErasureCode,
    members: &[usize],
    topo: &Topology,
) -> Vec<usize> {
    let tolerance = code.tolerance().max(1);
    place_slots(
        seed,
        okey,
        stripe,
        code.total_blocks(),
        members,
        topo,
        |per_domain, group_used, shard, d| {
            if per_domain[d] >= tolerance {
                return false;
            }
            match code.group_of(shard) {
                Some(g) => !group_used[g * topo.domains() + d],
                None => true,
            }
        },
        |group_used, shard, d| {
            if let Some(g) = code.group_of(shard) {
                group_used[g * topo.domains() + d] = true;
            }
        },
        code.local_groups(),
    )
}

/// Deterministically places `count` metadata replicas on distinct
/// members, spreading across failure domains: a domain only receives a
/// second replica once every domain with capacity holds one (the same
/// least-loaded-domain discipline as the stored-map path, made
/// order-free by rendezvous ranking).
///
/// # Panics
///
/// Panics if `members` has fewer than `count` nodes.
pub fn place_replicas(
    seed: u64,
    okey: u64,
    count: usize,
    members: &[usize],
    topo: &Topology,
) -> Vec<usize> {
    place_slots(
        seed,
        okey,
        REPLICA_STRIPE,
        count,
        members,
        topo,
        |per_domain, _, slot, d| {
            // Allow a domain its (q+1)-th replica only after q full
            // rounds over the domains: cap grows one per exhausted round.
            per_domain[d] <= slot / topo.domains()
        },
        |_, _, _| {},
        0,
    )
}

/// Shared greedy core: for each slot, take the feasible unused member
/// with the best `(score, lowest node)` rank, falling back to the best
/// unused member when no candidate satisfies `feasible` (constraint
/// relaxation — distinct nodes are never relaxed).
#[allow(clippy::too_many_arguments)]
fn place_slots(
    seed: u64,
    okey: u64,
    stripe: u64,
    slots: usize,
    members: &[usize],
    topo: &Topology,
    feasible: impl Fn(&[usize], &[bool], usize, usize) -> bool,
    mark: impl Fn(&mut [bool], usize, usize),
    groups: usize,
) -> Vec<usize> {
    assert!(
        members.len() >= slots,
        "placement needs {} members, have {}",
        slots,
        members.len()
    );
    let mut used = vec![false; members.len()];
    let mut per_domain = vec![0usize; topo.domains()];
    let mut group_used = vec![false; groups * topo.domains()];
    let mut placed = Vec::with_capacity(slots);
    for slot in 0..slots {
        let mut best_ok: Option<(u64, usize)> = None; // (score, member idx)
        let mut best_any: Option<(u64, usize)> = None;
        for (i, &node) in members.iter().enumerate() {
            if used[i] {
                continue;
            }
            let s = shard_score(seed, okey, stripe, slot as u64, node as u64);
            let beats = |cur: Option<(u64, usize)>| match cur {
                None => true,
                Some((cs, ci)) => s > cs || (s == cs && node < members[ci]),
            };
            if beats(best_any) {
                best_any = Some((s, i));
            }
            if feasible(&per_domain, &group_used, slot, topo.domain_of(node)) && beats(best_ok) {
                best_ok = Some((s, i));
            }
        }
        let (_, i) = best_ok.or(best_any).expect("enough members");
        used[i] = true;
        let node = members[i];
        let d = topo.domain_of(node);
        per_domain[d] += 1;
        mark(&mut group_used, slot, d);
        placed.push(node);
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcConfig;

    fn rs96_code() -> ErasureCode {
        EcConfig::RS_9_6.build_codec().unwrap()
    }

    fn lrc_code() -> ErasureCode {
        EcConfig::LRC_10_6.build_codec().unwrap()
    }

    #[test]
    fn re_evaluation_is_byte_stable() {
        let code = rs96_code();
        let topo = Topology::racks(18, 6);
        let members: Vec<usize> = (0..18).collect();
        for okey in [0u64, 1, 0xdead_beef] {
            for stripe in 0..4 {
                let a = place_stripe(7, okey, stripe, &code, &members, &topo);
                let b = place_stripe(7, okey, stripe, &code, &members, &topo);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn nodes_are_distinct_and_in_members() {
        let code = rs96_code();
        let topo = Topology::racks(20, 5);
        let members: Vec<usize> = (0..20).filter(|n| n % 4 != 3).collect(); // 15 members
        let placed = place_stripe(1, 42, 0, &code, &members, &topo);
        assert_eq!(placed.len(), 9);
        let mut uniq = placed.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 9);
        assert!(placed.iter().all(|n| members.contains(n)));
    }

    #[test]
    fn domain_constraints_hold_when_satisfiable() {
        let code = lrc_code();
        let topo = Topology::racks(20, 5);
        let members: Vec<usize> = (0..20).collect();
        for okey in 0..50u64 {
            let placed = place_stripe(3, okey, 0, &code, &members, &topo);
            let mut per_domain = vec![0usize; topo.domains()];
            let mut group_domain = std::collections::HashSet::new();
            for (shard, &node) in placed.iter().enumerate() {
                let d = topo.domain_of(node);
                per_domain[d] += 1;
                if let Some(g) = code.group_of(shard) {
                    assert!(
                        group_domain.insert((g, d)),
                        "group {g} twice in domain {d} (okey {okey})"
                    );
                }
            }
            assert!(per_domain.iter().all(|&c| c <= code.tolerance()));
        }
    }

    #[test]
    fn member_order_is_irrelevant() {
        let code = rs96_code();
        let topo = Topology::racks(16, 4);
        let fwd: Vec<usize> = (0..16).collect();
        let rev: Vec<usize> = (0..16).rev().collect();
        for okey in 0..20u64 {
            assert_eq!(
                place_stripe(9, okey, 1, &code, &fwd, &topo),
                place_stripe(9, okey, 1, &code, &rev, &topo)
            );
        }
    }

    #[test]
    fn node_add_moves_about_one_over_n() {
        let code = rs96_code();
        let topo = Topology::racks(32, 8);
        let grown = topo.with_added_node(0);
        let members: Vec<usize> = (0..32).collect();
        let mut grown_members = members.clone();
        grown_members.push(32);
        let (mut moved, mut total) = (0usize, 0usize);
        for okey in 0..500u64 {
            let old = place_stripe(5, okey, 0, &code, &members, &topo);
            let new = place_stripe(5, okey, 0, &code, &grown_members, &grown);
            for (a, b) in old.iter().zip(&new) {
                total += 1;
                moved += usize::from(a != b);
            }
        }
        let frac = moved as f64 / total as f64;
        // Expected ~1/33 per slot; constraints add a little churn.
        assert!(
            frac > 0.01 && frac < 0.10,
            "moved fraction {frac} outside rendezvous bounds"
        );
    }

    #[test]
    fn replicas_spread_across_domains() {
        let topo = Topology::racks(12, 4);
        let members: Vec<usize> = (0..12).collect();
        for okey in 0..30u64 {
            let placed = place_replicas(11, okey, 4, &members, &topo);
            assert_eq!(placed.len(), 4);
            let domains: std::collections::HashSet<_> =
                placed.iter().map(|&n| topo.domain_of(n)).collect();
            assert_eq!(
                domains.len(),
                4,
                "4 replicas over 4 racks must use all racks"
            );
        }
        // More replicas than domains: second round allowed.
        let placed = place_replicas(11, 1, 7, &members, &topo);
        let mut per_domain = [0usize; 4];
        for &n in &placed {
            per_domain[topo.domain_of(n)] += 1;
        }
        assert!(per_domain.iter().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn object_key_mixes() {
        assert_ne!(object_key("b", "a"), object_key("a", "b"));
        assert_ne!(object_key("", "ab"), object_key("a", "b"));
        assert_eq!(object_key("t", "x"), object_key("t", "x"));
    }
}
