//! Shard and replica placement: every node a put writes to comes from
//! one greedy pass (DESIGN.md §13, §16). For each slot the pass takes
//! the best-ranked unused member whose failure domain meets the slot's
//! rule; a policy is a choice of rank, rule and relaxation:
//!
//! | policy | rank | stripe rule | replica rule | slot no member fits |
//! |---|---|---|---|---|
//! | `Naive` | position in a shuffle | none | none | — |
//! | `DomainAware` | position in a shuffle | ≤ tolerance shards per domain, ≤ 1 shard per (local group, domain) | least-loaded domain first | reshuffle (8 attempts), then truncate |
//! | `Deterministic` | rendezvous score | same as `DomainAware` | a domain's `(q+1)`-th only after `q` rounds | best unused member |
//!
//! Under `Deterministic` each `(object, stripe, shard)` slot scores
//! every cluster member with a seeded rendezvous (highest-random-weight)
//! hash, so the result is a pure function of `(seed, object key,
//! stripe, shard, membership, topology)`:
//!
//! * **byte-stable** — re-evaluating with the same inputs always yields
//!   the same layout, so nothing needs to be stored per chunk;
//! * **minimally disruptive** — adding a node to an `m`-node cluster
//!   changes a slot's winner only when the new node out-scores the old
//!   one, i.e. with probability `1/(m+1)`, so rebalance moves ~1/n of
//!   chunks (the CRUSH/rendezvous property);
//! * **constraint-respecting** — the same domain rules as `DomainAware`,
//!   degenerating to "distinct nodes" on a flat topology.
//!
//! Scores are compared as `(score, !node)` so ties (vanishingly rare with
//! 64-bit scores, but possible) break toward the lower node id and the
//! outcome is independent of member ordering.

use crate::config::PlacementPolicy;
use fusion_cluster::topology::Topology;
use fusion_ec::ErasureCode;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

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
/// members: the greedy pass ranked by rendezvous score under the stripe
/// rule, relaxing a slot no member fits to the best unused member —
/// distinct nodes are never given up.
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
    let score =
        |slot: usize, i: usize| shard_score(seed, okey, stripe, slot as u64, members[i] as u64);
    greedy(
        code.total_blocks(),
        members,
        topo,
        score,
        Rule::Stripe(code),
        true,
    )
    .expect("a relaxed pass fills every slot")
}

/// Deterministically places `count` metadata replicas on distinct
/// members, spreading across failure domains: a domain only receives a
/// `(q+1)`-th replica after `q` full rounds over the domains.
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
    let score = |slot: usize, i: usize| {
        shard_score(seed, okey, REPLICA_STRIPE, slot as u64, members[i] as u64)
    };
    greedy(count, members, topo, score, Rule::Rounds, true)
        .expect("a relaxed pass fills every slot")
}

/// Places everything a put writes under `policy`: the nodes of each of
/// `stripes` stripes (shard `i` on the `i`-th node), then of `replicas`
/// location-record replicas. The shuffled policies draw one shuffle of
/// `alive` from `rng` per attempt, in that order; `Deterministic`
/// draws nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place_object(
    policy: PlacementPolicy,
    seed: u64,
    rng: &mut SmallRng,
    okey: u64,
    code: &ErasureCode,
    topo: &Topology,
    alive: &[usize],
    stripes: usize,
    replicas: usize,
) -> (Vec<Vec<usize>>, Vec<usize>) {
    let (stripe_rule, replica_rule) = match policy {
        PlacementPolicy::Deterministic => {
            let stripes = (0..stripes as u64)
                .map(|s| place_stripe(seed, okey, s, code, alive, topo))
                .collect();
            return (stripes, place_replicas(seed, okey, replicas, alive, topo));
        }
        PlacementPolicy::Naive => (Rule::Any, Rule::Any),
        PlacementPolicy::DomainAware => (Rule::Stripe(code), Rule::LeastLoaded),
    };
    let n = code.total_blocks();
    let stripes = (0..stripes)
        .map(|_| shuffled(rng, n, alive, topo, stripe_rule))
        .collect();
    (stripes, shuffled(rng, replicas, alive, topo, replica_rule))
}

/// Fills `slots` ranked by position in a fresh shuffle of `alive`; an
/// attempt that cannot fill a slot under `rule` reshuffles the same
/// order, and after eight the last shuffle's first `slots` nodes stand.
fn shuffled(
    rng: &mut SmallRng,
    slots: usize,
    alive: &[usize],
    topo: &Topology,
    rule: Rule,
) -> Vec<usize> {
    let mut order = alive.to_vec();
    for _ in 0..8 {
        order.shuffle(rng);
        if let Some(picked) = greedy(slots, &order, topo, |_, i| !(i as u64), rule, false) {
            return picked;
        }
    }
    order.truncate(slots);
    order
}

/// The failure-domain rule a slot's node must meet.
#[derive(Clone, Copy)]
enum Rule<'c> {
    /// Distinct nodes only.
    Any,
    /// A stripe's shards: at most the code's tolerance per domain, and
    /// at most one shard of a local group per domain.
    Stripe(&'c ErasureCode),
    /// Replicas, least-loaded domain first.
    LeastLoaded,
    /// Replicas, a domain's `(q+1)`-th only after `q` full rounds.
    Rounds,
}

/// The one greedy pass behind every placement: for each of `slots`
/// slots, take the best-ranked unused member whose domain meets `rule`.
/// `score(slot, i)` ranks member `i` (higher wins; equal scores go to
/// the lower node id, so a rendezvous ranking ignores member order).
/// When no unused member meets the rule, `relax` takes the best-ranked
/// unused member anyway; otherwise the pass gives up with `None`.
///
/// # Panics
///
/// Panics if `members` has fewer than `slots` nodes.
fn greedy(
    slots: usize,
    members: &[usize],
    topo: &Topology,
    score: impl Fn(usize, usize) -> u64,
    rule: Rule,
    relax: bool,
) -> Option<Vec<usize>> {
    assert!(
        members.len() >= slots,
        "placement needs {} members, have {}",
        slots,
        members.len()
    );
    let domains = topo.domains();
    // Slots placed and members unused per domain, and the (local
    // group, domain) pairs taken.
    let mut load = vec![0usize; domains];
    let mut free = vec![0usize; domains];
    let mut grouped: Vec<(usize, usize)> = Vec::new();
    for &node in members {
        free[topo.domain_of(node)] += 1;
    }
    let mut used = vec![false; members.len()];
    let mut placed = Vec::with_capacity(slots);
    for slot in 0..slots {
        let group = match rule {
            Rule::Stripe(code) => code.group_of(slot),
            _ => None,
        };
        let least = (0..domains).filter(|&d| free[d] > 0).map(|d| load[d]).min();
        let fits = |d: usize| match rule {
            Rule::Any => true,
            Rule::Stripe(code) => {
                load[d] < code.tolerance() && group.is_none_or(|g| !grouped.contains(&(g, d)))
            }
            Rule::LeastLoaded => Some(load[d]) == least,
            Rule::Rounds => load[d] <= slot / domains,
        };
        let mut best_fit: Option<(u64, usize)> = None; // (score, member idx)
        let mut best_any: Option<(u64, usize)> = None;
        for (i, &node) in members.iter().enumerate() {
            if used[i] {
                continue;
            }
            let s = score(slot, i);
            let beats = |cur: Option<(u64, usize)>| match cur {
                None => true,
                Some((cs, ci)) => s > cs || (s == cs && node < members[ci]),
            };
            if beats(best_any) {
                best_any = Some((s, i));
            }
            if fits(topo.domain_of(node)) && beats(best_fit) {
                best_fit = Some((s, i));
            }
        }
        let (_, i) = best_fit.or(best_any.filter(|_| relax))?;
        used[i] = true;
        let d = topo.domain_of(members[i]);
        load[d] += 1;
        free[d] -= 1;
        grouped.extend(group.map(|g| (g, d)));
        placed.push(members[i]);
    }
    Some(placed)
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
