//! Failure-domain topology: which nodes share a fate.
//!
//! Real clusters fail in correlated units — a rack loses power, a PDU
//! takes down every host behind it — so placement and fault injection
//! both need to know which simulated nodes share a failure domain. The
//! model is deliberately simple: every node has a rack, and the
//! *failure domain* used for placement constraints and correlated outage
//! counting is the rack. A [`Topology::flat`] cluster puts each node in
//! its own rack, which reproduces the pre-topology behavior exactly
//! (every node an independent domain).

/// The rack of every node in a cluster.
///
/// # Examples
///
/// ```
/// use fusion_cluster::topology::Topology;
///
/// let t = Topology::racks(16, 4); // 4 racks × 4 nodes
/// assert_eq!(t.domains(), 4);
/// assert_eq!(t.domain_of(0), t.domain_of(3));
/// assert_ne!(t.domain_of(3), t.domain_of(4));
/// assert_eq!(t.nodes_in(1), vec![4, 5, 6, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topology {
    /// `rack[i]` = failure domain (rack) of node `i`.
    rack: Vec<usize>,
    domains: usize,
}

impl Topology {
    /// Every node is its own failure domain — the pre-topology default,
    /// under which domain-aware placement degenerates to "distinct
    /// nodes" and correlated counting to per-node counting.
    pub fn flat(nodes: usize) -> Topology {
        Topology {
            rack: (0..nodes).collect(),
            domains: nodes,
        }
    }

    /// Nodes split into `racks` contiguous, near-equal racks (the first
    /// `nodes % racks` racks take one extra node).
    ///
    /// # Panics
    ///
    /// Panics if `racks` is zero or exceeds `nodes`.
    pub fn racks(nodes: usize, racks: usize) -> Topology {
        assert!(racks > 0, "need at least one rack");
        assert!(racks <= nodes, "more racks than nodes");
        let base = nodes / racks;
        let extra = nodes % racks;
        let mut rack = Vec::with_capacity(nodes);
        for r in 0..racks {
            let size = base + usize::from(r < extra);
            rack.extend(std::iter::repeat_n(r, size));
        }
        Topology {
            rack,
            domains: racks,
        }
    }

    /// Explicit per-node rack assignment (racks must be labeled
    /// `0..domains` densely).
    ///
    /// # Panics
    ///
    /// Panics if `rack` is empty or labels are not dense from zero.
    pub fn from_racks(rack: Vec<usize>) -> Topology {
        assert!(!rack.is_empty(), "topology needs at least one node");
        let domains = rack.iter().max().unwrap() + 1;
        for d in 0..domains {
            assert!(rack.contains(&d), "rack labels must be dense from 0");
        }
        Topology { rack, domains }
    }

    /// Number of nodes described.
    pub fn nodes(&self) -> usize {
        self.rack.len()
    }

    /// Number of failure domains (racks).
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// The failure domain (rack) of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn domain_of(&self, node: usize) -> usize {
        self.rack[node]
    }

    /// All nodes in a failure domain, ascending.
    pub fn nodes_in(&self, domain: usize) -> Vec<usize> {
        (0..self.nodes())
            .filter(|&i| self.rack[i] == domain)
            .collect()
    }

    /// Size of the largest failure domain.
    pub fn max_domain_size(&self) -> usize {
        (0..self.domains)
            .map(|d| self.rack.iter().filter(|&&r| r == d).count())
            .max()
            .unwrap_or(0)
    }

    /// Whether every node sits in its own domain (i.e. [`Topology::flat`]).
    pub fn is_flat(&self) -> bool {
        self.domains == self.nodes()
    }

    /// A copy of this topology with one new node appended in `rack`.
    /// The new node gets id `nodes()`; a `rack` equal to `domains()`
    /// opens a new failure domain.
    ///
    /// This is the membership-change primitive for rebalance
    /// experiments: the identity of every existing node is preserved,
    /// so deterministic placement moves only the ~1/n of chunks whose
    /// rendezvous winner changed.
    ///
    /// # Panics
    ///
    /// Panics if `rack > domains()` (labels must stay dense).
    pub fn with_added_node(&self, rack: usize) -> Topology {
        assert!(rack <= self.domains, "rack labels must stay dense");
        let mut t = self.clone();
        t.rack.push(rack);
        t.domains = t.domains.max(rack + 1);
        t
    }

    /// A copy of this topology with the last node removed. Node ids are
    /// positional, so only tail removal preserves every surviving
    /// node's identity (the property rendezvous rebalancing relies on).
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two nodes or if removing
    /// the tail node would empty its rack while higher-numbered rack
    /// labels exist (labels must stay dense).
    pub fn with_removed_tail(&self) -> Topology {
        assert!(self.nodes() > 1, "cannot empty the topology");
        let mut t = self.clone();
        let gone = t.rack.pop().expect("nonempty");
        if !t.rack.contains(&gone) {
            assert!(
                gone + 1 == self.domains,
                "removing the tail node may not leave a rack-label gap"
            );
            t.domains = gone;
        }
        t
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_flat() {
            write!(f, "flat({})", self.nodes())
        } else {
            write!(f, "{} nodes / {} racks", self.nodes(), self.domains)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_one_node_per_domain() {
        let t = Topology::flat(9);
        assert_eq!(t.nodes(), 9);
        assert_eq!(t.domains(), 9);
        assert!(t.is_flat());
        assert_eq!(t.max_domain_size(), 1);
        for i in 0..9 {
            assert_eq!(t.domain_of(i), i);
            assert_eq!(t.nodes_in(i), vec![i]);
        }
        assert_eq!(t.to_string(), "flat(9)");
    }

    #[test]
    fn racks_split_evenly_with_remainder_first() {
        let t = Topology::racks(10, 4); // 3 + 3 + 2 + 2
        assert_eq!(t.domains(), 4);
        assert_eq!(t.nodes_in(0), vec![0, 1, 2]);
        assert_eq!(t.nodes_in(1), vec![3, 4, 5]);
        assert_eq!(t.nodes_in(2), vec![6, 7]);
        assert_eq!(t.nodes_in(3), vec![8, 9]);
        assert_eq!(t.max_domain_size(), 3);
        assert!(!t.is_flat());
        assert_eq!(t.to_string(), "10 nodes / 4 racks");
    }

    #[test]
    fn from_racks_respects_labels() {
        let t = Topology::from_racks(vec![0, 1, 0, 1, 2]);
        assert_eq!(t.domains(), 3);
        assert_eq!(t.nodes_in(0), vec![0, 2]);
        assert_eq!(t.nodes_in(2), vec![4]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn from_racks_rejects_sparse_labels() {
        let _ = Topology::from_racks(vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "more racks than nodes")]
    fn racks_rejects_too_many() {
        let _ = Topology::racks(3, 4);
    }

    #[test]
    fn with_added_node_preserves_existing_ids() {
        let t = Topology::racks(8, 4);
        let t2 = t.with_added_node(2);
        assert_eq!(t2.nodes(), 9);
        assert_eq!(t2.domains(), 4);
        assert_eq!(t2.domain_of(8), 2);
        for i in 0..8 {
            assert_eq!(t2.domain_of(i), t.domain_of(i));
        }
        // A rack label equal to domains() opens a new domain.
        let t3 = t.with_added_node(4);
        assert_eq!(t3.domains(), 5);
        assert_eq!(t3.nodes_in(4), vec![8]);
    }

    #[test]
    fn with_removed_tail_inverts_add() {
        let t = Topology::racks(9, 3);
        assert_eq!(t.with_added_node(1).with_removed_tail(), t);
        // Removing the sole node of the last rack shrinks domains.
        let t = Topology::racks(4, 4).with_removed_tail();
        assert_eq!(t.domains(), 3);
        assert_eq!(t.nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn with_added_node_rejects_label_gap() {
        let _ = Topology::racks(4, 2).with_added_node(3);
    }
}
