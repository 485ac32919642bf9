use std::fmt;

use serde::{Deserialize, Serialize};

use crate::graph::{NodeId, UnGraph};

/// Errors produced when validating a [`Path`] against a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The node sequence was empty.
    Empty,
    /// The same node appeared twice (paths must be loopless).
    RepeatedNode(NodeId),
    /// Two consecutive nodes are not adjacent in the graph.
    MissingEdge(NodeId, NodeId),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "path has no nodes"),
            PathError::RepeatedNode(n) => write!(f, "node {n} repeats in path"),
            PathError::MissingEdge(u, v) => write!(f, "no edge between {u} and {v}"),
        }
    }
}

impl std::error::Error for PathError {}

/// Longest node sequence [`first_repeat`] checks pairwise, without
/// allocating; longer ones sort a copy.
const PAIRWISE_REPEAT_CHECK: usize = 32;

/// The node whose second occurrence comes first in `nodes`, if any node
/// occurs twice.
fn first_repeat(nodes: &[NodeId]) -> Option<NodeId> {
    if nodes.len() <= PAIRWISE_REPEAT_CHECK {
        return (1..nodes.len()).find_map(|i| nodes[..i].contains(&nodes[i]).then_some(nodes[i]));
    }
    // Sorted by (node, position), equal nodes are adjacent with their
    // positions ascending; the smallest later position is the first
    // repeat.
    let mut sorted: Vec<(NodeId, usize)> = nodes.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    sorted
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .min_by_key(|w| w[1].1)
        .map(|w| w[1].0)
}

/// A loopless node sequence through a graph.
///
/// `Path` is the common currency between the routing algorithms: Algorithm 1
/// emits one, Algorithm 2 collects many, Algorithm 3 merges them into
/// flow-like graphs.
///
/// # Examples
///
/// ```
/// use fusion_graph::{Path, UnGraph};
///
/// let mut g: UnGraph<(), ()> = UnGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b, ());
///
/// let p = Path::validated(vec![a, b], &g)?;
/// assert_eq!(p.hops(), 1);
/// assert_eq!(p.source(), a);
/// assert_eq!(p.destination(), b);
/// # Ok::<(), fusion_graph::PathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Creates a path from a node sequence without validating it against a
    /// graph. The sequence must be non-empty and loopless.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or contains a repeated node.
    #[must_use]
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "path must contain at least one node");
        if let Some(n) = first_repeat(&nodes) {
            panic!("node {n} repeats in path");
        }
        Path { nodes }
    }

    /// Creates a path and validates that consecutive nodes are adjacent in
    /// `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`PathError`] if the sequence is empty, repeats a node, or
    /// skips over a missing edge.
    pub fn validated<N, E>(nodes: Vec<NodeId>, graph: &UnGraph<N, E>) -> Result<Self, PathError> {
        if nodes.is_empty() {
            return Err(PathError::Empty);
        }
        if let Some(n) = first_repeat(&nodes) {
            return Err(PathError::RepeatedNode(n));
        }
        for w in nodes.windows(2) {
            if !graph.contains_edge(w[0], w[1]) {
                return Err(PathError::MissingEdge(w[0], w[1]));
            }
        }
        Ok(Path { nodes })
    }

    /// The nodes of the path in order.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// First node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    #[must_use]
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path is non-empty")
    }

    /// Number of hops (edges); a single-node path has zero hops.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false`: a path holds at least one node by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` when the path is a single node.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Iterates over consecutive node pairs `(u, v)`.
    pub fn hops_iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// The intermediate nodes (everything except the two endpoints).
    #[must_use]
    pub fn intermediates(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// `true` if the path traverses the undirected hop `{u, v}`.
    #[must_use]
    pub fn contains_hop(&self, u: NodeId, v: NodeId) -> bool {
        self.hops_iter()
            .any(|(a, b)| (a == u && b == v) || (a == v && b == u))
    }

    /// `true` if the path visits `node`.
    #[must_use]
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Concatenates a root segment with a continuation that starts at the
    /// root's last node, as in Yen's algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `tail` does not start where `self` ends, or if the joined
    /// sequence repeats a node.
    #[must_use]
    pub fn join(&self, tail: &Path) -> Path {
        assert_eq!(
            self.destination(),
            tail.source(),
            "tail must start at the root's destination"
        );
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&tail.nodes[1..]);
        Path::new(nodes)
    }

    /// The prefix of this path up to and including index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn prefix(&self, i: usize) -> Path {
        Path {
            nodes: self.nodes[..=i].to_vec(),
        }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for n in &self.nodes {
            if !first {
                write!(f, "-")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> (UnGraph<(), ()>, Vec<NodeId>) {
        let mut g = UnGraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        (g, ids)
    }

    #[test]
    fn validated_accepts_line() {
        let (g, ids) = line();
        let p = Path::validated(ids.clone(), &g).unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.len(), 4);
        assert_eq!(p.source(), ids[0]);
        assert_eq!(p.destination(), ids[3]);
        assert_eq!(p.intermediates(), &ids[1..3]);
    }

    #[test]
    fn first_repeat_matches_a_seen_set_scan() {
        // Short sequences take the pairwise check, long ones the sorted
        // copy; both must name the node a left-to-right seen-set scan
        // stops at.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for len in 0..80 {
            for alphabet in [len.max(1), 2 * len + 1, 4 * len + 1] {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let nodes: Vec<NodeId> = (0..len)
                    .map(|i| NodeId::new((state.rotate_left(i as u32) as usize) % alphabet))
                    .collect();
                let mut seen = std::collections::HashSet::new();
                let expected = nodes.iter().copied().find(|&n| !seen.insert(n));
                assert_eq!(first_repeat(&nodes), expected, "{nodes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "node n7 repeats in path")]
    fn long_paths_name_the_first_repeat() {
        let mut nodes: Vec<NodeId> = (0..40).map(NodeId::new).collect();
        nodes.push(NodeId::new(7));
        nodes.push(NodeId::new(3));
        let _ = Path::new(nodes);
    }

    #[test]
    fn validated_rejects_empty() {
        let (g, _) = line();
        assert_eq!(Path::validated(vec![], &g), Err(PathError::Empty));
    }

    #[test]
    fn validated_rejects_repeat() {
        let (g, ids) = line();
        let seq = vec![ids[0], ids[1], ids[0]];
        assert_eq!(
            Path::validated(seq, &g),
            Err(PathError::RepeatedNode(ids[0]))
        );
    }

    #[test]
    fn validated_rejects_missing_edge() {
        let (g, ids) = line();
        let seq = vec![ids[0], ids[2]];
        assert_eq!(
            Path::validated(seq, &g),
            Err(PathError::MissingEdge(ids[0], ids[2]))
        );
    }

    #[test]
    fn hop_queries() {
        let (g, ids) = line();
        let p = Path::validated(ids.clone(), &g).unwrap();
        assert!(p.contains_hop(ids[1], ids[2]));
        assert!(p.contains_hop(ids[2], ids[1]));
        assert!(!p.contains_hop(ids[0], ids[2]));
        assert!(p.contains_node(ids[3]));
        assert_eq!(p.hops_iter().count(), 3);
    }

    #[test]
    fn join_and_prefix() {
        let (_, ids) = line();
        let root = Path::new(vec![ids[0], ids[1]]);
        let tail = Path::new(vec![ids[1], ids[2], ids[3]]);
        let joined = root.join(&tail);
        assert_eq!(joined.nodes(), &ids[..]);
        assert_eq!(joined.prefix(1).nodes(), &ids[..2]);
    }

    #[test]
    #[should_panic(expected = "tail must start")]
    fn join_rejects_disconnected_tail() {
        let (_, ids) = line();
        let root = Path::new(vec![ids[0], ids[1]]);
        let tail = Path::new(vec![ids[2], ids[3]]);
        let _ = root.join(&tail);
    }

    #[test]
    fn trivial_path() {
        let (_, ids) = line();
        let p = Path::new(vec![ids[0]]);
        assert!(p.is_trivial());
        assert_eq!(p.hops(), 0);
        assert!(p.intermediates().is_empty());
    }

    #[test]
    fn display_joins_nodes() {
        let (_, ids) = line();
        let p = Path::new(vec![ids[0], ids[1]]);
        assert_eq!(p.to_string(), "n0-n1");
    }
}
