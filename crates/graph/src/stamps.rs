//! Generation-stamp validity tracking shared by the reusable scratch
//! structures ([`SearchScratch`](crate::search::SearchScratch),
//! [`GenerationalDisjointSets`](crate::GenerationalDisjointSets),
//! [`BanMask`]).
//!
//! The pattern: payload buffers are never cleared between runs; instead an
//! entry is valid only while its stamp equals the current generation, and
//! starting a new run just bumps the generation — O(1) reset. The subtle
//! invariants (new or resized entries must start invalid, counter wrap
//! pays one full clear) live here, single-sourced.

use crate::graph::NodeId;

/// Per-entry generation stamps with an O(1) bulk invalidate.
#[derive(Debug, Clone)]
pub(crate) struct GenerationStamps {
    stamp: Vec<u32>,
    generation: u32,
}

impl Default for GenerationStamps {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl GenerationStamps {
    /// Creates stamps for `n` entries, all invalid (generation starts at 1
    /// and fresh stamps at 0).
    pub(crate) fn with_capacity(n: usize) -> Self {
        GenerationStamps {
            stamp: vec![0; n],
            generation: 1,
        }
    }

    /// Number of entries the stamp buffer covers.
    pub(crate) fn len(&self) -> usize {
        self.stamp.len()
    }

    /// Starts a new generation covering at least `n` entries: grows the
    /// buffer if needed (new entries invalid) and invalidates every
    /// existing entry in O(1) — except on `u32` counter wrap, which pays
    /// one full clear.
    pub(crate) fn advance(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamp.fill(0);
                1
            }
        };
    }

    /// `true` if entry `i` was marked during the current generation.
    #[inline]
    pub(crate) fn is_current(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    /// Marks entry `i` as valid for the current generation.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) {
        self.stamp[i] = self.generation;
    }
}

/// A set of `usize` keys with O(1) bulk clear, built on
/// [`GenerationStamps`].
///
/// This is the "generational set" idiom used anywhere a hot loop needs a
/// visited/settled/reached set that resets per run without an O(n) fill:
/// [`SearchScratch`](crate::search::SearchScratch) tracks settled nodes
/// with one, and [`DescentReach`](crate::feasibility::DescentReach) keeps
/// its reached/expanded sets in them across per-demand resets.
#[derive(Debug, Clone, Default)]
pub(crate) struct StampedSet {
    stamps: GenerationStamps,
}

impl StampedSet {
    /// Empties the set and grows it to cover keys `0..n`, in O(1)
    /// (amortized over the occasional buffer growth / counter wrap).
    pub(crate) fn clear(&mut self, n: usize) {
        self.stamps.advance(n);
    }

    /// Inserts `key`; returns `true` if it was not yet present.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the range covered by the last
    /// [`clear`](StampedSet::clear).
    #[inline]
    pub(crate) fn insert(&mut self, key: usize) -> bool {
        if self.stamps.is_current(key) {
            false
        } else {
            self.stamps.mark(key);
            true
        }
    }

    /// `true` if `key` was inserted since the last clear.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the range covered by the last
    /// [`clear`](StampedSet::clear).
    #[inline]
    pub(crate) fn contains(&self, key: usize) -> bool {
        self.stamps.is_current(key)
    }
}

/// One constrained search's bans: the banned nodes as a list, and a mark
/// on both endpoints of every banned hop, so an edge whose endpoints are
/// not both marked is known to be allowed without looking the hop up.
///
/// Yen spur searches carry their bans on every search.
/// [`WidthSearch`](crate::search::WidthSearch) turns the node list into
/// labels once per search and reads the hop marks per arc; only an edge
/// between two hop-marked nodes needs the caller's exact hop lookup.
/// [`begin`](BanMask::begin) empties the mask in O(previous node bans).
#[derive(Debug, Clone, Default)]
pub struct BanMask {
    nodes: Vec<NodeId>,
    hop_ends: GenerationStamps,
}

impl BanMask {
    /// Creates an empty, reusable mask.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the mask and grows it to cover nodes `0..n`.
    pub fn begin(&mut self, n: usize) {
        self.nodes.clear();
        self.hop_ends.advance(n);
    }

    /// Bans `node`. A search panics on a banned node outside its graph.
    pub fn ban_node(&mut self, node: NodeId) {
        self.nodes.push(node);
    }

    /// Marks both endpoints of a banned hop `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is outside the range covered by the last
    /// [`begin`](BanMask::begin).
    pub fn mark_hop(&mut self, u: NodeId, v: NodeId) {
        self.hop_ends.mark(u.index());
        self.hop_ends.mark(v.index());
    }

    /// The nodes banned since the last [`begin`](BanMask::begin), in ban
    /// order.
    #[must_use]
    pub fn banned_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `true` if `node` ends a hop marked since the last
    /// [`begin`](BanMask::begin). A hop `{u, v}` *may* be banned only if
    /// both `u` and `v` end a marked hop; otherwise it is known allowed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the range covered by the last
    /// [`begin`](BanMask::begin).
    #[inline]
    #[must_use]
    pub fn hop_end(&self, node: NodeId) -> bool {
        self.hop_ends.is_current(node.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_start_invalid_and_mark_per_generation() {
        let mut s = GenerationStamps::with_capacity(3);
        assert!(!s.is_current(0));
        s.mark(0);
        assert!(s.is_current(0));
        s.advance(3);
        assert!(!s.is_current(0), "advance invalidates prior marks");
        s.mark(1);
        assert!(s.is_current(1) && !s.is_current(0));
    }

    #[test]
    fn growth_keeps_new_entries_invalid() {
        let mut s = GenerationStamps::default();
        s.advance(2);
        s.mark(1);
        s.advance(5);
        assert_eq!(s.len(), 5);
        for i in 0..5 {
            assert!(!s.is_current(i));
        }
    }

    #[test]
    fn stamped_set_inserts_and_clears() {
        let mut s = StampedSet::default();
        s.clear(4);
        assert!(!s.contains(2));
        assert!(s.insert(2), "first insert reports new");
        assert!(!s.insert(2), "second insert reports present");
        assert!(s.contains(2));
        s.clear(6);
        for k in 0..6 {
            assert!(!s.contains(k), "clear must empty the set");
        }
        assert!(s.insert(5));
    }

    #[test]
    fn counter_wrap_clears_instead_of_aliasing() {
        let mut s = GenerationStamps::with_capacity(2);
        s.generation = u32::MAX;
        s.mark(0); // stamped u32::MAX
        s.advance(2); // wraps: fill(0), generation = 1
        assert!(!s.is_current(0));
        assert!(!s.is_current(1));
        s.mark(1);
        assert!(s.is_current(1));
    }

    #[test]
    fn ban_mask_wrap_clears_instead_of_aliasing() {
        let [a, b, c] = [0, 1, 2].map(NodeId::new);
        let mut m = BanMask::new();
        m.begin(3);
        m.hop_ends.generation = u32::MAX;
        m.ban_node(a);
        m.mark_hop(b, c); // stamped u32::MAX
        assert_eq!(m.banned_nodes(), &[a]);
        assert!(m.hop_end(b) && m.hop_end(c));
        m.begin(3); // wraps: the stamp buffer fills 0, generation = 1
        assert!(m.banned_nodes().is_empty(), "begin must clear node bans");
        for v in [a, b, c] {
            assert!(!m.hop_end(v), "wrap must clear hop marks");
        }
        m.ban_node(c);
        m.mark_hop(a, b);
        assert_eq!(m.banned_nodes(), &[c]);
        assert!(m.hop_end(a) && m.hop_end(b) && !m.hop_end(c));
    }
}
