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

/// A `StampedSet` that also records its members, so the set can be
/// enumerated after a run.
///
/// This is the *footprint-recording* idiom: a hot loop inserts every key
/// it touches (O(1), no hashing), and afterwards the member list *is* the
/// read set — e.g. the nodes whose feasibility a width-descent search
/// read, which [`CertificateRecorder`](crate::certificate::CertificateRecorder)
/// keeps per feasibility kind (see `docs/ARCHITECTURE.md`, "the
/// generation discipline").
///
/// `clear` is O(previous members) but allocation-free after warmup;
/// `insert` and `contains` are O(1).
#[derive(Debug, Clone, Default)]
pub struct RecordedSet {
    set: StampedSet,
    members: Vec<usize>,
}

impl RecordedSet {
    /// Creates an empty, reusable set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the set and grows it to cover keys `0..n`.
    pub fn clear(&mut self, n: usize) {
        self.set.clear(n);
        self.members.clear();
    }

    /// Inserts `key`; returns `true` if it was not yet present.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the range covered by the last
    /// [`clear`](RecordedSet::clear).
    #[inline]
    pub fn insert(&mut self, key: usize) -> bool {
        if self.set.insert(key) {
            self.members.push(key);
            true
        } else {
            false
        }
    }

    /// `true` if `key` was inserted since the last clear.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the range covered by the last
    /// [`clear`](RecordedSet::clear).
    #[inline]
    #[must_use]
    pub fn contains(&self, key: usize) -> bool {
        self.set.contains(key)
    }

    /// The inserted keys, in insertion order.
    #[must_use]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of distinct keys inserted since the last clear.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if nothing was inserted since the last clear.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Per-node ban marks for one constrained search: a banned node is one
/// stamp compare, and a banned hop marks both of its endpoints, so an edge
/// whose endpoints are not both marked is known to be allowed without
/// looking the hop up.
///
/// Yen spur searches evaluate their bans on every relaxed edge. Stamping
/// a search's bans once, in O(bans), turns those per-edge checks into
/// array compares; only an edge between two hop-marked nodes needs the
/// caller's exact hop lookup. [`begin`](BanMask::begin) empties the mask
/// in O(1).
#[derive(Debug, Clone, Default)]
pub struct BanMask {
    nodes: GenerationStamps,
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
        self.nodes.advance(n);
        self.hop_ends.advance(n);
    }

    /// Bans `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the range covered by the last
    /// [`begin`](BanMask::begin).
    pub fn ban_node(&mut self, node: NodeId) {
        self.nodes.mark(node.index());
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

    /// `true` if `node` was banned since the last
    /// [`begin`](BanMask::begin).
    #[inline]
    #[must_use]
    pub fn node_banned(&self, node: NodeId) -> bool {
        self.nodes.is_current(node.index())
    }

    /// `true` if both `u` and `v` end a marked hop, so `{u, v}` *may* be
    /// banned and the caller must check it exactly; `false` proves the
    /// hop is not banned.
    #[inline]
    #[must_use]
    pub fn hop_marked(&self, u: NodeId, v: NodeId) -> bool {
        self.hop_ends.is_current(u.index()) && self.hop_ends.is_current(v.index())
    }

    /// `true` if a search may not step from `from` into `to`: `to` is
    /// banned, or `{from, to}` is a banned hop. One compare decides a
    /// node ban; `hop_banned(from, to)`, the caller's exact hop lookup,
    /// runs only when both endpoints carry a hop mark.
    #[inline]
    #[must_use]
    pub fn step_banned(
        &self,
        from: NodeId,
        to: NodeId,
        hop_banned: impl FnOnce(NodeId, NodeId) -> bool,
    ) -> bool {
        self.node_banned(to) || (self.hop_marked(from, to) && hop_banned(from, to))
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
        m.nodes.generation = u32::MAX;
        m.hop_ends.generation = u32::MAX;
        m.ban_node(a); // stamped u32::MAX
        m.mark_hop(b, c);
        assert!(m.node_banned(a) && m.hop_marked(b, c));
        m.begin(3); // wraps: both stamp buffers fill(0), generation = 1
        for v in [a, b, c] {
            assert!(!m.node_banned(v), "wrap must clear node bans");
        }
        assert!(!m.hop_marked(b, c), "wrap must clear hop marks");
        m.ban_node(c);
        m.mark_hop(a, b);
        assert!(m.node_banned(c) && !m.node_banned(a));
        assert!(m.hop_marked(a, b) && !m.hop_marked(b, c));
    }
}
