//! Inheritance forest for no-writeback GC (paper §II-B).
//!
//! TerarkDB (and Scavenger) never rewrite index entries during GC.
//! Instead, when GC moves the valid records of file `F` into new files
//! `{G, H}` (hot/cold split can produce more than one output), the engine
//! records edges `F → G`, `F → H`. A reference stored in the index that
//! still names `F` is resolved at read time by walking to the *leaves* of
//! `F`'s subtree — the files that currently hold whatever survived from
//! `F`. Each GC consumes whole files, so interior nodes never gain new
//! children after deletion; the forest only grows at its leaves.

use scavenger_util::hash::IntMap;
use scavenger_util::inline_vec::InlineVec;

/// File numbers gathered by a forest walk: on the stack for the few
/// files a subtree usually holds.
pub type Files = InlineVec<u64, 16>;

/// The `old file → new files` DAG.
#[derive(Debug, Default)]
pub struct InheritForest {
    children: IntMap<u64, Vec<u64>>,
}

impl InheritForest {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `new` inherits (part of) `old`'s contents.
    pub fn add_edge(&mut self, old: u64, new: u64) {
        let c = self.children.entry(old).or_default();
        if !c.contains(&new) {
            c.push(new);
        }
    }

    /// True if `file` has no descendants (its contents were never GC-moved).
    pub fn is_leaf(&self, file: u64) -> bool {
        !self.children.contains_key(&file)
    }

    /// Call `visit` on each leaf of `file`'s subtree once, until it
    /// returns true; returns whether it did. A merged GC makes one file
    /// heir to several, so a subtree is a DAG whose paths can multiply
    /// with every generation: each node is expanded once. A file that
    /// was never collected is its own leaf and costs no walk.
    fn any_leaf(&self, file: u64, mut visit: impl FnMut(u64) -> bool) -> bool {
        if self.is_leaf(file) {
            return visit(file);
        }
        let mut stack = Files::new();
        let mut seen = Files::new();
        stack.push(file);
        while let Some(f) = stack.pop() {
            if seen.contains(&f) {
                continue;
            }
            seen.push(f);
            match self.children.get(&f) {
                Some(kids) => stack.extend_from_slice(kids),
                None if visit(f) => return true,
                None => {}
            }
        }
        false
    }

    /// The current holders of whatever survived from `file`: all leaf
    /// descendants (or `file` itself if it was never collected),
    /// ascending.
    pub fn leaves(&self, file: u64) -> Files {
        let mut out = Files::new();
        self.any_leaf(file, |leaf| {
            out.push(leaf);
            false
        });
        out.sort_unstable();
        out
    }

    /// True if `candidate` is among the leaves of `file` — the GC validity
    /// test: a record read from `candidate` whose index entry names `file`
    /// is still live only if `candidate` descends from `file`.
    pub fn resolves_to(&self, file: u64, candidate: u64) -> bool {
        self.any_leaf(file, |leaf| leaf == candidate)
    }

    /// Number of recorded edges (for stats).
    pub fn edge_count(&self) -> usize {
        self.children.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_file_resolves_to_itself() {
        let f = InheritForest::new();
        assert_eq!(f.leaves(7)[..], [7]);
        assert!(f.resolves_to(7, 7));
        assert!(!f.resolves_to(7, 8));
    }

    #[test]
    fn single_chain_resolution() {
        let mut f = InheritForest::new();
        f.add_edge(1, 2);
        f.add_edge(2, 3);
        assert_eq!(f.leaves(1)[..], [3]);
        assert!(f.resolves_to(1, 3));
        assert!(!f.resolves_to(1, 2), "interior nodes are not holders");
        assert!(f.resolves_to(2, 3));
    }

    #[test]
    fn hot_cold_split_produces_two_leaves() {
        let mut f = InheritForest::new();
        f.add_edge(1, 10); // hot output
        f.add_edge(1, 11); // cold output
        assert_eq!(f.leaves(1)[..], [10, 11]);
        assert!(f.resolves_to(1, 10));
        assert!(f.resolves_to(1, 11));
    }

    #[test]
    fn merged_gc_creates_shared_children() {
        // GC of {4, 5} into 20: both old files resolve to 20.
        let mut f = InheritForest::new();
        f.add_edge(4, 20);
        f.add_edge(5, 20);
        assert_eq!(f.leaves(4)[..], [20]);
        assert_eq!(f.leaves(5)[..], [20]);
        // Validity: a record in 20 may descend from either.
        assert!(f.resolves_to(4, 20));
        assert!(f.resolves_to(5, 20));
        assert!(!f.resolves_to(4, 5));
    }

    #[test]
    fn deep_mixed_forest() {
        let mut f = InheritForest::new();
        // 1 -> {2,3}; 2 -> 4; 3 -> {4,5} (4 received from both 2 and 3).
        f.add_edge(1, 2);
        f.add_edge(1, 3);
        f.add_edge(2, 4);
        f.add_edge(3, 4);
        f.add_edge(3, 5);
        assert_eq!(f.leaves(1)[..], [4, 5]);
        assert!(f.resolves_to(1, 4));
        assert!(f.resolves_to(1, 5));
        assert_eq!(f.edge_count(), 5);
    }

    #[test]
    fn stacked_diamonds_are_walked_once_per_node() {
        // Each generation splits hot/cold into two files and the next GC
        // merges both: 2^40 paths lead from file 0 to the last pair.
        let mut f = InheritForest::new();
        for g in 0..40u64 {
            for old in [2 * g, 2 * g + 1] {
                f.add_edge(old, 2 * g + 2);
                f.add_edge(old, 2 * g + 3);
            }
        }
        assert_eq!(f.leaves(0)[..], [80, 81]);
        assert!(f.resolves_to(0, 81));
        assert!(!f.resolves_to(0, 79));
    }

    #[test]
    fn a_wide_subtree_spills_past_the_inline_list() {
        let mut f = InheritForest::new();
        for new in (100..140).rev() {
            f.add_edge(1, new);
        }
        let want: Vec<u64> = (100..140).collect();
        assert_eq!(f.leaves(1)[..], want[..]);
        assert!(f.resolves_to(1, 139));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut f = InheritForest::new();
        f.add_edge(1, 2);
        f.add_edge(1, 2);
        assert_eq!(f.edge_count(), 1);
    }
}
