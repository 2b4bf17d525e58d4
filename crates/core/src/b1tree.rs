//! The Bentley–Yao B1 tree: an unbounded-search tree shape in which the
//! `v`-th leaf sits at depth `O(log v)`.
//!
//! Algorithm A uses a B1 tree with `N − 1` leaves as the left subtree
//! `TL` of its max-register tree: `WriteMax(v)` for a small value `v`
//! starts at `TL`'s `v`-th leaf and climbs only `O(log v)` levels, which
//! is what makes the write cost `O(min(log N, log v))` instead of
//! `O(log N)`.
//!
//! The shape is a rightward *spine*: the spine node at spine-depth `g`
//! hangs a complete binary tree with `2^g` leaves off its left side and
//! the next spine node off its right. Leaf `v` (1-based) therefore lands
//! in group `g = ⌊log₂(v + 1)⌋ - ... ` — concretely, group `g` covers
//! leaves `2^g .. 2^(g+1) - 1`, at total depth at most `2g + 1`.

use crate::shape::{NodeIdx, TreeShape};

/// The group (spine level) containing the 1-based leaf `v`: group `g`
/// covers leaves `2^g ..= 2^(g+1) - 1`.
#[inline]
pub fn group_of(v: usize) -> usize {
    debug_assert!(v >= 1);
    (usize::BITS - 1 - v.leading_zeros()) as usize
}

/// Number of leaves in group `g` of an unbounded B1 tree.
#[inline]
pub fn group_size(g: usize) -> usize {
    1 << g
}

/// Upper bound on the depth of the 1-based leaf `v` inside the B1
/// subtree: spine descent `g`, plus one edge into the group's complete
/// subtree, plus the subtree's height `g`.
#[inline]
pub fn depth_bound(v: usize) -> usize {
    2 * group_of(v) + 1
}

/// Builds a B1 tree with `leaf_count ≥ 1` leaves into `shape`, appends
/// its leaves to `leaves` in value order (the tree's `v`-th leaf comes
/// `v − 1` places after its first), and returns the subtree root.
pub(crate) fn build_b1(
    shape: &mut TreeShape,
    leaf_count: usize,
    leaves: &mut Vec<NodeIdx>,
) -> NodeIdx {
    assert!(leaf_count >= 1);
    // Groups of 1, 2, 4, ... leaves (the last one cut at `leaf_count`),
    // each a complete subtree; group `g` holds leaves `2^g ..= 2^(g+1) − 1`.
    let groups = group_of(leaf_count) + 1;
    let mut roots = [0; usize::BITS as usize];
    for (g, root) in roots[..groups].iter_mut().enumerate() {
        let size = group_size(g).min(leaf_count + 1 - group_size(g));
        *root = shape.build_complete(size, leaves);
    }
    // The spine follows the groups in the arena. Spine node `i` hangs
    // group `i` off its left and the next spine node off its right; the
    // deepest group needs no spine node of its own, its subtree root
    // *is* the last spine node's right child.
    let spine = shape.len();
    for _ in 1..groups {
        shape.add_node();
    }
    let mut right = roots[groups - 1];
    for i in (0..groups - 1).rev() {
        shape.set_children(spine + i, Some(roots[i]), Some(right));
        right = spine + i;
    }
    right
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(leaf_count: usize) -> (TreeShape, NodeIdx, Vec<NodeIdx>) {
        let mut shape = TreeShape::default();
        let mut leaves = Vec::new();
        let root = build_b1(&mut shape, leaf_count, &mut leaves);
        (shape, root, leaves)
    }

    #[test]
    fn group_math_matches_powers_of_two() {
        assert_eq!(group_of(1), 0);
        assert_eq!(group_of(2), 1);
        assert_eq!(group_of(3), 1);
        assert_eq!(group_of(4), 2);
        assert_eq!(group_of(7), 2);
        assert_eq!(group_of(8), 3);
        assert_eq!(group_size(3), 8);
    }

    #[test]
    fn produces_exactly_the_requested_leaves() {
        for k in 1..=100 {
            let (shape, _, leaves) = built(k);
            assert_eq!(leaves.len(), k);
            for &l in &leaves {
                assert!(shape.node(l).is_leaf());
            }
        }
    }

    #[test]
    fn leaf_depths_respect_the_bentley_yao_bound() {
        let (shape, _, leaves) = built(1000);
        for (i, &l) in leaves.iter().enumerate() {
            let v = i + 1;
            let d = shape.ancestors(l).len();
            assert!(
                d <= depth_bound(v),
                "leaf {v} at depth {d} > bound {}",
                depth_bound(v)
            );
        }
    }

    #[test]
    fn first_leaf_is_shallow_even_in_huge_trees() {
        // Leaf 1 must stay at depth 1 regardless of tree size — this is
        // the whole point of the B1 shape.
        for k in [1usize, 2, 10, 1 << 16] {
            let (shape, _, leaves) = built(k);
            assert!(shape.ancestors(leaves[0]).len() <= 1, "k={k}");
        }
    }

    #[test]
    fn depth_grows_with_value() {
        let (shape, _, leaves) = built(512);
        // Depth of leaf 2^g is about 2g; check rough growth.
        let d1 = shape.ancestors(leaves[0]).len();
        let d511 = shape.ancestors(leaves[510]).len();
        assert!(d1 < d511);
        assert!(d511 <= depth_bound(511));
    }

    #[test]
    fn single_leaf_tree_is_just_the_leaf() {
        let (shape, root, leaves) = built(1);
        assert_eq!(root, leaves[0]);
        assert_eq!(shape.len(), 1);
    }

    #[test]
    fn all_nodes_reachable_from_root() {
        let (shape, root, _) = built(77);
        let mut seen = vec![false; shape.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            assert!(!seen[n], "node {n} reached twice — not a tree");
            seen[n] = true;
            if let Some(l) = shape.node(n).left {
                stack.push(l);
            }
            if let Some(r) = shape.node(n).right {
                stack.push(r);
            }
        }
        assert!(seen.iter().all(|&s| s), "orphan nodes exist");
    }
}
