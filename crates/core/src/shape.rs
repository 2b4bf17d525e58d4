//! Tree shapes: node arenas, complete binary trees, and Algorithm A's
//! combined tree (Figure 4 of the paper).
//!
//! A [`TreeShape`] is a static arena of nodes with parent/child links.
//! Both the real-atomics and the simulator implementations of the tree
//! algorithms (Algorithm A's max register, the f-array counter) share
//! these shapes; only the cell storage differs.
//!
//! A static tree's leaf-to-root paths never change, so one [`PathTable`]
//! holds them all, end to end in one allocation, and building a tree
//! takes the same few allocations at any size.

use std::fmt;
use std::iter::successors;

use crate::b1tree;

/// Index of a node inside a [`TreeShape`].
pub type NodeIdx = usize;

/// Sentinel in a [`PathNode`] for a missing child.
pub const NO_CHILD: u32 = u32::MAX;

/// One precomputed step of a leaf-to-root propagation path: an ancestor
/// node with both child links resolved inline, so the propagation loops
/// follow a flat slice of a [`PathTable`] instead of chasing
/// `Option<usize>` parent pointers (and allocating a fresh `Vec` per
/// write, as [`TreeShape::ancestors`] does).
///
/// Indices are `u32` to keep a step at 12 bytes; [`NO_CHILD`] marks an
/// absent child. Tree arenas are bounded far below `u32::MAX` nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathNode {
    /// The ancestor node to CAS.
    pub node: u32,
    /// Its left child, or [`NO_CHILD`].
    pub left: u32,
    /// Its right child, or [`NO_CHILD`].
    pub right: u32,
}

/// One node of a static tree shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// Parent node, `None` for the root.
    pub parent: Option<NodeIdx>,
    /// Left child.
    pub left: Option<NodeIdx>,
    /// Right child.
    pub right: Option<NodeIdx>,
}

impl NodeInfo {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.left.is_none() && self.right.is_none()
    }
}

/// A static binary-tree shape stored as an arena.
#[derive(Clone, Debug, Default)]
pub struct TreeShape {
    nodes: Vec<NodeInfo>,
}

impl TreeShape {
    /// An empty arena with room for `nodes` nodes.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        TreeShape {
            nodes: Vec::with_capacity(nodes),
        }
    }

    pub(crate) fn add_node(&mut self) -> NodeIdx {
        self.nodes.push(NodeInfo {
            parent: None,
            left: None,
            right: None,
        });
        self.nodes.len() - 1
    }

    pub(crate) fn set_children(
        &mut self,
        parent: NodeIdx,
        left: Option<NodeIdx>,
        right: Option<NodeIdx>,
    ) {
        self.nodes[parent].left = left;
        self.nodes[parent].right = right;
        if let Some(l) = left {
            self.nodes[l].parent = Some(parent);
        }
        if let Some(r) = right {
            self.nodes[r].parent = Some(parent);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the shape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node accessor.
    pub fn node(&self, idx: NodeIdx) -> &NodeInfo {
        &self.nodes[idx]
    }

    /// Parent of `idx`, `None` at the root.
    pub fn parent(&self, idx: NodeIdx) -> Option<NodeIdx> {
        self.nodes[idx].parent
    }

    /// The nodes on the path from `idx` (exclusive) up to and including
    /// the root, in bottom-up order.
    pub fn ancestors(&self, idx: NodeIdx) -> Vec<NodeIdx> {
        successors(self.parent(idx), |&p| self.parent(p)).collect()
    }

    /// Builds a complete binary tree with `k ≥ 1` leaves (`2k − 1`
    /// nodes), appends its leaves to `leaves` in left-to-right order, and
    /// returns the subtree root.
    pub(crate) fn build_complete(&mut self, k: usize, leaves: &mut Vec<NodeIdx>) -> NodeIdx {
        assert!(k >= 1);
        if k == 1 {
            let leaf = self.add_node();
            leaves.push(leaf);
            return leaf;
        }
        let left_count = k.div_ceil(2);
        let l = self.build_complete(left_count, leaves);
        let r = self.build_complete(k - left_count, leaves);
        let n = self.add_node();
        self.set_children(n, Some(l), Some(r));
        n
    }
}

/// Every leaf's propagation path, end to end in one allocation. Keyed
/// by node (Algorithm A) or by slot (the f-array): a leaf's path is its
/// ancestors, bottom-up, with their child links inlined; any other key's
/// path is empty.
#[derive(Clone, Debug)]
pub struct PathTable {
    /// Sized to the sum of the leaf depths.
    steps: Vec<PathNode>,
    /// `steps[starts[k]..starts[k + 1]]` is key `k`'s path.
    starts: Vec<u32>,
}

impl PathTable {
    /// The paths of `keys`, in order: one walk up each leaf's parent
    /// links sizes the table, and one fills it.
    pub(crate) fn new(
        shape: &TreeShape,
        keys: impl ExactSizeIterator<Item = NodeIdx> + Clone,
    ) -> Self {
        let path = |k: NodeIdx| {
            let first = shape.node(k).is_leaf().then(|| shape.parent(k)).flatten();
            successors(first, |&p| shape.parent(p))
        };
        let len: usize = keys.clone().map(|k| path(k).count()).sum();
        assert!(
            shape.len().max(len) < NO_CHILD as usize,
            "tree too large for u32 indices"
        );
        let link = |child: Option<NodeIdx>| child.map_or(NO_CHILD, |i| i as u32);
        let mut steps = Vec::with_capacity(len);
        let mut starts = Vec::with_capacity(keys.len() + 1);
        starts.push(0);
        for key in keys {
            steps.extend(path(key).map(|p| {
                let info = shape.node(p);
                PathNode {
                    node: p as u32,
                    left: link(info.left),
                    right: link(info.right),
                }
            }));
            starts.push(steps.len() as u32);
        }
        PathTable { steps, starts }
    }

    /// Key `k`'s path: bottom-up, ending at the root.
    #[inline]
    pub fn path(&self, k: usize) -> &[PathNode] {
        &self.steps[self.starts[k] as usize..self.starts[k + 1] as usize]
    }
}

/// Algorithm A's combined tree for `N` processes (Figure 4): the root's
/// left subtree is a B1 tree with `N − 1` value leaves (leaf for value
/// `v` at depth `O(log v)`), its right subtree a complete binary tree
/// with `N` per-process leaves.
#[derive(Clone)]
pub struct AlgorithmATree {
    shape: TreeShape,
    root: NodeIdx,
    /// `value_leaves[v - 1]` is the leaf for value `v` (values `1..N`).
    value_leaves: Vec<NodeIdx>,
    /// `process_leaves[i]` is the leaf owned by process `i`.
    process_leaves: Vec<NodeIdx>,
    /// Leaf-to-root propagation paths, keyed by node; empty at internal
    /// nodes. `WriteMax` never recomputes its path.
    paths: PathTable,
    n: usize,
}

impl fmt::Debug for AlgorithmATree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmATree")
            .field("n", &self.n)
            .field("nodes", &self.shape.len())
            .finish()
    }
}

impl AlgorithmATree {
    /// Builds the tree for `n ≥ 1` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "at least one process required");
        // The root, a B1 tree with N − 1 leaves (none for N = 1) and a
        // complete tree with N: 1 + (2N − 3) + (2N − 1) nodes.
        let mut shape = TreeShape::with_capacity((4 * n - 3).max(2));
        let root = shape.add_node();
        let mut value_leaves = Vec::with_capacity(n - 1);
        let tl_root = (n >= 2).then(|| b1tree::build_b1(&mut shape, n - 1, &mut value_leaves));
        let mut process_leaves = Vec::with_capacity(n);
        let tr_root = shape.build_complete(n, &mut process_leaves);
        shape.set_children(root, tl_root, Some(tr_root));
        let paths = PathTable::new(&shape, 0..shape.len());
        AlgorithmATree {
            shape,
            root,
            value_leaves,
            process_leaves,
            paths,
            n,
        }
    }

    /// Number of processes sharing the register.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying shape (node arena).
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The root node (holding the register's value).
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    /// The leaf a `WriteMax(v)` by process `pid` starts from: the value
    /// leaf for `v` if `1 ≤ v < N`, else the process leaf of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` (a `WriteMax(0)` is a semantic no-op and never
    /// reaches leaf selection) or `pid ≥ N`.
    pub fn leaf_for(&self, pid: usize, v: u64) -> NodeIdx {
        assert!(v >= 1, "WriteMax(0) never selects a leaf");
        assert!(pid < self.n, "process {pid} out of range (N = {})", self.n);
        if (v as u128) < self.n as u128 {
            self.value_leaves[(v - 1) as usize]
        } else {
            self.process_leaves[pid]
        }
    }

    /// The precomputed propagation path (bottom-up ancestors with child
    /// links inlined) for `leaf`; empty unless `leaf` is one of the
    /// tree's leaves.
    #[inline]
    pub fn path_for(&self, leaf: NodeIdx) -> &[PathNode] {
        self.paths.path(leaf)
    }

    /// Depth of the leaf used by `WriteMax(v)` from `pid` (its path's
    /// length) — proportional to the operation's step count.
    pub fn write_depth(&self, pid: usize, v: u64) -> usize {
        self.path_for(self.leaf_for(pid, v)).len()
    }

    /// Renders the tree as ASCII art (used to regenerate Figure 4).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.label(self.root)));
        let node = self.shape.node(self.root);
        let children: Vec<NodeIdx> = [node.left, node.right].into_iter().flatten().collect();
        for (i, c) in children.iter().enumerate() {
            self.render_node(*c, "", i + 1 == children.len(), &mut out);
        }
        out
    }

    fn label(&self, idx: NodeIdx) -> String {
        if idx == self.root {
            return "root".to_string();
        }
        if let Some(v) = self.value_leaves.iter().position(|&l| l == idx) {
            return format!("TL.leaf[v={}]", v + 1);
        }
        if let Some(p) = self.process_leaves.iter().position(|&l| l == idx) {
            return format!("TR.leaf[p{p}]");
        }
        format!("n{idx}")
    }

    fn render_node(&self, idx: NodeIdx, prefix: &str, last: bool, out: &mut String) {
        let connector = if last { "└── " } else { "├── " };
        out.push_str(&format!("{prefix}{connector}{}\n", self.label(idx)));
        let child_prefix = format!("{prefix}{}", if last { "    " } else { "│   " });
        let node = self.shape.node(idx);
        let children: Vec<NodeIdx> = [node.left, node.right].into_iter().flatten().collect();
        for (i, c) in children.iter().enumerate() {
            self.render_node(*c, &child_prefix, i + 1 == children.len(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete tree with `k` leaves: `(shape, root, leaves)`.
    fn complete(k: usize) -> (TreeShape, NodeIdx, Vec<NodeIdx>) {
        let mut shape = TreeShape::default();
        let mut leaves = Vec::new();
        let root = shape.build_complete(k, &mut leaves);
        (shape, root, leaves)
    }

    /// The leaves below `idx`, left to right.
    fn leaves_in_order(shape: &TreeShape, idx: NodeIdx, out: &mut Vec<NodeIdx>) {
        let info = shape.node(idx);
        if info.is_leaf() {
            out.push(idx);
        }
        for child in [info.left, info.right].into_iter().flatten() {
            leaves_in_order(shape, child, out);
        }
    }

    /// Checks `table`, keyed by `keys`, against `shape`'s parent links:
    /// a leaf's path is its ancestors node for node with their child
    /// links, any other key's path is empty, every path lies inside the
    /// one table, and the table holds exactly the leaf depths.
    fn check_table(shape: &TreeShape, table: &PathTable, keys: &[NodeIdx]) {
        let whole = table.steps.as_ptr_range();
        let mut depths = 0;
        for (k, &key) in keys.iter().enumerate() {
            let path = table.path(k);
            let span = path.as_ptr_range();
            assert!(
                whole.start <= span.start && span.end <= whole.end,
                "key {key}: path outside the table"
            );
            if !shape.node(key).is_leaf() {
                assert!(path.is_empty(), "internal node {key} has a path");
                continue;
            }
            let ancestors = shape.ancestors(key);
            assert_eq!(path.len(), ancestors.len(), "leaf {key}");
            for (step, &a) in path.iter().zip(&ancestors) {
                let info = shape.node(a);
                let link = |c: Option<NodeIdx>| c.map_or(NO_CHILD, |i| i as u32);
                let want = PathNode {
                    node: a as u32,
                    left: link(info.left),
                    right: link(info.right),
                };
                assert_eq!(*step, want, "leaf {key}");
            }
            depths += path.len();
        }
        assert_eq!(table.steps.len(), depths);
    }

    #[test]
    fn path_tables_match_ancestors() {
        for k in 1..=130 {
            let (shape, root, leaves) = complete(k);
            assert_eq!(shape.len(), 2 * k - 1, "k={k}");
            let mut in_order = Vec::new();
            leaves_in_order(&shape, root, &mut in_order);
            assert_eq!(leaves, in_order, "k={k}");
            // Keyed by slot, as the f-array keys it, and by node.
            check_table(
                &shape,
                &PathTable::new(&shape, leaves.iter().copied()),
                &leaves,
            );
            let nodes: Vec<NodeIdx> = (0..shape.len()).collect();
            check_table(&shape, &PathTable::new(&shape, 0..shape.len()), &nodes);
        }
        for n in 1..=130 {
            let t = AlgorithmATree::new(n);
            assert_eq!(t.shape.len(), (4 * n - 3).max(2), "n={n}");
            let mut in_order = Vec::new();
            leaves_in_order(&t.shape, t.root, &mut in_order);
            let leaves: Vec<NodeIdx> = t
                .value_leaves
                .iter()
                .chain(&t.process_leaves)
                .copied()
                .collect();
            assert_eq!(leaves, in_order, "n={n}: B1 leaves, then TR leaves");
            let nodes: Vec<NodeIdx> = (0..t.shape.len()).collect();
            check_table(&t.shape, &t.paths, &nodes);
        }
    }

    #[test]
    fn complete_tree_has_logarithmic_depth() {
        for k in 1..=64usize {
            let (shape, _, leaves) = complete(k);
            assert_eq!(leaves.len(), k);
            let max_depth = leaves
                .iter()
                .map(|&l| shape.ancestors(l).len())
                .max()
                .unwrap();
            let bound = (k as f64).log2().ceil() as usize;
            assert!(max_depth <= bound, "k={k}: depth {max_depth} > {bound}");
        }
    }

    #[test]
    fn complete_tree_leaves_are_leaves() {
        let (shape, root, leaves) = complete(10);
        for &l in &leaves {
            assert!(shape.node(l).is_leaf());
        }
        assert!(!shape.node(root).is_leaf());
        assert_eq!(shape.parent(root), None);
    }

    #[test]
    fn ancestors_lead_to_root() {
        let (shape, root, leaves) = complete(8);
        let path = shape.ancestors(leaves[3]);
        assert_eq!(*path.last().unwrap(), root);
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn algorithm_a_tree_caches_every_leaf_path() {
        let t = AlgorithmATree::new(6);
        for &leaf in t.value_leaves.iter().chain(&t.process_leaves) {
            let path = t.path_for(leaf);
            assert!(!path.is_empty());
            assert_eq!(path.last().unwrap().node as usize, t.root());
            assert_eq!(path.len(), t.shape.ancestors(leaf).len());
        }
        // Internal nodes carry no path.
        assert!(t.path_for(t.root()).is_empty());
    }

    #[test]
    fn figure_4_structure_for_n_4() {
        // The paper's Figure 4: N = 4, TL is a B1 tree with 3 leaves,
        // TR a complete binary tree with 4 leaves.
        let t = AlgorithmATree::new(4);
        assert_eq!(t.value_leaves.len(), 3);
        assert_eq!(t.process_leaves.len(), 4);
        // All 4 process leaves at equal depth in the complete subtree.
        let depths: Vec<usize> = t
            .process_leaves
            .iter()
            .map(|&l| t.shape.ancestors(l).len())
            .collect();
        assert!(depths.iter().all(|&d| d == depths[0]));
        assert_eq!(depths[0], 3); // root -> TR root -> internal -> leaf
    }

    #[test]
    fn leaf_selection_follows_the_paper() {
        let t = AlgorithmATree::new(4);
        // v < N: value leaf, independent of pid.
        assert_eq!(t.leaf_for(0, 2), t.leaf_for(3, 2));
        // v >= N: process leaf, independent of v.
        assert_eq!(t.leaf_for(1, 4), t.leaf_for(1, 1000));
        assert_ne!(t.leaf_for(1, 4), t.leaf_for(2, 4));
    }

    #[test]
    #[should_panic(expected = "WriteMax(0)")]
    fn value_zero_never_selects_a_leaf() {
        let t = AlgorithmATree::new(4);
        let _ = t.leaf_for(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_is_rejected() {
        let t = AlgorithmATree::new(4);
        let _ = t.leaf_for(4, 10);
    }

    #[test]
    fn single_process_tree_has_no_value_leaves() {
        let t = AlgorithmATree::new(1);
        assert!(t.value_leaves.is_empty());
        assert_eq!(t.process_leaves.len(), 1);
        // Any value goes to the single process leaf.
        assert_eq!(t.leaf_for(0, 1), t.process_leaves[0]);
        assert_eq!(t.leaf_for(0, 1 << 40), t.process_leaves[0]);
    }

    #[test]
    fn small_value_depth_is_logarithmic_in_value() {
        // Key property of Algorithm A: writing a small value v costs
        // O(log v), even when N is huge.
        let t = AlgorithmATree::new(1 << 12);
        for v in 1..64u64 {
            let d = t.write_depth(0, v);
            let bound = 2 * (64 - (v + 1).leading_zeros()) as usize + 2;
            assert!(d <= bound, "v={v}: depth {d} > bound {bound}");
        }
    }

    #[test]
    fn large_value_depth_is_logarithmic_in_n() {
        let n = 1 << 10;
        let t = AlgorithmATree::new(n);
        let d = t.write_depth(5, u64::MAX >> 1);
        assert!(d <= 2 + (n as f64).log2().ceil() as usize);
    }

    #[test]
    fn render_mentions_both_subtrees() {
        let t = AlgorithmATree::new(4);
        let art = t.render();
        assert!(art.contains("root"));
        assert!(art.contains("TL.leaf[v=1]"));
        assert!(art.contains("TR.leaf[p3]"));
    }
}
