//! Tree shapes: node arenas, complete binary trees, and Algorithm A's
//! combined tree (Figure 4 of the paper).
//!
//! A [`TreeShape`] is a static arena of nodes with parent/child links.
//! Both the real-atomics and the simulator implementations of the tree
//! algorithms (Algorithm A's max register, the f-array counter) share
//! these shapes; only where each face keeps a node differs: a simulator
//! face gives node `i` cell `i`, a real face packs each height-3 block of
//! the tree onto one cache line.
//!
//! A static tree's leaf-to-root paths never change, so one [`PathTable`]
//! holds them all, in the face's cells, end to end in one allocation. One
//! top-down walk places every node and emits the paths, so building a
//! tree takes the same few allocations at any size, and no access ever
//! looks a node's cell up.

use std::fmt;
use std::iter::successors;

use crate::b1tree;
use crate::cells::BLOCK;

/// Index of a node inside a [`TreeShape`].
pub type NodeIdx = usize;

/// Sentinel in a [`PathNode`] for a missing child.
pub const NO_CHILD: u32 = u32::MAX;

/// Levels per block of [`Placement::Blocked`]: a block's `2³ − 1` nodes
/// fill all but one word of a [`BLOCK`]-word line.
const BLOCK_HEIGHT: usize = 3;
const _: () = assert!(1 << BLOCK_HEIGHT == BLOCK);

/// Deepest leaf a [`PathTable`] places: a B1 subtree of fewer than 2³²
/// leaves under Algorithm A's root stays within it.
const MAX_DEPTH: usize = 64;

/// Where a face keeps a tree's nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Node `i` in cell `i`: the simulator faces, whose events and
    /// traces name nodes.
    Nodes,
    /// The tree cut from the root into height-3 blocks, a block root at
    /// every depth divisible by 3, each block on one line of a real
    /// [`Blocks`](crate::cells::Blocks) table: the real faces. A block
    /// root takes word 0 of the next free entry; below it a node at word
    /// `w` has its children at words `2w + 1` (left) and `2w + 2`
    /// (right). Every climb that writes a node of a block goes on
    /// through the block's root, so sharing a line adds no writer to it.
    Blocked,
}

/// One precomputed step of a leaf-to-root propagation path: an ancestor
/// and both its children, in the cells of the face the path was placed
/// for, so the propagation loops follow a flat slice of a [`PathTable`]
/// instead of chasing parent links.
///
/// Cells are `u32` to keep a step at 12 bytes; [`NO_CHILD`] marks an
/// absent child. Tree arenas are bounded far below `u32::MAX` nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathNode {
    /// The ancestor to CAS.
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

/// A tree placed in one face's cells: the root's cell, how many cells
/// the face needs, and every leaf's propagation path end to end in one
/// allocation, keyed by the leaf's rank from the left.
#[derive(Clone, Debug)]
pub struct PathTable {
    /// Sized to the sum of the leaf depths.
    steps: Vec<PathNode>,
    /// `steps[starts[k]..starts[k + 1]]` is leaf `k`'s path.
    starts: Vec<u32>,
    root: usize,
    cells: usize,
}

impl PathTable {
    /// Places the tree below `root` and emits its paths in one top-down
    /// walk, which derives each node's cell from its parent's cell, depth
    /// and side. `leaves` are the tree's leaves from the left; each is
    /// overwritten with its cell.
    pub(crate) fn new<'a>(
        shape: &TreeShape,
        root: NodeIdx,
        placement: Placement,
        leaves: impl IntoIterator<Item = &'a mut usize>,
    ) -> Self {
        let (count, len) = leaf_depths(shape, root, 0);
        let cells = match placement {
            Placement::Nodes => shape.len(),
            // At most one entry per node.
            Placement::Blocked => BLOCK * shape.len(),
        };
        assert!(
            cells.max(len) < NO_CHILD as usize,
            "tree too large for u32 cells"
        );
        let mut walk = Walk {
            shape,
            placement,
            leaves: leaves.into_iter(),
            above: [PathNode {
                node: NO_CHILD,
                left: NO_CHILD,
                right: NO_CHILD,
            }; MAX_DEPTH],
            steps: Vec::with_capacity(len),
            starts: Vec::with_capacity(count + 1),
            blocks: 1,
        };
        walk.starts.push(0);
        let root_cell = match placement {
            Placement::Nodes => root,
            Placement::Blocked => 0,
        };
        walk.visit(root, root_cell as u32, 0);
        assert!(
            walk.leaves.next().is_none(),
            "more leaves than the tree has"
        );
        PathTable {
            cells: match placement {
                Placement::Nodes => shape.len(),
                Placement::Blocked => walk.blocks * BLOCK,
            },
            steps: walk.steps,
            starts: walk.starts,
            root: root_cell,
        }
    }

    /// Leaf `k`'s path: bottom-up, ending at the root.
    #[inline]
    pub fn path(&self, k: usize) -> &[PathNode] {
        &self.steps[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// The root's cell.
    #[inline]
    pub(crate) fn root(&self) -> usize {
        self.root
    }

    /// How many cells the placement spans.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }
}

/// The number of leaves below `node`, at `depth`, and the sum of their
/// depths: the size of their paths.
fn leaf_depths(shape: &TreeShape, node: NodeIdx, depth: usize) -> (usize, usize) {
    let info = shape.node(node);
    if info.is_leaf() {
        return (1, depth);
    }
    [info.left, info.right]
        .into_iter()
        .flatten()
        .map(|c| leaf_depths(shape, c, depth + 1))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
}

/// [`PathTable::new`]'s walk: `above[d]` is the ancestor at depth `d` of
/// the node being visited.
struct Walk<'s, I> {
    shape: &'s TreeShape,
    placement: Placement,
    leaves: I,
    above: [PathNode; MAX_DEPTH],
    steps: Vec<PathNode>,
    starts: Vec<u32>,
    /// Entries of a blocked table taken so far; the root's is entry 0.
    blocks: usize,
}

impl<'a, I: Iterator<Item = &'a mut usize>> Walk<'_, I> {
    fn visit(&mut self, node: NodeIdx, cell: u32, depth: usize) {
        let info = *self.shape.node(node);
        if info.is_leaf() {
            *self.leaves.next().expect("fewer leaves than the tree has") = cell as usize;
            self.steps.extend(self.above[..depth].iter().rev());
            self.starts.push(self.steps.len() as u32);
            return;
        }
        assert!(depth < MAX_DEPTH, "tree deeper than {MAX_DEPTH} levels");
        let left = info.left.map(|c| (c, self.place(c, cell, depth + 1, 0)));
        let right = info.right.map(|c| (c, self.place(c, cell, depth + 1, 1)));
        let link = |child: Option<(NodeIdx, u32)>| child.map_or(NO_CHILD, |(_, cell)| cell);
        self.above[depth] = PathNode {
            node: cell,
            left: link(left),
            right: link(right),
        };
        for (child, cell) in [left, right].into_iter().flatten() {
            self.visit(child, cell, depth + 1);
        }
    }

    /// The cell of `child`, at `depth` on `side` (0 left, 1 right) of the
    /// node in `parent`.
    fn place(&mut self, child: NodeIdx, parent: u32, depth: usize, side: u32) -> u32 {
        match self.placement {
            Placement::Nodes => child as u32,
            Placement::Blocked if depth.is_multiple_of(BLOCK_HEIGHT) => {
                let cell = self.blocks * BLOCK;
                self.blocks += 1;
                cell as u32
            }
            // The parent sits at word `w` of its entry; the child takes
            // word `2w + 1 + side` of the same entry.
            Placement::Blocked => parent + parent % BLOCK as u32 + 1 + side,
        }
    }
}

/// A leaf of a placed tree: its cell, and its rank among the leaves from
/// the left, which keys its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// The leaf's cell in the face it was placed for.
    pub cell: usize,
    rank: usize,
}

/// Algorithm A's leaves and their propagation paths, placed in one
/// face's cells: what a face needs of the tree to run its operations.
#[derive(Clone, Debug)]
pub(crate) struct TreeLeaves {
    n: usize,
    /// `value_leaves[v - 1]` is the cell of the leaf for value `v`
    /// (values `1..N`).
    value_leaves: Vec<usize>,
    /// `process_leaves[i]` is the cell of the leaf owned by process `i`.
    process_leaves: Vec<usize>,
    /// The paths of the value leaves, then of the process leaves: the
    /// tree's leaves from the left.
    paths: PathTable,
}

impl TreeLeaves {
    /// Number of processes sharing the register.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The root's cell.
    #[inline]
    pub fn root(&self) -> usize {
        self.paths.root()
    }

    /// How many cells the placement spans.
    pub fn cells(&self) -> usize {
        self.paths.cells()
    }

    /// The leaf a `WriteMax(v)` by process `pid` starts from: the value
    /// leaf for `v` if `1 ≤ v < N`, else the process leaf of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` (a `WriteMax(0)` is a semantic no-op and never
    /// reaches leaf selection) or `pid ≥ N`.
    #[inline]
    pub fn leaf_for(&self, pid: usize, v: u64) -> Leaf {
        assert!(v >= 1, "WriteMax(0) never selects a leaf");
        assert!(pid < self.n, "process {pid} out of range (N = {})", self.n);
        if (v as u128) < self.n as u128 {
            let rank = (v - 1) as usize;
            Leaf {
                cell: self.value_leaves[rank],
                rank,
            }
        } else {
            Leaf {
                cell: self.process_leaves[pid],
                rank: self.n - 1 + pid,
            }
        }
    }

    /// The precomputed propagation path of `leaf`: its ancestors
    /// bottom-up, with their children.
    #[inline]
    pub fn path_for(&self, leaf: Leaf) -> &[PathNode] {
        self.paths.path(leaf.rank)
    }
}

/// Algorithm A's combined tree for `N` processes (Figure 4): the root's
/// left subtree is a B1 tree with `N − 1` value leaves (leaf for value
/// `v` at depth `O(log v)`), its right subtree a complete binary tree
/// with `N` per-process leaves. Its cells are its nodes: the simulator
/// face runs on it, and the real face keeps the same tree blocked.
#[derive(Clone)]
pub struct AlgorithmATree {
    shape: TreeShape,
    leaves: TreeLeaves,
}

impl fmt::Debug for AlgorithmATree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmATree")
            .field("n", &self.n())
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
        Self::build(n, Placement::Nodes)
    }

    /// The tree for `n ≥ 1` processes placed in blocked cells
    /// ([`Placement::Blocked`]): its leaves and paths, without the node
    /// arena, which the real face never reads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn blocked(n: usize) -> TreeLeaves {
        Self::build(n, Placement::Blocked).leaves
    }

    fn build(n: usize, placement: Placement) -> Self {
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
        let paths = PathTable::new(
            &shape,
            root,
            placement,
            value_leaves.iter_mut().chain(&mut process_leaves),
        );
        AlgorithmATree {
            shape,
            leaves: TreeLeaves {
                n,
                value_leaves,
                process_leaves,
                paths,
            },
        }
    }

    /// Number of processes sharing the register.
    pub fn n(&self) -> usize {
        self.leaves.n()
    }

    /// The underlying shape (node arena).
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The root node (holding the register's value).
    pub fn root(&self) -> NodeIdx {
        self.leaves.root()
    }

    /// The leaf a `WriteMax(v)` by process `pid` starts from: the value
    /// leaf for `v` if `1 ≤ v < N`, else the process leaf of `pid`. Its
    /// cell is its node.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` or `pid ≥ N`.
    pub fn leaf_for(&self, pid: usize, v: u64) -> Leaf {
        self.leaves.leaf_for(pid, v)
    }

    /// The precomputed propagation path (bottom-up ancestors with their
    /// children) of `leaf`.
    #[inline]
    pub fn path_for(&self, leaf: Leaf) -> &[PathNode] {
        self.leaves.path_for(leaf)
    }

    /// Depth of the leaf used by `WriteMax(v)` from `pid` (its path's
    /// length) — proportional to the operation's step count.
    pub fn write_depth(&self, pid: usize, v: u64) -> usize {
        self.path_for(self.leaf_for(pid, v)).len()
    }

    /// Renders the tree as ASCII art (used to regenerate Figure 4).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.label(self.root())));
        let node = self.shape.node(self.root());
        let children: Vec<NodeIdx> = [node.left, node.right].into_iter().flatten().collect();
        for (i, c) in children.iter().enumerate() {
            self.render_node(*c, "", i + 1 == children.len(), &mut out);
        }
        out
    }

    fn label(&self, idx: NodeIdx) -> String {
        if idx == self.root() {
            return "root".to_string();
        }
        if let Some(v) = self.leaves.value_leaves.iter().position(|&l| l == idx) {
            return format!("TL.leaf[v={}]", v + 1);
        }
        if let Some(p) = self.leaves.process_leaves.iter().position(|&l| l == idx) {
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

    /// Algorithm A's leaves from the left: value leaves, then process
    /// leaves.
    fn a_leaves(t: &TreeLeaves) -> Vec<usize> {
        t.value_leaves
            .iter()
            .chain(&t.process_leaves)
            .copied()
            .collect()
    }

    /// Checks a node-placed `table` against `shape`'s parent links: leaf
    /// `k`'s path is `leaves[k]`'s ancestors node for node with their
    /// child links, and the table holds exactly the leaf depths.
    fn check_table(shape: &TreeShape, root: NodeIdx, table: &PathTable, leaves: &[NodeIdx]) {
        assert_eq!(table.root(), root);
        assert_eq!(table.cells(), shape.len());
        assert_eq!(table.starts.len(), leaves.len() + 1);
        let mut depths = 0;
        for (k, &leaf) in leaves.iter().enumerate() {
            assert!(shape.node(leaf).is_leaf(), "{leaf} is no leaf");
            let path = table.path(k);
            let ancestors = shape.ancestors(leaf);
            assert_eq!(path.len(), ancestors.len(), "leaf {leaf}");
            for (step, &a) in path.iter().zip(&ancestors) {
                let info = shape.node(a);
                let link = |c: Option<NodeIdx>| c.map_or(NO_CHILD, |i| i as u32);
                let want = PathNode {
                    node: a as u32,
                    left: link(info.left),
                    right: link(info.right),
                };
                assert_eq!(*step, want, "leaf {leaf}");
            }
            depths += path.len();
        }
        assert_eq!(table.steps.len(), depths);
    }

    /// Checks a blocked placement (`slots`: leaf cells and table) against
    /// the node placement of the same tree (`nodes`). Each node's slot is
    /// read off the two placements of every leaf and path, and a node
    /// given two slots fails. Then: every slot is unique and inside the
    /// table; block roots, at word 0 of their entry, are exactly the
    /// nodes at depths divisible by 3; two nodes share an entry exactly
    /// when they share a block root; the root's entry holds its children
    /// and grandchildren; and each blocked path, mapped back to nodes, is
    /// the node path.
    fn check_blocked(
        shape: &TreeShape,
        root: NodeIdx,
        nodes: (&[usize], &PathTable),
        slots: (&[usize], &PathTable),
    ) {
        let mut slot_of = vec![None; shape.len()];
        let mut bind = |node: u32, slot: u32| {
            if node == NO_CHILD {
                assert_eq!(slot, NO_CHILD, "a missing child has a slot");
                return;
            }
            let old = slot_of[node as usize].replace(slot as usize);
            assert!(
                old.is_none_or(|o| o == slot as usize),
                "node {node} in two slots"
            );
        };
        for (k, (&leaf, &cell)) in nodes.0.iter().zip(slots.0).enumerate() {
            bind(leaf as u32, cell as u32);
            let (sim, real) = (nodes.1.path(k), slots.1.path(k));
            assert_eq!(sim.len(), real.len(), "leaf {leaf}");
            for (s, r) in sim.iter().zip(real) {
                bind(s.node, r.node);
                bind(s.left, r.left);
                bind(s.right, r.right);
            }
        }
        let slot_of: Vec<usize> = slot_of
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("node {i} unplaced")))
            .collect();
        let table = slots.1;
        assert_eq!(table.root(), slot_of[root]);
        let mut node_of = vec![None; table.cells()];
        let entries = table.cells() / BLOCK;
        let (mut root_of_entry, mut entry_of_root) = (vec![None; entries], vec![None; shape.len()]);
        for (node, &slot) in slot_of.iter().enumerate() {
            assert!(
                slot < table.cells(),
                "node {node}: slot {slot} outside the table"
            );
            assert!(
                node_of[slot].replace(node).is_none(),
                "two nodes in slot {slot}"
            );
            let ancestors = shape.ancestors(node);
            let depth = ancestors.len();
            assert_eq!(
                slot % BLOCK == 0,
                depth.is_multiple_of(BLOCK_HEIGHT),
                "node {node} at depth {depth}: slot {slot}"
            );
            let block_root = match depth % BLOCK_HEIGHT {
                0 => node,
                up => ancestors[up - 1],
            };
            let entry = slot / BLOCK;
            let r = *root_of_entry[entry].get_or_insert(block_root);
            assert_eq!(r, block_root, "entry {entry} holds two blocks");
            let e = *entry_of_root[block_root].get_or_insert(entry);
            assert_eq!(e, entry, "block of {block_root} in two entries");
        }
        assert!(root_of_entry.iter().all(Option::is_some), "an unused entry");
        // The root's entry: the root at word 0, each child at word
        // 1 + side, each grandchild at word 2w + 1 + side.
        assert_eq!(slot_of[root] % BLOCK, 0);
        let below = |node: NodeIdx| {
            let info = shape.node(node);
            [(info.left, 0), (info.right, 1)]
                .into_iter()
                .filter_map(|(c, side)| c.map(|c| (c, side)))
        };
        for (child, side) in below(root) {
            assert_eq!(slot_of[child], slot_of[root] + 1 + side);
            for (grandchild, s) in below(child) {
                assert_eq!(slot_of[grandchild], slot_of[root] + 2 * (1 + side) + 1 + s);
            }
        }
        let back = |cell: u32| match cell {
            NO_CHILD => NO_CHILD,
            c => node_of[c as usize].expect("a path names an empty slot") as u32,
        };
        for k in 0..nodes.0.len() {
            let mapped: Vec<PathNode> = slots
                .1
                .path(k)
                .iter()
                .map(|r| PathNode {
                    node: back(r.node),
                    left: back(r.left),
                    right: back(r.right),
                })
                .collect();
            assert_eq!(mapped, nodes.1.path(k), "leaf {k}");
        }
    }

    #[test]
    fn path_tables_match_ancestors() {
        for k in 1..=130 {
            let (shape, root, mut leaves) = complete(k);
            assert_eq!(shape.len(), 2 * k - 1, "k={k}");
            let mut in_order = Vec::new();
            leaves_in_order(&shape, root, &mut in_order);
            assert_eq!(leaves, in_order, "k={k}");
            let table = PathTable::new(&shape, root, Placement::Nodes, &mut leaves);
            assert_eq!(leaves, in_order, "k={k}: node cells are nodes");
            check_table(&shape, root, &table, &leaves);
        }
        for n in 1..=130 {
            let t = AlgorithmATree::new(n);
            assert_eq!(t.shape.len(), (4 * n - 3).max(2), "n={n}");
            let mut in_order = Vec::new();
            leaves_in_order(&t.shape, t.root(), &mut in_order);
            let leaves = a_leaves(&t.leaves);
            assert_eq!(leaves, in_order, "n={n}: B1 leaves, then TR leaves");
            check_table(&t.shape, t.root(), &t.leaves.paths, &leaves);
        }
    }

    #[test]
    fn blocked_placement_packs_each_block_on_one_line() {
        for k in 1..=130 {
            let (shape, root, leaves) = complete(k);
            let place = |placement| {
                let mut cells = leaves.clone();
                let table = PathTable::new(&shape, root, placement, &mut cells);
                (cells, table)
            };
            let ((nodes, by_node), (slots, by_slot)) =
                (place(Placement::Nodes), place(Placement::Blocked));
            check_blocked(&shape, root, (&nodes, &by_node), (&slots, &by_slot));
        }
        for n in 1..=130 {
            let (t, b) = (AlgorithmATree::new(n), AlgorithmATree::blocked(n));
            assert_eq!(b.n(), n);
            let (nodes, slots) = (a_leaves(&t.leaves), a_leaves(&b));
            check_blocked(
                &t.shape,
                t.root(),
                (&nodes, &t.leaves.paths),
                (&slots, &b.paths),
            );
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
        for (pid, v) in (1..6).map(|v| (0, v)).chain((0..6).map(|p| (p, 6))) {
            let leaf = t.leaf_for(pid, v);
            let path = t.path_for(leaf);
            assert!(!path.is_empty());
            assert_eq!(path.last().unwrap().node as usize, t.root());
            assert_eq!(path.len(), t.shape.ancestors(leaf.cell).len());
        }
    }

    #[test]
    fn figure_4_structure_for_n_4() {
        // The paper's Figure 4: N = 4, TL is a B1 tree with 3 leaves,
        // TR a complete binary tree with 4 leaves.
        let t = AlgorithmATree::new(4);
        assert_eq!(t.leaves.value_leaves.len(), 3);
        assert_eq!(t.leaves.process_leaves.len(), 4);
        // All 4 process leaves at equal depth in the complete subtree.
        let depths: Vec<usize> = t
            .leaves
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
        assert!(t.leaves.value_leaves.is_empty());
        assert_eq!(t.leaves.process_leaves.len(), 1);
        // Any value goes to the single process leaf.
        assert_eq!(t.leaf_for(0, 1).cell, t.leaves.process_leaves[0]);
        assert_eq!(t.leaf_for(0, 1 << 40).cell, t.leaves.process_leaves[0]);
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
