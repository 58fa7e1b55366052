//! The ranking forest produced by DRR / Local-DRR.
//!
//! Both ranking schemes produce a set of disjoint rooted trees covering all
//! nodes: every non-root node points to a strictly higher-ranked parent, so
//! the structure is acyclic by construction; [`Forest::from_parents`]
//! nevertheless validates acyclicity so that hand-built inputs (tests,
//! adversarial cases) are caught.

use gossip_net::NodeId;
use serde::{Deserialize, Serialize};

/// Error returned when a parent assignment does not describe a forest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForestError {
    /// A cycle was found involving the given node.
    Cycle(NodeId),
    /// A parent id is out of range.
    ParentOutOfRange(NodeId),
    /// A node lists itself as its parent.
    SelfParent(NodeId),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::Cycle(v) => write!(f, "cycle detected through node {v}"),
            ForestError::ParentOutOfRange(v) => write!(f, "parent of node {v} is out of range"),
            ForestError::SelfParent(v) => write!(f, "node {v} is its own parent"),
        }
    }
}

impl std::error::Error for ForestError {}

/// Summary statistics of a forest, used throughout the experiments
/// (Theorems 2, 3 and 11 bound exactly these quantities).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ForestStats {
    /// Number of trees (= number of roots). Theorem 2: `O(n / log n)`.
    pub num_trees: usize,
    /// Size of the largest tree. Theorem 3: `O(log n)`.
    pub max_tree_size: usize,
    /// Mean tree size.
    pub mean_tree_size: f64,
    /// Height of the tallest tree (edges on the longest root-to-leaf path).
    /// Theorem 11 (Local-DRR): `O(log n)`.
    pub max_height: usize,
}

/// A forest of rooted trees over nodes `0..n`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Forest {
    parent: Vec<Option<NodeId>>,
    /// Every node's children, parent by parent, each run in increasing id
    /// order; node `v`'s run is `child_list[child_start[v]..child_start[v + 1]]`.
    child_list: Vec<NodeId>,
    child_start: Vec<u32>,
    root_of: Vec<NodeId>,
    /// Position of each node's root in `roots`.
    root_slot: Vec<u32>,
    depth: Vec<u32>,
    roots: Vec<NodeId>,
    tree_size: Vec<u32>,
    tree_height: Vec<u32>,
}

impl Forest {
    /// Build and validate a forest from a parent assignment
    /// (`None` = root).
    pub fn from_parents(parent: Vec<Option<NodeId>>) -> Result<Self, ForestError> {
        let n = parent.len();
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                if p.index() >= n {
                    return Err(ForestError::ParentOutOfRange(NodeId::new(i)));
                }
                if p.index() == i {
                    return Err(ForestError::SelfParent(NodeId::new(i)));
                }
            }
        }

        // Resolve root_of / depth with cycle detection.
        const UNVISITED: u32 = u32::MAX;
        const IN_PROGRESS: u32 = u32::MAX - 1;
        let mut depth = vec![UNVISITED; n];
        let mut root_of = vec![NodeId::new(0); n];
        let mut stack = Vec::new();
        for start in 0..n {
            if depth[start] != UNVISITED {
                continue;
            }
            let mut v = start;
            stack.clear();
            // Walk up until a resolved node or a root is found.
            loop {
                if depth[v] == IN_PROGRESS {
                    return Err(ForestError::Cycle(NodeId::new(v)));
                }
                if depth[v] != UNVISITED {
                    break;
                }
                depth[v] = IN_PROGRESS;
                stack.push(v);
                match parent[v] {
                    Some(p) => v = p.index(),
                    None => break,
                }
            }
            // `v` is either a resolved node or a root still IN_PROGRESS.
            let (mut current_depth, root) = if depth[v] == IN_PROGRESS {
                // v is a root discovered on this walk.
                (0, NodeId::new(v))
            } else {
                (depth[v], root_of[v])
            };
            while let Some(u) = stack.pop() {
                if u == v && depth[v] == IN_PROGRESS {
                    depth[u] = 0;
                    root_of[u] = root;
                    current_depth = 0;
                    continue;
                }
                current_depth += 1;
                depth[u] = current_depth;
                root_of[u] = root;
            }
        }

        // The walk above assigns depths along the discovery path; recompute
        // depths exactly from parents now that acyclicity is certain (the
        // incremental bookkeeping above can be off when a path joins an
        // already-resolved node).
        let mut exact_depth = vec![UNVISITED; n];
        let mut chain = Vec::new();
        for start in 0..n {
            if exact_depth[start] != UNVISITED {
                continue;
            }
            chain.clear();
            let mut v = start;
            while exact_depth[v] == UNVISITED {
                chain.push(v);
                match parent[v] {
                    Some(p) => v = p.index(),
                    None => {
                        exact_depth[v] = 0;
                        break;
                    }
                }
            }
            let mut d = exact_depth[v];
            for &u in chain.iter().rev() {
                if u == v {
                    continue;
                }
                d += 1;
                exact_depth[u] = d;
            }
        }
        let depth = exact_depth;

        // Children, flat: count per parent, prefix-sum into run starts, then
        // file the nodes in increasing id order.
        let mut child_start = vec![0u32; n + 1];
        for p in parent.iter().flatten() {
            child_start[p.index() + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut next = child_start.clone();
        let mut child_list = vec![NodeId::new(0); child_start[n] as usize];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_list[next[p.index()] as usize] = NodeId::new(i);
                next[p.index()] += 1;
            }
        }
        let roots: Vec<NodeId> = (0..n)
            .filter(|&i| parent[i].is_none())
            .map(NodeId::new)
            .collect();
        let mut root_slot = vec![0u32; n];
        for (slot, r) in roots.iter().enumerate() {
            root_slot[r.index()] = slot as u32;
        }
        for i in 0..n {
            root_slot[i] = root_slot[root_of[i].index()];
        }
        let mut tree_size = vec![0u32; n];
        let mut tree_height = vec![0u32; n];
        for i in 0..n {
            let r = root_of[i].index();
            tree_size[r] += 1;
            tree_height[r] = tree_height[r].max(depth[i]);
        }

        Ok(Forest {
            parent,
            child_list,
            child_start,
            root_of,
            root_slot,
            depth,
            roots,
            tree_size,
            tree_height,
        })
    }

    /// Number of nodes covered by the forest.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The parent of a node (`None` for roots).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The children of a node.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Whether a node is a root.
    #[inline]
    pub fn is_root(&self, v: NodeId) -> bool {
        self.parent[v.index()].is_none()
    }

    /// Whether a node is a leaf (no children). Roots of singleton trees are
    /// both roots and leaves.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children(v).is_empty()
    }

    /// All roots, in increasing node-id order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// The root of the tree containing `v`.
    #[inline]
    pub fn root_of(&self, v: NodeId) -> NodeId {
        self.root_of[v.index()]
    }

    /// Position in [`roots`](Forest::roots) of the root of the tree
    /// containing `v`: the index root-gossip phases keep per-root state
    /// under.
    #[inline]
    pub fn root_slot(&self, v: NodeId) -> usize {
        self.root_slot[v.index()] as usize
    }

    /// Depth of `v` below its root (0 for roots).
    #[inline]
    pub fn depth(&self, v: NodeId) -> usize {
        self.depth[v.index()] as usize
    }

    /// Size of the tree rooted at `root`.
    ///
    /// # Panics
    /// Panics if `root` is not a root.
    pub fn tree_size(&self, root: NodeId) -> usize {
        assert!(self.is_root(root), "{root} is not a root");
        self.tree_size[root.index()] as usize
    }

    /// Height (max depth) of the tree rooted at `root`.
    pub fn tree_height(&self, root: NodeId) -> usize {
        assert!(self.is_root(root), "{root} is not a root");
        self.tree_height[root.index()] as usize
    }

    /// `(root, size)` for every tree.
    pub fn tree_sizes(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.roots
            .iter()
            .map(move |&r| (r, self.tree_size[r.index()] as usize))
    }

    /// Size of the largest tree.
    pub fn max_tree_size(&self) -> usize {
        self.roots
            .iter()
            .map(|&r| self.tree_size[r.index()] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Height of the tallest tree.
    pub fn max_height(&self) -> usize {
        self.roots
            .iter()
            .map(|&r| self.tree_height[r.index()] as usize)
            .max()
            .unwrap_or(0)
    }

    /// The root whose tree is largest (ties broken towards the smaller id).
    pub fn largest_tree_root(&self) -> NodeId {
        self.roots
            .iter()
            .copied()
            .max_by_key(|r| (self.tree_size[r.index()], std::cmp::Reverse(r.index())))
            .expect("forest over at least one node has a root")
    }

    /// Per-root values, given in [`roots`](Forest::roots) order, as a
    /// per-node vector: `None` at every non-root.
    pub(crate) fn by_node<T: Clone>(
        &self,
        by_slot: impl IntoIterator<Item = Option<T>>,
    ) -> Vec<Option<T>> {
        let mut by_node = vec![None; self.n()];
        for (&root, value) in self.roots.iter().zip(by_slot) {
            by_node[root.index()] = value;
        }
        by_node
    }

    /// All members of the tree rooted at `root` (including the root), in BFS
    /// order.
    pub fn members_of(&self, root: NodeId) -> Vec<NodeId> {
        assert!(self.is_root(root), "{root} is not a root");
        let mut members = vec![root];
        let mut i = 0;
        while i < members.len() {
            let v = members[i];
            members.extend_from_slice(self.children(v));
            i += 1;
        }
        members
    }

    /// Summary statistics.
    pub fn stats(&self) -> ForestStats {
        let num_trees = self.num_trees();
        ForestStats {
            num_trees,
            max_tree_size: self.max_tree_size(),
            mean_tree_size: if num_trees == 0 {
                0.0
            } else {
                self.n() as f64 / num_trees as f64
            },
            max_height: self.max_height(),
        }
    }
}

/// A node on the active frontier of a tree phase (convergecast,
/// broadcast), with a cursor into its child list. The phases keep their
/// frontier in node-id order — hence the derived ordering — and drop a node
/// from it once it has nothing left to send, so a round costs the frontier,
/// not `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FrontierNode {
    pub(crate) node: NodeId,
    /// Children before this position are done.
    cursor: u32,
}

impl FrontierNode {
    pub(crate) fn new(node: NodeId) -> Self {
        FrontierNode { node, cursor: 0 }
    }

    /// The node's children from the first one not yet `done` on. `done`
    /// only ever gains nodes, so what the cursor has passed stays passed;
    /// a child that is merely *down* is not done (it may rejoin) and stops
    /// the cursor.
    pub(crate) fn waiting<'f>(&mut self, forest: &'f Forest, done: &[bool]) -> &'f [NodeId] {
        let children = forest.children(self.node);
        while children
            .get(self.cursor as usize)
            .is_some_and(|c| done[c.index()])
        {
            self.cursor += 1;
        }
        &children[self.cursor as usize..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: usize) -> Option<NodeId> {
        Some(NodeId::new(i))
    }

    /// 0 <- 1 <- 2, 0 <- 3 ; 4 (singleton) ; 5 <- 6
    fn sample_forest() -> Forest {
        Forest::from_parents(vec![None, p(0), p(1), p(0), None, None, p(5)]).unwrap()
    }

    #[test]
    fn structure_queries() {
        let f = sample_forest();
        assert_eq!(f.n(), 7);
        assert_eq!(f.num_trees(), 3);
        assert_eq!(f.roots(), &[NodeId::new(0), NodeId::new(4), NodeId::new(5)]);
        assert!(f.is_root(NodeId::new(0)));
        assert!(!f.is_root(NodeId::new(2)));
        assert!(f.is_leaf(NodeId::new(2)));
        assert!(f.is_leaf(NodeId::new(4)));
        assert_eq!(f.parent(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(
            f.children(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn roots_sizes_heights_depths() {
        let f = sample_forest();
        assert_eq!(f.root_of(NodeId::new(2)), NodeId::new(0));
        assert_eq!(f.root_of(NodeId::new(6)), NodeId::new(5));
        assert_eq!(f.root_of(NodeId::new(4)), NodeId::new(4));
        assert_eq!(f.depth(NodeId::new(0)), 0);
        assert_eq!(f.depth(NodeId::new(2)), 2);
        assert_eq!(f.tree_size(NodeId::new(0)), 4);
        assert_eq!(f.tree_size(NodeId::new(4)), 1);
        assert_eq!(f.tree_size(NodeId::new(5)), 2);
        assert_eq!(f.tree_height(NodeId::new(0)), 2);
        assert_eq!(f.tree_height(NodeId::new(4)), 0);
        assert_eq!(f.max_tree_size(), 4);
        assert_eq!(f.max_height(), 2);
        assert_eq!(f.largest_tree_root(), NodeId::new(0));
    }

    #[test]
    fn members_of_covers_whole_tree() {
        let f = sample_forest();
        let mut members: Vec<usize> = f
            .members_of(NodeId::new(0))
            .iter()
            .map(|v| v.index())
            .collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3]);
        assert_eq!(f.members_of(NodeId::new(4)), vec![NodeId::new(4)]);
    }

    #[test]
    fn stats_summary() {
        let s = sample_forest().stats();
        assert_eq!(s.num_trees, 3);
        assert_eq!(s.max_tree_size, 4);
        assert_eq!(s.max_height, 2);
        assert!((s.mean_tree_size - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_detected() {
        let err = Forest::from_parents(vec![p(1), p(2), p(0)]).unwrap_err();
        assert!(matches!(err, ForestError::Cycle(_)));
    }

    #[test]
    fn self_parent_detected() {
        let err = Forest::from_parents(vec![p(0)]).unwrap_err();
        assert_eq!(err, ForestError::SelfParent(NodeId::new(0)));
    }

    #[test]
    fn out_of_range_parent_detected() {
        let err = Forest::from_parents(vec![p(5), None]).unwrap_err();
        assert_eq!(err, ForestError::ParentOutOfRange(NodeId::new(0)));
    }

    #[test]
    fn two_cycle_detected() {
        let err = Forest::from_parents(vec![p(1), p(0)]).unwrap_err();
        assert!(matches!(err, ForestError::Cycle(_)));
    }

    #[test]
    fn all_roots_forest() {
        let f = Forest::from_parents(vec![None; 5]).unwrap();
        assert_eq!(f.num_trees(), 5);
        assert_eq!(f.max_tree_size(), 1);
        assert_eq!(f.max_height(), 0);
        assert!((f.stats().mean_tree_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_chain_depths() {
        // 0 <- 1 <- 2 <- ... <- 99
        let parents: Vec<Option<NodeId>> = std::iter::once(None).chain((0..99).map(p)).collect();
        let f = Forest::from_parents(parents).unwrap();
        assert_eq!(f.num_trees(), 1);
        assert_eq!(f.depth(NodeId::new(99)), 99);
        assert_eq!(f.max_height(), 99);
        assert_eq!(f.tree_size(NodeId::new(0)), 100);
    }

    proptest! {
        /// Build random "each node points to a lower index or is a root"
        /// forests — these are always acyclic — and check the invariants.
        #[test]
        fn random_valid_forests_roundtrip(n in 1usize..200, seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let parents: Vec<Option<NodeId>> = (0..n)
                .map(|i| {
                    if i == 0 || rng.gen_bool(0.2) {
                        None
                    } else {
                        Some(NodeId::new(rng.gen_range(0..i)))
                    }
                })
                .collect();
            let f = Forest::from_parents(parents.clone()).unwrap();
            // Every node's root is a root and sizes add up to n.
            let total: usize = f.tree_sizes().map(|(_, s)| s).sum();
            prop_assert_eq!(total, n);
            for i in 0..n {
                let v = NodeId::new(i);
                let r = f.root_of(v);
                prop_assert!(f.is_root(r));
                // depth is the number of parent hops to the root
                let mut hops = 0;
                let mut cur = v;
                while let Some(par) = f.parent(cur) {
                    cur = par;
                    hops += 1;
                }
                prop_assert_eq!(cur, r);
                prop_assert_eq!(hops, f.depth(v));
            }
            // children lists are consistent with parents: every child
            // names its parent, runs are in increasing id order, and
            // together they hold every non-root exactly once
            let mut listed = 0;
            for i in 0..n {
                let v = NodeId::new(i);
                for &c in f.children(v) {
                    prop_assert_eq!(f.parent(c), Some(v));
                }
                prop_assert!(f.children(v).windows(2).all(|w| w[0] < w[1]));
                listed += f.children(v).len();
                prop_assert_eq!(f.roots()[f.root_slot(v)], f.root_of(v));
            }
            prop_assert_eq!(listed, n - f.num_trees());
        }
    }
}
