//! Graph construction and metric queries.
//!
//! Every bound of the paper is a function of the diameter `D`, and every
//! run needs it before its first event, so a [`Graph`] carries `D` from the
//! moment it is built:
//!
//! * the generators in [`crate::topology`] know `D` in closed form and
//!   record it (no BFS beyond the connectivity check);
//! * [`Graph::from_edges`] — the random families and every hand-built
//!   graph — computes it with iFUB (Crescenzi et al., *On computing the
//!   diameter of real-world undirected graphs*, TCS 2013). A 4-sweep picks
//!   a central start `u` and a lower bound; then the BFS levels of `u` are
//!   scanned from the farthest in, one BFS per fringe node, until no pair
//!   left unscanned can beat the lower bound. The result is exact. On
//!   sparse graphs it costs a handful of BFS, `O(|V| + |E|)` each; in the
//!   worst case it runs about one BFS per node, as an all-pairs scan does.

use std::error::Error;
use std::fmt;

/// Index of a node in a [`Graph`].
///
/// A thin, typed wrapper around the node's position in `0..graph.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

/// Error returned when constructing an ill-formed [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The node count was zero.
    NoNodes,
    /// An edge endpoint was out of range.
    EndpointOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// The number of nodes in the graph.
        len: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop {
        /// The node with the self loop.
        node: usize,
    },
    /// The graph was not connected — the paper's model requires a connected
    /// graph (otherwise no algorithm can bound skew between components).
    Disconnected,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NoNodes => write!(f, "graph must have at least one node"),
            GraphError::EndpointOutOfRange { node, len } => {
                write!(f, "edge endpoint {node} out of range for {len} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
        }
    }
}

impl Error for GraphError {}

/// A connected, undirected, simple graph.
///
/// Construction validates connectivity (the paper's standing assumption),
/// rejects self loops, and deduplicates parallel edges. Distances are
/// hop counts computed by BFS.
///
/// The diameter `D` is fixed when the graph is built, so
/// [`Graph::diameter`] is a field read. The generators in
/// [`crate::topology`] record their closed form; [`Graph::from_edges`]
/// computes it exactly with iFUB (see the module doc), which costs a few
/// BFS on sparse graphs and at worst about one BFS per node.
///
/// # Example
///
/// ```
/// use gcs_graph::{Graph, NodeId};
///
/// // A triangle with a pendant: 0-1, 1-2, 2-0, 2-3.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])?;
/// assert_eq!(g.diameter(), 2);
/// assert_eq!(g.neighbors(NodeId(2)).len(), 3);
/// # Ok::<(), gcs_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    edge_count: usize,
    diameter: u32,
}

impl Graph {
    /// Builds a graph on `n` nodes from an edge list, and computes its
    /// diameter with iFUB.
    ///
    /// Parallel edges are deduplicated; edge direction is ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if `n == 0`, an endpoint is out of range, an
    /// edge is a self loop, or the resulting graph is disconnected.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        Self::build(n, edges, None)
    }

    /// Builds a generated topology whose diameter `D` is known in closed
    /// form. The generator's own tests check `D` against all-pairs BFS.
    pub(crate) fn with_diameter(
        n: usize,
        edges: &[(usize, usize)],
        diameter: u32,
    ) -> Result<Self, GraphError> {
        Self::build(n, edges, Some(diameter))
    }

    fn build(
        n: usize,
        edges: &[(usize, usize)],
        diameter: Option<u32>,
    ) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::NoNodes);
        }
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(GraphError::EndpointOutOfRange { node: a, len: n });
            }
            if b >= n {
                return Err(GraphError::EndpointOutOfRange { node: b, len: n });
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            adjacency[a].push(NodeId(b));
            adjacency[b].push(NodeId(a));
        }
        // Drop parallel edges, keeping each neighbour where it first
        // appeared: `seen[w] == v` once `w` is in `v`'s list.
        let mut seen = vec![usize::MAX; n];
        for (v, nbrs) in adjacency.iter_mut().enumerate() {
            nbrs.retain(|w| std::mem::replace(&mut seen[w.0], v) != v);
        }
        let edge_count = adjacency.iter().map(Vec::len).sum::<usize>() / 2;
        let mut graph = Graph {
            adjacency,
            edge_count,
            diameter: 0,
        };
        let mut bfs = Bfs::new(n);
        bfs.run(&graph, NodeId(0));
        if bfs.order.len() < n {
            return Err(GraphError::Disconnected);
        }
        graph.diameter = match diameter {
            Some(d) => d,
            None => graph.ifub(bfs),
        };
        Ok(graph)
    }

    /// Number of nodes `|V|`.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph has no nodes (never true for a constructed graph).
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Number of (undirected) edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId)
    }

    /// Iterator over all undirected edges as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(a, nbrs)| {
            nbrs.iter()
                .filter(move |&&NodeId(b)| a < b)
                .map(move |&b| (NodeId(a), b))
        })
    }

    /// The neighbours `N_v` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[v.0]
    }

    /// The maximum node degree Δ.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// BFS distances (hop counts) from `source` to every node.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn distances_from(&self, source: NodeId) -> Vec<u32> {
        let mut bfs = Bfs::new(self.len());
        bfs.run(self, source);
        bfs.dist
    }

    /// Hop distance `d(u, v)`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        self.distances_from(u)[v.0]
    }

    /// All-pairs distances, `result[u][v] = d(u, v)`. Costs `O(|V|·|E|)`.
    pub fn all_pairs_distances(&self) -> Vec<Vec<u32>> {
        self.nodes().map(|v| self.distances_from(v)).collect()
    }

    /// Eccentricity of `v`: the distance to the farthest node.
    pub fn eccentricity(&self, v: NodeId) -> u32 {
        Bfs::new(self.len()).run(self, v)
    }

    /// The diameter `D` of the graph, fixed when it was built.
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// One pair of nodes realizing the diameter: the lowest-index node of
    /// eccentricity `D`, and the highest-index node at distance `D` from
    /// it. Costs one BFS per node up to the first one of eccentricity `D`.
    pub fn diameter_endpoints(&self) -> (NodeId, NodeId) {
        let mut bfs = Bfs::new(self.len());
        for v in self.nodes() {
            if bfs.run(self, v) == self.diameter {
                let far = bfs.dist.iter().rposition(|&d| d == self.diameter);
                return (v, NodeId(far.expect("v is at distance D from something")));
            }
        }
        unreachable!("some node has eccentricity D")
    }

    /// A shortest path from `u` to `v`, inclusive of both endpoints.
    ///
    /// The lower-bound constructions (paper Section 7) repeatedly select
    /// sub-segments of shortest paths between high-skew pairs.
    pub fn shortest_path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        // BFS from v so we can walk from u downhill to v.
        let dist = self.distances_from(v);
        assert!(dist[u.0] != u32::MAX, "graph is connected by construction");
        let mut path = vec![u];
        let mut current = u;
        while current != v {
            let next = self.downhill(&dist, current);
            path.push(next);
            current = next;
        }
        path
    }

    /// The first neighbour of `v` one hop closer to the BFS source of `dist`.
    fn downhill(&self, dist: &[u32], v: NodeId) -> NodeId {
        self.adjacency[v.0]
            .iter()
            .copied()
            .find(|w| dist[w.0] + 1 == dist[v.0])
            .expect("a BFS-downhill neighbour always exists")
    }

    /// The exact diameter by iFUB, given a finished BFS from any node.
    ///
    /// A 4-sweep picks the start: two double sweeps, each from the middle
    /// of the previous sweep's longest path, give a lower bound and a
    /// central node `u`. Then the fringe levels of the BFS from `u` are
    /// scanned from the outside in. Once every node at levels `≥ i` has its
    /// eccentricity in the lower bound, any other pair lies within level
    /// `i − 1` on both ends and so is at most `2(i − 1)` apart; the scan
    /// stops when the lower bound reaches that.
    fn ifub(&self, mut bfs: Bfs) -> u32 {
        let mut lower = 0;
        for _ in 0..2 {
            let far = *bfs.order.last().expect("BFS reaches its source");
            lower = lower.max(bfs.run(self, far));
            let middle = bfs.midpoint(self);
            bfs.run(self, middle);
        }
        let Bfs { dist, order } = bfs;
        let mut scratch = Bfs::new(self.len());
        let mut level = dist[order[order.len() - 1].0];
        lower = lower.max(level);
        let mut end = order.len();
        while lower < 2 * level {
            let fringe = order[..end].partition_point(|v| dist[v.0] < level);
            for &v in &order[fringe..end] {
                lower = lower.max(scratch.run(self, v));
            }
            end = fringe;
            level -= 1;
        }
        lower
    }
}

/// BFS buffers, reused across runs: the distance of every node from the
/// source, and the nodes in the order BFS reached them. `order` is sorted
/// by distance, so each level of the BFS is one run of it.
struct Bfs {
    dist: Vec<u32>,
    order: Vec<NodeId>,
}

impl Bfs {
    fn new(n: usize) -> Self {
        Bfs {
            dist: vec![u32::MAX; n],
            order: Vec::with_capacity(n),
        }
    }

    /// Runs a BFS from `source` and returns its eccentricity (within the
    /// source's component).
    fn run(&mut self, graph: &Graph, source: NodeId) -> u32 {
        self.dist.fill(u32::MAX);
        self.order.clear();
        self.dist[source.0] = 0;
        self.order.push(source);
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            let du = self.dist[u.0];
            for &w in &graph.adjacency[u.0] {
                if self.dist[w.0] == u32::MAX {
                    self.dist[w.0] = du + 1;
                    self.order.push(w);
                }
            }
        }
        self.dist[self.order[self.order.len() - 1].0]
    }

    /// The node halfway along a shortest path from the last BFS's source
    /// to the farthest node it reached.
    fn midpoint(&self, graph: &Graph) -> NodeId {
        let mut v = *self.order.last().expect("BFS reaches its source");
        let half = self.dist[v.0] / 2;
        while self.dist[v.0] > half {
            v = graph.downhill(&self.dist, v);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::NoNodes));
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let err = Graph::from_edges(2, &[(0, 2)]).unwrap_err();
        assert_eq!(err, GraphError::EndpointOutOfRange { node: 2, len: 2 });
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, &[(0, 0), (0, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 0 });
    }

    #[test]
    fn rejects_disconnected() {
        let err = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap_err();
        assert_eq!(err, GraphError::Disconnected);
    }

    #[test]
    fn singleton_graph_is_connected() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.diameter(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn deduplicates_parallel_edges() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
    }

    #[test]
    fn distances_on_a_path() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(g.distances_from(NodeId(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.distance(NodeId(1), NodeId(4)), 3);
        assert_eq!(g.diameter(), 4);
        assert_eq!(g.eccentricity(NodeId(2)), 2);
    }

    #[test]
    fn diameter_endpoints_realize_diameter() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]).unwrap();
        let (a, b) = g.diameter_endpoints();
        assert_eq!(g.distance(a, b), g.diameter());
    }

    #[test]
    fn shortest_path_is_shortest_and_valid() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]).unwrap();
        let p = g.shortest_path(NodeId(0), NodeId(3));
        assert_eq!(p.len() as u32, g.distance(NodeId(0), NodeId(3)) + 1);
        assert_eq!(*p.first().unwrap(), NodeId(0));
        assert_eq!(*p.last().unwrap(), NodeId(3));
        for w in p.windows(2) {
            assert!(g.neighbors(w[0]).contains(&w[1]));
        }
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn max_degree_of_star() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let d = g.all_pairs_distances();
        for (u, row) in d.iter().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                assert_eq!(duv, d[v][u]);
            }
        }
    }

    #[test]
    fn node_id_display_and_conversion() {
        let v: NodeId = 7.into();
        assert_eq!(v.index(), 7);
        assert_eq!(format!("{v}"), "v7");
    }
}
