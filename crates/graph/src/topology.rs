//! Topology generators.
//!
//! Deterministic families (paths, cycles, stars, complete graphs, balanced
//! binary trees, grids, tori, hypercubes) plus seeded random families
//! (Erdős–Rényi, random geometric). The skew bounds of the paper are
//! worst-case over *all* connected graphs, so the experiment harness sweeps
//! several families; paths maximize the diameter for a given node count and
//! are the canonical worst-case topology in the lower-bound constructions.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Graph, NodeId};

/// A path `v_0 − v_1 − … − v_{n−1}` (diameter `n − 1`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    Graph::with_diameter(n, &edges, diameter(n.saturating_sub(1))).expect("paths are connected")
}

/// A cycle on `n ≥ 3` nodes (diameter `⌊n/2⌋`).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes, got {n}");
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::with_diameter(n, &edges, diameter(n / 2)).expect("cycles are connected")
}

/// A star: node 0 is the hub, nodes `1..n` are leaves (diameter 2 for
/// `n ≥ 3`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
    Graph::with_diameter(n, &edges, diameter(n.saturating_sub(1).min(2)))
        .expect("stars are connected")
}

/// The complete graph `K_n` (diameter 1 for `n ≥ 2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    Graph::with_diameter(n, &edges, diameter(n.saturating_sub(1).min(1)))
        .expect("complete graphs are connected")
}

/// A balanced binary tree with `n` nodes in heap layout
/// (node `i` has children `2i + 1` and `2i + 2`).
///
/// Its diameter is the root's left depth plus its right depth: the left
/// subtree is never shallower than the right one, nor more than one level
/// deeper, so no path inside a subtree is longer than one through the root.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> Graph {
    let mut edges = Vec::new();
    for i in 1..n {
        edges.push(((i - 1) / 2, i));
    }
    // The deepest level is `h`; the root's right subtree reaches it once the
    // level is more than half full, i.e. past node `2^h − 1 + 2^(h−1)`.
    let h = n.max(1).ilog2() as usize;
    let d = match h {
        0 => 0,
        _ if n > (1 << h) - 1 + (1 << (h - 1)) => 2 * h,
        _ => 2 * h - 1,
    };
    Graph::with_diameter(n, &edges, diameter(d)).expect("trees are connected")
}

/// A `width × height` 2-D grid (diameter `width + height − 2`).
///
/// Node `(x, y)` has index `y * width + x`.
///
/// # Panics
///
/// Panics if `width == 0 || height == 0`.
pub fn grid(width: usize, height: usize) -> Graph {
    assert!(width > 0 && height > 0, "grid dimensions must be positive");
    let mut edges = Vec::new();
    for y in 0..height {
        for x in 0..width {
            let i = y * width + x;
            if x + 1 < width {
                edges.push((i, i + 1));
            }
            if y + 1 < height {
                edges.push((i, i + width));
            }
        }
    }
    Graph::with_diameter(width * height, &edges, diameter(width + height - 2))
        .expect("grids are connected")
}

/// A `width × height` torus (grid with wraparound edges; diameter
/// `⌊width/2⌋ + ⌊height/2⌋`).
///
/// # Panics
///
/// Panics if `width < 3 || height < 3` (smaller wraps create parallel edges
/// or self loops).
pub fn torus(width: usize, height: usize) -> Graph {
    assert!(
        width >= 3 && height >= 3,
        "torus dimensions must be at least 3"
    );
    let mut edges = Vec::new();
    for y in 0..height {
        for x in 0..width {
            let i = y * width + x;
            edges.push((i, y * width + (x + 1) % width));
            edges.push((i, ((y + 1) % height) * width + x));
        }
    }
    Graph::with_diameter(width * height, &edges, diameter(width / 2 + height / 2))
        .expect("tori are connected")
}

/// The `dim`-dimensional hypercube on `2^dim` nodes (diameter `dim`).
///
/// # Panics
///
/// Panics if `dim == 0` or `dim >= usize::BITS as usize`.
pub fn hypercube(dim: usize) -> Graph {
    assert!(dim >= 1 && dim < usize::BITS as usize, "invalid dimension");
    let n = 1usize << dim;
    let mut edges = Vec::new();
    for v in 0..n {
        for bit in 0..dim {
            let w = v ^ (1 << bit);
            if v < w {
                edges.push((v, w));
            }
        }
    }
    Graph::with_diameter(n, &edges, diameter(dim)).expect("hypercubes are connected")
}

/// A connected Erdős–Rényi graph `G(n, p)` drawn with the given seed.
///
/// Each potential edge is included independently with probability `p`; a
/// uniformly random spanning-tree-ish backbone (each node `i ≥ 1` links to a
/// random earlier node) guarantees connectivity, so the result is always a
/// valid model graph even for small `p`.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        edges.push((parent, i));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("backbone guarantees connectivity")
}

/// A connected random geometric graph: `n` points uniform in the unit
/// square, edges between pairs within distance `radius`, plus a chain
/// backbone in point order to guarantee connectivity.
///
/// Random geometric graphs are the standard abstraction of wireless sensor
/// networks — the paper's motivating deployment (its Section 2).
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0`.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!(radius > 0.0, "radius must be positive, got {radius}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (points[a].0 + points[a].1)
            .partial_cmp(&(points[b].0 + points[b].1))
            .expect("coordinates are finite")
    });
    let mut edges = Vec::new();
    for w in order.windows(2) {
        edges.push((w[0], w[1]));
    }
    let r2 = radius * radius;
    for a in 0..n {
        for b in (a + 1)..n {
            let dx = points[a].0 - points[b].0;
            let dy = points[a].1 - points[b].1;
            if dx * dx + dy * dy <= r2 {
                edges.push((a, b));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("backbone guarantees connectivity")
}

/// A closed-form diameter as the graph stores it.
fn diameter(d: usize) -> u32 {
    u32::try_from(d).expect("diameter fits in u32")
}

/// The canonical endpoints of a path graph: `(v_0, v_{n−1})`.
pub fn path_endpoints(g: &Graph) -> (NodeId, NodeId) {
    (NodeId(0), NodeId(g.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_metrics() {
        let g = path(10);
        assert_eq!(g.len(), 10);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.diameter(), 9);
    }

    #[test]
    fn single_node_path() {
        let g = path(1);
        assert_eq!(g.len(), 1);
        assert_eq!(g.diameter(), 0);
    }

    #[test]
    fn cycle_metrics() {
        let g = cycle(8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.diameter(), 4);
        let g = cycle(7);
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn tiny_cycle_panics() {
        let _ = cycle(2);
    }

    #[test]
    fn star_metrics() {
        let g = star(6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn complete_metrics() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn binary_tree_metrics() {
        let g = binary_tree(7); // perfect tree of height 2
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.diameter(), 4); // leaf -> root -> leaf
    }

    #[test]
    fn grid_metrics() {
        let g = grid(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(g.diameter(), 5);
    }

    #[test]
    fn torus_metrics() {
        let g = torus(4, 4);
        assert_eq!(g.len(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn hypercube_metrics() {
        let g = hypercube(4);
        assert_eq!(g.len(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        let a = erdos_renyi(20, 0.1, 42);
        let b = erdos_renyi(20, 0.1, 42);
        let c = erdos_renyi(20, 0.1, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn random_geometric_is_connected_even_with_tiny_radius() {
        let g = random_geometric(30, 1e-6, 7);
        assert_eq!(g.len(), 30);
        // connectivity is validated by Graph::from_edges
    }

    #[test]
    fn path_endpoints_are_extremes() {
        let g = path(5);
        let (a, b) = path_endpoints(&g);
        assert_eq!(g.distance(a, b), 4);
    }
}
