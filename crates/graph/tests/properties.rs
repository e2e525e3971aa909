//! Property-based tests for the graph substrate.

use gcs_graph::{topology, Graph, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The diameter by definition: the largest all-pairs BFS distance.
fn bfs_diameter(g: &Graph) -> u32 {
    g.all_pairs_distances()
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap()
}

/// `diameter_endpoints` as it was first written, one BFS per node: the
/// first node of largest eccentricity, and the last node farthest from it.
fn reference_endpoints(g: &Graph) -> (NodeId, NodeId) {
    let mut best = (NodeId(0), NodeId(0), 0);
    for v in g.nodes() {
        let dist = g.distances_from(v);
        if let Some((idx, &d)) = dist.iter().enumerate().max_by_key(|&(_, &d)| d) {
            if d > best.2 {
                best = (v, NodeId(idx), d);
            }
        }
    }
    (best.0, best.1)
}

/// A connected graph on `n` nodes under shuffled labels: a random tree
/// (each node links to a random earlier one) plus `extra` random edges.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.gen_range(0..=i));
    }
    let mut edges: Vec<(usize, usize)> = (1..n)
        .map(|i| (label[rng.gen_range(0..i)], label[i]))
        .collect();
    for _ in 0..extra {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            edges.push((a, b));
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

fn assert_exact(name: &str, g: &Graph) {
    assert_eq!(g.diameter(), bfs_diameter(g), "{name}: diameter");
    assert_eq!(
        g.diameter_endpoints(),
        reference_endpoints(g),
        "{name}: diameter endpoints"
    );
}

#[test]
fn generators_record_the_bfs_diameter() {
    for n in 1..=40 {
        assert_exact(&format!("path:{n}"), &topology::path(n));
        assert_exact(&format!("star:{n}"), &topology::star(n));
    }
    for n in 3..=40 {
        assert_exact(&format!("ring:{n}"), &topology::cycle(n));
    }
    for n in 1..=12 {
        assert_exact(&format!("complete:{n}"), &topology::complete(n));
    }
    for n in 1..=64 {
        assert_exact(&format!("tree:{n}"), &topology::binary_tree(n));
    }
    for w in 1..=9 {
        for h in 1..=9 {
            assert_exact(&format!("grid:{w}x{h}"), &topology::grid(w, h));
        }
    }
    for w in 3..=8 {
        for h in 3..=8 {
            assert_exact(&format!("torus:{w}x{h}"), &topology::torus(w, h));
        }
    }
    for dim in 1..=8 {
        assert_exact(&format!("hypercube:{dim}"), &topology::hypercube(dim));
    }
}

#[test]
fn ifub_matches_bfs_on_seeded_random_families() {
    for seed in 0..200 {
        for (n, p) in [
            (1, 0.2),
            (2, 0.0),
            (17, 0.0),
            (30, 0.05),
            (60, 0.03),
            (45, 0.3),
        ] {
            assert_exact(
                &format!("er:{n}:{p} seed {seed}"),
                &topology::erdos_renyi(n, p, seed),
            );
        }
        for (n, r) in [(1, 0.2), (25, 0.05), (50, 0.15), (80, 0.3)] {
            assert_exact(
                &format!("geo:{n}:{r} seed {seed}"),
                &topology::random_geometric(n, r, seed),
            );
        }
    }
}

proptest! {
    #[test]
    fn ifub_matches_bfs_on_random_trees(n in 1usize..80, seed in 0u64..1_000_000) {
        let g = random_connected(n, 0, seed);
        prop_assert_eq!(g.diameter(), bfs_diameter(&g));
        prop_assert_eq!(g.diameter_endpoints(), reference_endpoints(&g));
    }

    #[test]
    fn parallel_edges_keep_first_appearance_order(n in 2usize..20, extra in 0usize..60,
                                                  seed in 0u64..1_000_000) {
        // A random tree plus random extra edges, then every edge again
        // reversed and shuffled in among them: many parallel edges.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
        for _ in 0..extra {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                edges.push((a, b));
            }
        }
        for k in 0..edges.len() {
            let (a, b) = edges[k];
            let at = rng.gen_range(0..=edges.len());
            edges.insert(at, (b, a));
        }
        let mut expected: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            if !expected[a].contains(&NodeId(b)) {
                expected[a].push(NodeId(b));
                expected[b].push(NodeId(a));
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        for v in g.nodes() {
            prop_assert_eq!(g.neighbors(v), &expected[v.index()][..]);
        }
    }

    #[test]
    fn ifub_matches_bfs_on_random_connected_graphs(n in 2usize..80, extra in 0usize..40,
                                                   seed in 0u64..1_000_000) {
        let g = random_connected(n, extra, seed);
        prop_assert_eq!(g.diameter(), bfs_diameter(&g));
        prop_assert_eq!(g.diameter_endpoints(), reference_endpoints(&g));
    }

    #[test]
    fn generated_random_graphs_are_valid(n in 1usize..40, p in 0.0f64..0.3, seed in 0u64..1000) {
        let g = topology::erdos_renyi(n, p, seed);
        prop_assert_eq!(g.len(), n);
        // BFS reaches every node (connectivity was validated at build time).
        let d = g.distances_from(NodeId(0));
        prop_assert!(d.iter().all(|&x| x != u32::MAX));
    }

    #[test]
    fn triangle_inequality_holds(n in 2usize..25, p in 0.05f64..0.4, seed in 0u64..200) {
        let g = topology::erdos_renyi(n, p, seed);
        let d = g.all_pairs_distances();
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    prop_assert!(d[u][w] <= d[u][v] + d[v][w]);
                }
            }
        }
    }

    #[test]
    fn distance_is_a_metric(n in 2usize..30, p in 0.05f64..0.4, seed in 0u64..200) {
        let g = topology::erdos_renyi(n, p, seed);
        let d = g.all_pairs_distances();
        for (u, row) in d.iter().enumerate() {
            prop_assert_eq!(row[u], 0);
            for (v, &duv) in row.iter().enumerate() {
                prop_assert_eq!(duv, d[v][u]);
                if u != v {
                    prop_assert!(duv >= 1);
                }
            }
        }
    }

    #[test]
    fn neighbors_are_at_distance_one(n in 2usize..30, p in 0.0f64..0.4, seed in 0u64..200) {
        let g = topology::erdos_renyi(n, p, seed);
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                prop_assert_eq!(g.distance(v, w), 1);
            }
        }
    }

    #[test]
    fn shortest_paths_have_metric_length(n in 2usize..25, p in 0.05f64..0.4, seed in 0u64..100,
                                         a in 0usize..25, b in 0usize..25) {
        let g = topology::erdos_renyi(n, p, seed);
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let path = g.shortest_path(a, b);
        prop_assert_eq!(path.len() as u32, g.distance(a, b) + 1);
        for w in path.windows(2) {
            prop_assert!(g.neighbors(w[0]).contains(&w[1]));
        }
    }

    #[test]
    fn geometric_graphs_are_connected(n in 1usize..40, r in 0.01f64..0.5, seed in 0u64..100) {
        let g = topology::random_geometric(n, r, seed);
        let d = g.distances_from(NodeId(0));
        prop_assert!(d.iter().all(|&x| x != u32::MAX));
    }

    #[test]
    fn rebuilding_from_edge_list_round_trips(n in 2usize..25, p in 0.05f64..0.4, seed in 0u64..100) {
        let g = topology::erdos_renyi(n, p, seed);
        let edges: Vec<(usize, usize)> = g.edges().map(|(a, b)| (a.index(), b.index())).collect();
        let h = Graph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.edge_count(), h.edge_count());
        prop_assert_eq!(g.all_pairs_distances(), h.all_pairs_distances());
    }
}
