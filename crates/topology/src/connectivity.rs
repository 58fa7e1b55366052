//! Connectivity oracle for the generator and overlay tests: BFS distances
//! and whether a graph is connected.

use crate::graph::Graph;
use gossip_net::NodeId;
use std::collections::VecDeque;

/// BFS distances from `source`; `None` for unreachable nodes.
fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; graph.n()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have distances");
        for u in graph.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Whether the graph is connected (vacuously true for a single node).
pub(crate) fn is_connected(graph: &Graph) -> bool {
    if graph.n() == 0 {
        return true;
    }
    bfs_distances(graph, NodeId::new(0))
        .iter()
        .all(Option::is_some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{complete, d_regular, grid2d, ring};

    #[test]
    fn bfs_on_ring() {
        let g = ring(8);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[4], Some(4));
        assert_eq!(d[7], Some(1));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_graphs_have_one_component() {
        for g in [
            complete(10),
            ring(10),
            grid2d(3, 4, false),
            d_regular(30, 4, 1),
        ] {
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn isolated_nodes_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[2], None);
    }
}
