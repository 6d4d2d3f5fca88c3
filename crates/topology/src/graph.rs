//! Undirected weighted graphs with deterministic shortest paths.

use netsim::{LinkParams, NodeId, SimDuration};
use std::collections::HashSet;

/// Index of an undirected edge within a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

/// One undirected edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphEdge {
    /// Lower endpoint (by id).
    pub a: NodeId,
    /// Higher endpoint (by id).
    pub b: NodeId,
    /// Propagation delay, used as the link cost.
    pub delay: SimDuration,
}

/// An undirected graph with delay-weighted edges.
///
/// Node ids are dense: `0..node_count`. Edge endpoints are normalised so that
/// `a < b`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<GraphEdge>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

/// A set of failed elements, used to compute post-failure ground truth.
#[derive(Clone, Debug, Default)]
pub struct TopoMask {
    /// Downed undirected links, stored with `a < b`.
    pub links_down: HashSet<(NodeId, NodeId)>,
    /// Downed nodes.
    pub nodes_down: HashSet<NodeId>,
}

impl TopoMask {
    /// Marks the `x — y` link down.
    pub fn link_down(&mut self, x: NodeId, y: NodeId) {
        self.links_down.insert(ordered(x, y));
    }

    /// Marks the `x — y` link up again.
    pub fn link_up(&mut self, x: NodeId, y: NodeId) {
        self.links_down.remove(&ordered(x, y));
    }

    /// Marks a node down.
    pub fn node_down(&mut self, x: NodeId) {
        self.nodes_down.insert(x);
    }

    /// Marks a node up again.
    pub fn node_up(&mut self, x: NodeId) {
        self.nodes_down.remove(&x);
    }

    /// Whether the mask disables the given edge.
    pub fn blocks(&self, e: &GraphEdge) -> bool {
        self.links_down.contains(&(e.a, e.b))
            || self.nodes_down.contains(&e.a)
            || self.nodes_down.contains(&e.b)
    }
}

fn ordered(x: NodeId, y: NodeId) -> (NodeId, NodeId) {
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// Shortest-path results from one source.
#[derive(Clone, Debug)]
pub struct PathInfo {
    /// `dist[v]` is the total delay of the shortest path, or `None` if
    /// unreachable.
    pub dist: Vec<Option<SimDuration>>,
    /// `first_hop[v]` is the deterministic first hop on the shortest path
    /// from the source towards `v` (ties broken by smallest predecessor id,
    /// matching an OSPF router-id tie-break), or `None` if unreachable or
    /// `v` is the source.
    pub first_hop: Vec<Option<NodeId>>,
}

impl Graph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph { n, edges: Vec::new(), adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Adds an undirected edge. Parallel edges are rejected; the first wins.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `x == y`.
    pub fn add_edge(&mut self, x: NodeId, y: NodeId, delay: SimDuration) -> Option<EdgeId> {
        assert!(x.index() < self.n && y.index() < self.n, "endpoint out of range");
        assert_ne!(x, y, "self-loop");
        let (a, b) = ordered(x, y);
        if self.has_edge(a, b) {
            return None;
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(GraphEdge { a, b, delay });
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        Some(id)
    }

    /// Whether an edge exists between `x` and `y`.
    pub fn has_edge(&self, x: NodeId, y: NodeId) -> bool {
        self.adj[x.index()].iter().any(|&(nb, _)| nb == y)
    }

    /// The delay of the `x — y` edge, if present.
    pub fn edge_delay(&self, x: NodeId, y: NodeId) -> Option<SimDuration> {
        self.adj[x.index()]
            .iter()
            .find(|&&(nb, _)| nb == y)
            .map(|&(_, id)| self.edges[id.0 as usize].delay)
    }

    /// Neighbours of `x` in ascending id order.
    pub fn neighbors(&self, x: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.adj[x.index()].iter().map(|&(nb, _)| nb).collect();
        v.sort_unstable();
        v
    }

    /// Degree of `x`.
    pub fn degree(&self, x: NodeId) -> usize {
        self.adj[x.index()].len()
    }

    /// Deterministic Dijkstra from `src`, honouring the failure mask.
    pub fn shortest_paths(&self, src: NodeId, mask: &TopoMask) -> PathInfo {
        let n = self.n;
        let mut dist: Vec<Option<SimDuration>> = vec![None; n];
        let mut first_hop: Vec<Option<NodeId>> = vec![None; n];
        let mut done = vec![false; n];
        if mask.nodes_down.contains(&src) {
            return PathInfo { dist, first_hop };
        }
        // (dist, node, first_hop) in a min-heap; ties resolved by node id and
        // then first-hop id, which keeps results independent of insertion
        // order.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(SimDuration, NodeId, Option<NodeId>)>> =
            BinaryHeap::new();
        dist[src.index()] = Some(SimDuration::ZERO);
        heap.push(Reverse((SimDuration::ZERO, src, None)));
        while let Some(Reverse((d, u, fh))) = heap.pop() {
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            first_hop[u.index()] = fh;
            for &(v, eid) in &self.adj[u.index()] {
                let e = &self.edges[eid.0 as usize];
                if mask.blocks(e) || done[v.index()] {
                    continue;
                }
                let nd = d + e.delay;
                let candidate_fh = if u == src { Some(v) } else { fh };
                let better = match dist[v.index()] {
                    None => true,
                    Some(old) => nd < old,
                };
                if better {
                    dist[v.index()] = Some(nd);
                    heap.push(Reverse((nd, v, candidate_fh)));
                } else if dist[v.index()] == Some(nd) && !done[v.index()] {
                    // Equal-cost tie: push the alternative so the heap's
                    // (dist, node, first_hop) ordering settles ties on the
                    // smallest first hop, deterministically.
                    heap.push(Reverse((nd, v, candidate_fh)));
                }
            }
        }
        PathInfo { dist, first_hop }
    }

    /// Whether the graph (minus the mask) is connected over up nodes.
    pub fn is_connected(&self, mask: &TopoMask) -> bool {
        let up: Vec<NodeId> = (0..self.n)
            .map(|i| NodeId(i as u32))
            .filter(|id| !mask.nodes_down.contains(id))
            .collect();
        let Some(&start) = up.first() else { return true };
        let info = self.shortest_paths(start, mask);
        up.iter().all(|id| info.dist[id.index()].is_some())
    }

    /// Converts the graph into simulator link triples, applying `params_for`
    /// to each edge (e.g. to attach jitter or loss).
    pub fn to_links(
        &self,
        mut params_for: impl FnMut(&GraphEdge) -> LinkParams,
    ) -> Vec<(NodeId, NodeId, LinkParams)> {
        self.edges.iter().map(|e| (e.a, e.b, params_for(e))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// Square with a diagonal: 0-1 (1ms), 1-2 (1ms), 2-3 (1ms), 3-0 (1ms),
    /// 0-2 (5ms).
    fn square() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), ms(1));
        g.add_edge(NodeId(1), NodeId(2), ms(1));
        g.add_edge(NodeId(2), NodeId(3), ms(1));
        g.add_edge(NodeId(3), NodeId(0), ms(1));
        g.add_edge(NodeId(0), NodeId(2), ms(5));
        g
    }

    #[test]
    fn shortest_paths_basic() {
        let g = square();
        let info = g.shortest_paths(NodeId(0), &TopoMask::default());
        assert_eq!(info.dist[2], Some(ms(2)));
        assert_eq!(info.dist[1], Some(ms(1)));
        // To node 2, the two 2ms paths go via 1 and via 3; the tie-break
        // must be deterministic.
        let via = info.first_hop[2].unwrap();
        assert!(via == NodeId(1) || via == NodeId(3));
        let again = g.shortest_paths(NodeId(0), &TopoMask::default());
        assert_eq!(again.first_hop[2], info.first_hop[2]);
    }

    #[test]
    fn mask_reroutes() {
        let g = square();
        let mut mask = TopoMask::default();
        mask.link_down(NodeId(0), NodeId(1));
        mask.link_down(NodeId(3), NodeId(0));
        let info = g.shortest_paths(NodeId(0), &mask);
        // Only the 5ms diagonal remains.
        assert_eq!(info.dist[2], Some(ms(5)));
        assert_eq!(info.first_hop[2], Some(NodeId(2)));
        assert_eq!(info.dist[1], Some(ms(6)));
    }

    #[test]
    fn node_down_disconnects() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), ms(1));
        g.add_edge(NodeId(1), NodeId(2), ms(1));
        let mut mask = TopoMask::default();
        assert!(g.is_connected(&mask));
        mask.node_down(NodeId(1));
        assert!(!g.is_connected(&mask));
        let info = g.shortest_paths(NodeId(0), &mask);
        assert_eq!(info.dist[2], None);
        assert_eq!(info.first_hop[2], None);
    }

    #[test]
    fn parallel_edges_rejected() {
        let mut g = Graph::new(2);
        assert!(g.add_edge(NodeId(0), NodeId(1), ms(1)).is_some());
        assert!(g.add_edge(NodeId(1), NodeId(0), ms(2)).is_none());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_delay(NodeId(0), NodeId(1)), Some(ms(1)));
    }

    #[test]
    fn mask_unblocks() {
        let _ = square();
        let mut mask = TopoMask::default();
        mask.link_down(NodeId(0), NodeId(1));
        mask.link_up(NodeId(1), NodeId(0));
        assert!(mask.links_down.is_empty());
        mask.node_down(NodeId(2));
        mask.node_up(NodeId(2));
        assert!(mask.nodes_down.is_empty());
    }

    #[test]
    fn to_links_maps_every_edge() {
        let g = square();
        let links = g.to_links(|e| LinkParams::with_delay(e.delay));
        assert_eq!(links.len(), g.edge_count());
        assert!(links.iter().any(|&(a, b, p)| {
            a == NodeId(0) && b == NodeId(2) && p.delay == ms(5)
        }));
    }
}
