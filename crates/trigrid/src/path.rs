//! Shortest paths and connectivity over finite node sets.

use crate::{Coord, Dir};
use std::collections::{HashMap, HashSet, VecDeque};

/// One shortest path (sequence of directions) from `from` to `to` on the
/// unobstructed infinite grid. Deterministic: at each step it takes the
/// first direction (in [`Dir::ALL`] order) that reduces the distance.
#[must_use]
pub fn shortest_path(from: Coord, to: Coord) -> Vec<Dir> {
    let mut path = Vec::with_capacity(from.distance(to) as usize);
    let mut cur = from;
    while cur != to {
        let d = Dir::ALL
            .into_iter()
            .find(|d| cur.step(*d).distance(to) < cur.distance(to))
            .expect("some neighbour is always closer on the unobstructed grid");
        path.push(d);
        cur = cur.step(d);
    }
    path
}

/// Whether the subgraph induced by `nodes` (adjacency = grid adjacency)
/// is connected. Empty sets are considered connected.
///
/// Small sets (≤ 16 nodes — every robot configuration) take an
/// allocation-free path: the adjacency relation is folded into one
/// bitmask per node and connectivity is a bitmask flood fill. This is
/// a hot function for the exploration checkers, which test every
/// successor configuration once per expanded edge.
#[must_use]
pub fn is_connected(nodes: &[Coord]) -> bool {
    if nodes.len() <= 1 {
        return true;
    }
    if nodes.len() <= 16 {
        return small_is_connected(nodes);
    }
    let set: HashSet<Coord> = nodes.iter().copied().collect();
    let mut seen = HashSet::with_capacity(set.len());
    let mut queue = VecDeque::new();
    queue.push_back(nodes[0]);
    seen.insert(nodes[0]);
    while let Some(c) = queue.pop_front() {
        for n in c.neighbors() {
            if set.contains(&n) && seen.insert(n) {
                queue.push_back(n);
            }
        }
    }
    seen.len() == set.len()
}

/// Bitmask flood fill for at most 16 nodes. Duplicate nodes are merged
/// by treating distance-0 pairs as adjacent, matching the set
/// semantics of the general path.
fn small_is_connected(nodes: &[Coord]) -> bool {
    let n = nodes.len();
    let mut adj = [0u32; 16];
    for i in 0..n {
        for j in i + 1..n {
            if nodes[i].distance(nodes[j]) <= 1 {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    let all: u32 = (1u32 << n) - 1;
    mask_connected(&adj[..n], all)
}

/// Whether the nodes selected by `occ` form a connected subgraph of the
/// ≤ 32-node graph whose adjacency rows are `adj` (`adj[i]` = bitmask
/// of `i`'s neighbours). The whole check is word operations: one
/// bitmask flood fill from the lowest occupied node, each step folding
/// an entire adjacency row into the frontier. Empty and singleton
/// selections count as connected.
///
/// The kernel of [`small_is_connected`], which builds the rows from
/// pairwise grid distances.
#[must_use]
fn mask_connected(adj: &[u32], occ: u32) -> bool {
    if occ & occ.wrapping_sub(1) == 0 {
        return true; // zero or one node
    }
    let start = occ.trailing_zeros() as usize;
    let mut seen: u32 = 1 << start;
    let mut frontier: u32 = seen;
    while frontier != 0 {
        let i = frontier.trailing_zeros() as usize;
        frontier &= frontier - 1;
        let fresh = adj[i] & occ & !seen;
        seen |= fresh;
        frontier |= fresh;
    }
    seen == occ
}

/// The connected components of the subgraph induced by `nodes`, each
/// sorted; components are ordered by their smallest element.
#[must_use]
pub fn components(nodes: &[Coord]) -> Vec<Vec<Coord>> {
    let set: HashSet<Coord> = nodes.iter().copied().collect();
    let mut remaining: Vec<Coord> = {
        let mut v: Vec<Coord> = set.iter().copied().collect();
        v.sort();
        v
    };
    let mut out = Vec::new();
    let mut assigned: HashSet<Coord> = HashSet::new();
    while let Some(&seed) = remaining.iter().find(|c| !assigned.contains(c)) {
        let mut comp = vec![seed];
        let mut queue = VecDeque::from([seed]);
        assigned.insert(seed);
        while let Some(c) = queue.pop_front() {
            for n in c.neighbors() {
                if set.contains(&n) && assigned.insert(n) {
                    comp.push(n);
                    queue.push_back(n);
                }
            }
        }
        comp.sort();
        out.push(comp);
        remaining.retain(|c| !assigned.contains(c));
    }
    out
}

/// Breadth-first distances from `source` restricted to the node set
/// `allowed` (which must contain `source`). Unreachable members of
/// `allowed` are absent from the map.
#[must_use]
pub fn bfs_distances(source: Coord, allowed: &HashSet<Coord>) -> HashMap<Coord, u32> {
    let mut dist = HashMap::new();
    if !allowed.contains(&source) {
        return dist;
    }
    dist.insert(source, 0);
    let mut queue = VecDeque::from([source]);
    while let Some(c) = queue.pop_front() {
        let d = dist[&c];
        for n in c.neighbors() {
            if allowed.contains(&n) && !dist.contains_key(&n) {
                dist.insert(n, d + 1);
                queue.push_back(n);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ORIGIN;

    #[test]
    fn shortest_path_length_matches_distance() {
        let cases = [
            (ORIGIN, Coord::new(4, 0)),
            (ORIGIN, Coord::new(0, 4)),
            (Coord::new(-3, 1), Coord::new(5, -3)),
            (ORIGIN, ORIGIN),
        ];
        for (a, b) in cases {
            let p = shortest_path(a, b);
            assert_eq!(p.len() as u32, a.distance(b));
            let mut cur = a;
            for d in p {
                cur = cur.step(d);
            }
            assert_eq!(cur, b);
        }
    }

    #[test]
    fn connectivity_basic() {
        assert!(is_connected(&[]));
        assert!(is_connected(&[ORIGIN]));
        let line: Vec<Coord> = (0..7).map(|i| Coord::new(2 * i, 0)).collect();
        assert!(is_connected(&line));
        let mut broken = line.clone();
        broken[3] = Coord::new(20, 0); // tear the line apart
        assert!(!is_connected(&broken));
    }

    #[test]
    fn hexagon_is_connected() {
        let hexagon = crate::region::disk(ORIGIN, 1);
        assert!(is_connected(&hexagon));
    }

    #[test]
    fn mask_connected_respects_occupancy() {
        // Path 0-1-2-3: full and prefix selections are connected,
        // dropping the middle node splits the ends.
        let adj = [0b0010u32, 0b0101, 0b1010, 0b0100];
        assert!(mask_connected(&adj, 0b1111));
        assert!(mask_connected(&adj, 0b0011));
        assert!(!mask_connected(&adj, 0b1011));
        assert!(mask_connected(&adj, 0b0000));
        assert!(mask_connected(&adj, 0b1000));
    }

    #[test]
    fn components_split_correctly() {
        let a = vec![ORIGIN, Coord::new(2, 0)];
        let b = vec![Coord::new(10, 0), Coord::new(11, 1)];
        let all: Vec<Coord> = a.iter().chain(b.iter()).copied().collect();
        let comps = components(&all);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], a);
        assert_eq!(comps[1], b);
    }

    #[test]
    fn components_of_connected_set_is_single() {
        let hexagon = crate::region::disk(ORIGIN, 1);
        assert_eq!(components(&hexagon).len(), 1);
    }

    #[test]
    fn bfs_distances_on_line() {
        let line: HashSet<Coord> = (0..5).map(|i| Coord::new(2 * i, 0)).collect();
        let d = bfs_distances(ORIGIN, &line);
        assert_eq!(d.len(), 5);
        assert_eq!(d[&Coord::new(8, 0)], 4);
        // Restricted BFS can exceed free-grid distance when the set bends.
        let bent: HashSet<Coord> =
            [ORIGIN, Coord::new(2, 0), Coord::new(3, 1), Coord::new(2, 2), Coord::new(0, 2)]
                .into_iter()
                .collect();
        let d = bfs_distances(ORIGIN, &bent);
        // Free-grid distance from (0,0) to (0,2) is 2, but inside the bent
        // set the only route is E, NE, NW, W: length 4.
        assert_eq!(d[&Coord::new(0, 2)], 4);
        assert_eq!(d[&Coord::new(3, 1)], 2);
    }

    #[test]
    fn bfs_source_not_in_set_is_empty() {
        let set: HashSet<Coord> = [Coord::new(2, 0)].into_iter().collect();
        assert!(bfs_distances(ORIGIN, &set).is_empty());
    }
}
