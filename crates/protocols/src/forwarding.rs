//! Shared geographic-forwarding primitives: greedy next-hop selection,
//! Gabriel-graph planarization, and right-hand-rule perimeter traversal.
//!
//! These implement the GPSR machinery of Karp & Kung that the paper's
//! baselines — and ALERT's relay legs between random forwarders
//! (Section 2.3) — are built on.

use alert_geom::Point;
use alert_sim::{Api, NeighborEntry, PacketId};

/// Picks the neighbor strictly closer to `target` than `me`, minimizing
/// the remaining distance (greedy mode). Ties break towards the earlier
/// table entry for determinism.
pub fn greedy_next_hop(
    me: Point,
    target: Point,
    neighbors: &[NeighborEntry],
) -> Option<NeighborEntry> {
    let my_d = me.distance_sq(target);
    let mut best: Option<(f64, NeighborEntry)> = None;
    for n in neighbors {
        let d = n.position.distance_sq(target);
        if d < my_d {
            match best {
                Some((bd, _)) if bd <= d => {}
                _ => best = Some((d, *n)),
            }
        }
    }
    best.map(|(_, n)| n)
}

/// [`greedy_next_hop`] with observability: emits a
/// `forwarder_select` trace event (target position plus whether any
/// neighbor made progress) through the node's [`Api`]. Use this on
/// data-plane forwarding decisions where "where did greedy get stuck?"
/// matters for trace analysis; identical routing behavior otherwise.
/// Reads the caller's own neighbor table via [`Api::neighbors`], so the
/// shared borrow of the table ends before the trace call needs `api`
/// mutably.
pub fn greedy_next_hop_traced<M: Clone + std::fmt::Debug>(
    api: &mut Api<'_, M>,
    target: Point,
    packet: Option<PacketId>,
) -> Option<NeighborEntry> {
    let hop = greedy_next_hop(api.my_pos(), target, api.neighbors());
    api.trace_forwarder_selection(packet, target, hop.is_some());
    hop
}

/// Filters `neighbors` down to the Gabriel-graph edges of `me`: the edge
/// `(me, v)` survives when no other neighbor `w` lies strictly inside the
/// circle whose diameter is `me–v`. The Gabriel graph is planar and
/// connectivity-preserving, which is what perimeter routing requires.
pub fn gabriel_neighbors(me: Point, neighbors: &[NeighborEntry]) -> Vec<NeighborEntry> {
    neighbors
        .iter()
        .filter(|v| {
            let mid = Point::new((me.x + v.position.x) * 0.5, (me.y + v.position.y) * 0.5);
            let r_sq = me.distance_sq(v.position) * 0.25;
            !neighbors
                .iter()
                .any(|w| w.pseudonym != v.pseudonym && w.position.distance_sq(mid) < r_sq - 1e-12)
        })
        .copied()
        .collect()
}

/// Right-hand-rule successor: the first edge counter-clockwise from the
/// reference direction `me -> prev` (the edge the packet arrived on).
/// Traversing faces this way walks their boundary with the face on the
/// right — the core of GPSR's perimeter mode.
pub fn right_hand_next(
    me: Point,
    prev: Point,
    planar_neighbors: &[NeighborEntry],
) -> Option<NeighborEntry> {
    if planar_neighbors.is_empty() {
        return None;
    }
    let ref_angle = me.bearing_to(prev);
    planar_neighbors
        .iter()
        .map(|n| {
            let a = me.bearing_to(n.position);
            // Counter-clockwise sweep angle from the reference direction,
            // in (0, 2*pi]; a neighbor exactly at the reference direction
            // (the previous hop itself) sweeps the full circle, making it
            // the last resort (allowing backtracking out of dead ends).
            let mut sweep = a - ref_angle;
            while sweep <= 1e-12 {
                sweep += std::f64::consts::TAU;
            }
            (sweep, n)
        })
        .min_by(|(a, na), (b, nb)| {
            a.partial_cmp(b)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| na.pseudonym.cmp(&nb.pseudonym))
        })
        .map(|(_, n)| *n)
}

/// Finds the neighbor entry whose pseudonym matches, if present — the
/// "destination is my neighbor, hand it over" check every geographic
/// protocol performs last-hop.
pub fn neighbor_by_pseudonym(
    neighbors: &[NeighborEntry],
    pseudonym: alert_crypto::Pseudonym,
) -> Option<NeighborEntry> {
    neighbors.iter().find(|n| n.pseudonym == pseudonym).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_crypto::Pseudonym;

    fn entry(id: u64, x: f64, y: f64) -> NeighborEntry {
        NeighborEntry {
            pseudonym: Pseudonym(id),
            position: Point::new(x, y),
            heard_at: 0.0,
        }
    }

    #[test]
    fn greedy_picks_closest_progressing_neighbor() {
        let me = Point::new(0.0, 0.0);
        let target = Point::new(100.0, 0.0);
        let ns = vec![
            entry(1, 10.0, 0.0),
            entry(2, 40.0, 0.0),
            entry(3, -5.0, 0.0),
        ];
        assert_eq!(
            greedy_next_hop(me, target, &ns).unwrap().pseudonym,
            Pseudonym(2)
        );
    }

    #[test]
    fn greedy_requires_strict_progress() {
        let me = Point::new(50.0, 0.0);
        let target = Point::new(100.0, 0.0);
        // All neighbors are farther from the target than me: local maximum.
        let ns = vec![entry(1, 0.0, 0.0), entry(2, 50.0, 80.0)];
        assert!(greedy_next_hop(me, target, &ns).is_none());
    }

    #[test]
    fn greedy_empty_neighbors() {
        assert!(greedy_next_hop(Point::ORIGIN, Point::new(1.0, 1.0), &[]).is_none());
    }

    #[test]
    fn gabriel_removes_dominated_edges() {
        let me = Point::new(0.0, 0.0);
        // w = (5, 0.5) sits inside the circle with diameter me-(10,0),
        // so the long edge is pruned; the two short edges survive.
        let ns = vec![entry(1, 10.0, 0.0), entry(2, 5.0, 0.5)];
        let planar = gabriel_neighbors(me, &ns);
        assert_eq!(planar.len(), 1);
        assert_eq!(planar[0].pseudonym, Pseudonym(2));
    }

    #[test]
    fn gabriel_keeps_independent_edges() {
        let me = Point::new(0.0, 0.0);
        let ns = vec![
            entry(1, 10.0, 0.0),
            entry(2, 0.0, 10.0),
            entry(3, -10.0, 0.0),
        ];
        let planar = gabriel_neighbors(me, &ns);
        assert_eq!(planar.len(), 3, "orthogonal edges are all Gabriel edges");
    }

    #[test]
    fn right_hand_walks_counterclockwise_from_incoming_edge() {
        let me = Point::new(0.0, 0.0);
        let prev = Point::new(-10.0, 0.0); // came from the west
        let ns = vec![
            entry(1, 0.0, -10.0), // south: 90 deg CCW from west
            entry(2, 10.0, 0.0),  // east: 180 deg CCW
            entry(3, 0.0, 10.0),  // north: 270 deg CCW
        ];
        let next = right_hand_next(me, prev, &ns).unwrap();
        assert_eq!(next.pseudonym, Pseudonym(1), "south is first CCW from west");
    }

    #[test]
    fn right_hand_backtracks_as_last_resort() {
        let me = Point::new(0.0, 0.0);
        let prev = Point::new(-10.0, 0.0);
        // Only the previous hop is available: must return it (backtrack).
        let ns = vec![entry(1, -10.0, 0.0)];
        assert_eq!(
            right_hand_next(me, prev, &ns).unwrap().pseudonym,
            Pseudonym(1)
        );
    }

    #[test]
    fn right_hand_on_empty_is_none() {
        assert!(right_hand_next(Point::ORIGIN, Point::new(1.0, 0.0), &[]).is_none());
    }

    #[test]
    fn right_hand_traverses_a_face_and_returns() {
        // A unit square face: starting at (0,0) having entered from the
        // virtual point (-1,0) (outside), the right-hand rule must walk the
        // square and come back — four hops, visiting every corner.
        let corners = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        let table = |at: usize| -> Vec<NeighborEntry> {
            // Each corner's neighbors: the two adjacent corners.
            let prev = (at + 3) % 4;
            let next = (at + 1) % 4;
            vec![
                entry(prev as u64, corners[prev].x, corners[prev].y),
                entry(next as u64, corners[next].x, corners[next].y),
            ]
        };
        let mut at = 0usize;
        let mut prev_pos = Point::new(-10.0, 0.0);
        let mut visited = vec![0usize];
        for _ in 0..4 {
            let ns = table(at);
            let nxt = right_hand_next(corners[at], prev_pos, &ns).unwrap();
            prev_pos = corners[at];
            at = nxt.pseudonym.0 as usize;
            visited.push(at);
        }
        assert_eq!(visited, vec![0, 1, 2, 3, 0], "full walk around the face");
    }

    #[test]
    fn neighbor_lookup_by_pseudonym() {
        let ns = vec![entry(5, 1.0, 1.0), entry(9, 2.0, 2.0)];
        assert_eq!(
            neighbor_by_pseudonym(&ns, Pseudonym(9)).unwrap().position,
            Point::new(2.0, 2.0)
        );
        assert!(neighbor_by_pseudonym(&ns, Pseudonym(77)).is_none());
    }
}
