//! Manhattan-grid mobility: nodes move along a lattice of horizontal and
//! vertical streets, turning at intersections with a configurable
//! probability (PAPERS.md: *Simulation Analysis of Routing Protocols using
//! Manhattan Grid Mobility Model in MANET*).
//!
//! Layout: `h_streets` horizontal lanes and `v_streets` vertical lanes,
//! evenly spaced and strictly interior to the field (lane `k` of `n` sits at
//! fraction `(k + 0.5) / n`), so field edges are never intersections. A node
//! lives on exactly one lane, travels along it at a class speed, U-turns at
//! the field edge, and at each intersection crossing draws whether to turn
//! onto the crossing street.
//!
//! Determinism contract (same as the SoA waypoint model): construction draws
//! per node in id order (orientation, lane, offset, direction, speed class —
//! exactly five draws each), and `step` visits nodes in id order, drawing
//! only at intersection crossings. Same seed ⇒ same trajectories.

use crate::{Mobility, EPS};
use alert_geom::{Point, Rect};
use alert_rng::{Rng, SeedableRng, StdRng};

/// Hard cap on intersection crossings handled per node per `step` call.
/// A node crossing this many intersections in one mobility tick is
/// physically absurd (it would need a near-zero lane spacing); the cap
/// bounds the worst-case loop while staying deterministic.
const MAX_CROSSINGS_PER_STEP: usize = 1_000;

/// Parameters for [`ManhattanGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManhattanConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of horizontal streets (≥ 1).
    pub h_streets: usize,
    /// Number of vertical streets (≥ 1).
    pub v_streets: usize,
    /// Probability of turning onto the crossing street at an intersection,
    /// in `[0, 1]`.
    pub turn_prob: f64,
    /// Top speed in m/s. Class `c` of `speed_classes` moves at
    /// `speed * (c + 1) / speed_classes`, so one class means everyone moves
    /// at `speed` (matching the other models' fixed-speed convention).
    pub speed: f64,
    /// Number of discrete speed classes (≥ 1), e.g. pedestrian / slow
    /// vehicle / fast vehicle.
    pub speed_classes: usize,
}

impl ManhattanConfig {
    /// A single-class grid: every node moves at `speed`.
    pub fn fixed_speed(nodes: usize, h_streets: usize, v_streets: usize, speed: f64) -> Self {
        ManhattanConfig {
            nodes,
            h_streets,
            v_streets,
            turn_prob: 0.5,
            speed,
            speed_classes: 1,
        }
    }
}

/// Travel axis of a node: along a horizontal or a vertical street.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    Horizontal,
    Vertical,
}

/// Street-constrained mobility over a lattice of lanes.
///
/// State is struct-of-arrays like [`crate::RandomWaypoint`]: per-node axis,
/// lane index, coordinate along the lane, direction sign, and speed.
#[derive(Debug, Clone)]
pub struct ManhattanGrid {
    bounds: Rect,
    config: ManhattanConfig,
    /// y-coordinates of the horizontal lanes, ascending.
    h_lanes: Vec<f64>,
    /// x-coordinates of the vertical lanes, ascending.
    v_lanes: Vec<f64>,
    axis: Vec<Axis>,
    lane: Vec<usize>,
    /// Coordinate along the travel axis (x for horizontal, y for vertical).
    along: Vec<f64>,
    /// Direction sign: `+1.0` (toward max corner) or `-1.0`.
    dir: Vec<f64>,
    speed: Vec<f64>,
    rng: StdRng,
}

/// Evenly spaced interior lane coordinates: lane `k` of `n` at fraction
/// `(k + 0.5) / n` of the span.
fn lane_coords(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let span = hi - lo;
    (0..n)
        .map(|k| lo + span * (k as f64 + 0.5) / n as f64)
        .collect()
}

impl ManhattanGrid {
    /// Builds the grid and scatters nodes on random lanes.
    ///
    /// Panics if `h_streets`, `v_streets`, or `speed_classes` is zero (the
    /// simulator's `ScenarioConfig::validate` rejects these before
    /// construction).
    pub fn new(bounds: Rect, config: ManhattanConfig, seed: u64) -> Self {
        assert!(config.h_streets >= 1, "need at least one horizontal street");
        assert!(config.v_streets >= 1, "need at least one vertical street");
        assert!(config.speed_classes >= 1, "need at least one speed class");
        let h_lanes = lane_coords(bounds.min.y, bounds.max.y, config.h_streets);
        let v_lanes = lane_coords(bounds.min.x, bounds.max.x, config.v_streets);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = config.nodes;
        let mut axis = Vec::with_capacity(n);
        let mut lane = Vec::with_capacity(n);
        let mut along = Vec::with_capacity(n);
        let mut dir = Vec::with_capacity(n);
        let mut speed = Vec::with_capacity(n);
        for _ in 0..n {
            let horizontal = rng.gen_bool(0.5);
            let (a, lanes, lo, hi) = if horizontal {
                (
                    Axis::Horizontal,
                    config.h_streets,
                    bounds.min.x,
                    bounds.max.x,
                )
            } else {
                (Axis::Vertical, config.v_streets, bounds.min.y, bounds.max.y)
            };
            axis.push(a);
            lane.push(rng.gen_range(0..lanes));
            along.push(if hi > lo { rng.gen_range(lo..hi) } else { lo });
            dir.push(if rng.gen_bool(0.5) { 1.0 } else { -1.0 });
            let class = rng.gen_range(0..config.speed_classes);
            speed.push(config.speed * (class as f64 + 1.0) / config.speed_classes as f64);
        }
        ManhattanGrid {
            bounds,
            config,
            h_lanes,
            v_lanes,
            axis,
            lane,
            along,
            dir,
            speed,
            rng,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ManhattanConfig {
        &self.config
    }

    /// y-coordinates of the horizontal lanes.
    pub fn horizontal_lanes(&self) -> &[f64] {
        &self.h_lanes
    }

    /// x-coordinates of the vertical lanes.
    pub fn vertical_lanes(&self) -> &[f64] {
        &self.v_lanes
    }

    /// Travel span and crossing-lane coordinates for a node's current axis.
    fn travel(&self, i: usize) -> (f64, f64, &[f64]) {
        match self.axis[i] {
            Axis::Horizontal => (self.bounds.min.x, self.bounds.max.x, &self.v_lanes),
            Axis::Vertical => (self.bounds.min.y, self.bounds.max.y, &self.h_lanes),
        }
    }

    /// Index of the next crossing strictly ahead of `along` in direction
    /// `dir`, or `None` when the field edge comes first.
    fn next_crossing(crossings: &[f64], along: f64, dir: f64) -> Option<usize> {
        if dir > 0.0 {
            crossings.iter().position(|&c| c > along + EPS)
        } else {
            crossings.iter().rposition(|&c| c < along - EPS)
        }
    }

    /// Advances node `i` by its per-step travel budget, drawing turn
    /// decisions at each intersection crossed.
    fn step_node(&mut self, i: usize, dt: f64) {
        let mut budget = dt * self.speed[i];
        let mut crossings = 0;
        while budget > EPS && crossings < MAX_CROSSINGS_PER_STEP {
            crossings += 1;
            let (lo, hi, cross) = self.travel(i);
            let along = self.along[i];
            let dir = self.dir[i];
            let next = Self::next_crossing(cross, along, dir);
            let target = match next {
                Some(j) => cross[j],
                None => {
                    if dir > 0.0 {
                        hi
                    } else {
                        lo
                    }
                }
            };
            let dist = (target - along).abs();
            if dist > budget {
                self.along[i] = along + dir * budget;
                return;
            }
            self.along[i] = target;
            budget -= dist;
            match next {
                None => {
                    // Field edge: U-turn, no draw.
                    self.dir[i] = -dir;
                }
                Some(j) => {
                    // Intersection: draw the turn decision.
                    if self.rng.gen_range(0.0..1.0) < self.config.turn_prob {
                        // Turn onto the crossing street. The node's old lane
                        // coordinate becomes its position along the new lane.
                        let old_lane_coord = match self.axis[i] {
                            Axis::Horizontal => self.h_lanes[self.lane[i]],
                            Axis::Vertical => self.v_lanes[self.lane[i]],
                        };
                        self.axis[i] = match self.axis[i] {
                            Axis::Horizontal => Axis::Vertical,
                            Axis::Vertical => Axis::Horizontal,
                        };
                        self.lane[i] = j;
                        self.along[i] = old_lane_coord;
                        self.dir[i] = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    }
                }
            }
        }
    }
}

impl Mobility for ManhattanGrid {
    fn len(&self) -> usize {
        self.config.nodes
    }

    fn position(&self, id: usize) -> Point {
        match self.axis[id] {
            Axis::Horizontal => Point::new(self.along[id], self.h_lanes[self.lane[id]]),
            Axis::Vertical => Point::new(self.v_lanes[self.lane[id]], self.along[id]),
        }
    }

    fn step(&mut self, dt: f64) {
        for i in 0..self.config.nodes {
            self.step_node(i, dt);
        }
    }

    fn bounds(&self) -> Rect {
        self.bounds
    }

    fn place(&mut self, positions: &[Point]) {
        // Snap each requested position to the nearest lane point. Draws no
        // RNG, so the turn-draw stream is unchanged by placement.
        for (i, &p) in positions.iter().enumerate().take(self.config.nodes) {
            let p = self.bounds.clamp(p);
            let (hk, hy) = nearest_lane(&self.h_lanes, p.y);
            let (vj, vx) = nearest_lane(&self.v_lanes, p.x);
            if (p.y - hy).abs() <= (p.x - vx).abs() {
                self.axis[i] = Axis::Horizontal;
                self.lane[i] = hk;
                self.along[i] = p.x;
            } else {
                self.axis[i] = Axis::Vertical;
                self.lane[i] = vj;
                self.along[i] = p.y;
            }
        }
    }
}

/// Index and coordinate of the lane closest to `coord`. Lanes are ascending
/// and non-empty.
fn nearest_lane(lanes: &[f64], coord: f64) -> (usize, f64) {
    let mut best = 0;
    for (k, &c) in lanes.iter().enumerate() {
        if (coord - c).abs() < (coord - lanes[best]).abs() {
            best = k;
        }
    }
    (best, lanes[best])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize, h: usize, v: usize, seed: u64) -> ManhattanGrid {
        let bounds = Rect::with_size(1000.0, 800.0);
        let cfg = ManhattanConfig {
            nodes,
            h_streets: h,
            v_streets: v,
            turn_prob: 0.5,
            speed: 5.0,
            speed_classes: 3,
        };
        ManhattanGrid::new(bounds, cfg, seed)
    }

    fn on_a_lane(m: &ManhattanGrid, p: Point) -> bool {
        m.horizontal_lanes().iter().any(|&y| (p.y - y).abs() < 1e-6)
            || m.vertical_lanes().iter().any(|&x| (p.x - x).abs() < 1e-6)
    }

    #[test]
    fn nodes_start_on_lanes_and_in_bounds() {
        let m = model(40, 4, 3, 7);
        for i in 0..m.len() {
            let p = m.position(i);
            assert!(m.bounds().contains(p), "node {i} at {p:?} out of bounds");
            assert!(on_a_lane(&m, p), "node {i} at {p:?} off-lane");
        }
    }

    #[test]
    fn nodes_stay_on_lanes_while_moving() {
        let mut m = model(25, 3, 5, 11);
        for _ in 0..200 {
            m.step(0.5);
            for i in 0..m.len() {
                let p = m.position(i);
                assert!(m.bounds().contains(p));
                assert!(on_a_lane(&m, p));
            }
        }
    }

    #[test]
    fn same_seed_same_trajectories() {
        let mut a = model(30, 4, 4, 42);
        let mut b = model(30, 4, 4, 42);
        for _ in 0..100 {
            a.step(0.7);
            b.step(0.7);
        }
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn different_seed_different_trajectories() {
        let a = model(30, 4, 4, 1);
        let b = model(30, 4, 4, 2);
        assert_ne!(a.positions(), b.positions());
    }

    #[test]
    fn single_street_cross_is_supported() {
        // The degenerate 1×1 grid: one horizontal and one vertical street.
        let mut m = model(10, 1, 1, 5);
        for _ in 0..100 {
            m.step(1.0);
            for i in 0..m.len() {
                let p = m.position(i);
                assert!(m.bounds().contains(p));
                assert!(on_a_lane(&m, p));
            }
        }
    }

    #[test]
    fn displacement_is_bounded_by_top_speed() {
        let mut m = model(20, 4, 4, 9);
        let before = m.positions();
        let dt = 2.0;
        m.step(dt);
        for (i, start) in before.iter().enumerate() {
            // Street travel can bend around corners, so Euclidean
            // displacement is at most the path budget.
            let d = start.distance(m.position(i));
            assert!(
                d <= m.config().speed * dt + 1e-6,
                "node {i} moved {d} > {}",
                m.config().speed * dt
            );
        }
    }

    #[test]
    fn turn_prob_zero_never_changes_lanes() {
        let bounds = Rect::with_size(500.0, 500.0);
        let cfg = ManhattanConfig {
            nodes: 15,
            h_streets: 3,
            v_streets: 3,
            turn_prob: 0.0,
            speed: 8.0,
            speed_classes: 1,
        };
        let mut m = ManhattanGrid::new(bounds, cfg, 3);
        let lanes_before: Vec<_> = (0..m.len()).map(|i| (m.axis[i], m.lane[i])).collect();
        for _ in 0..50 {
            m.step(1.0);
        }
        let lanes_after: Vec<_> = (0..m.len()).map(|i| (m.axis[i], m.lane[i])).collect();
        assert_eq!(lanes_before, lanes_after);
    }

    #[test]
    fn place_snaps_to_nearest_lane() {
        let mut m = model(4, 2, 2, 0);
        let targets = vec![
            Point::new(100.0, 190.0),
            Point::new(240.0, 700.0),
            Point::new(-50.0, 10_000.0),
            Point::new(500.0, 400.0),
        ];
        m.place(&targets);
        for i in 0..m.len() {
            let p = m.position(i);
            assert!(m.bounds().contains(p));
            assert!(on_a_lane(&m, p));
        }
        // Node 0 requested (100, 190): h-lane at y=200 is 10 away, v-lane at
        // x=250 is 150 away, so it snaps onto the y=200 street keeping x.
        assert_eq!(m.position(0), Point::new(100.0, 200.0));
    }
}
