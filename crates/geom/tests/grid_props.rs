//! Property-based tests for the spatial grid: range queries must agree
//! with an O(n) brute-force scan for arbitrary point sets — including
//! points on the field boundary and (clamped) out-of-bounds points —
//! and must keep agreeing after incremental `update_position` moves.

use alert_geom::{Point, Rect, SpatialGrid};
use alert_rng::{check, Rng, StdRng};

const FIELD_W: f64 = 1000.0;
const FIELD_H: f64 = 1000.0;
const CELL: f64 = 250.0;

fn field() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(FIELD_W, FIELD_H))
}

/// Points over-covering the field: in-bounds, exactly on the boundary,
/// and well outside it (the grid clamps those into edge cells).
fn arb_point(rng: &mut StdRng) -> Point {
    match rng.gen_range(0..6) {
        0..=3 => Point::new(rng.gen_range(0.0..FIELD_W), rng.gen_range(0.0..FIELD_H)),
        4 => [
            Point::new(0.0, 0.0),
            Point::new(FIELD_W, FIELD_H),
            Point::new(0.0, FIELD_H),
            Point::new(FIELD_W, 0.0),
        ][rng.gen_range(0..4usize)],
        _ => Point::new(
            rng.gen_range(-500.0..FIELD_W + 500.0),
            rng.gen_range(-500.0..FIELD_H + 500.0),
        ),
    }
}

/// `len` points drawn by `arb_point`, enumerated as `(id, point)`.
fn arb_items(rng: &mut StdRng, len: usize) -> Vec<(usize, Point)> {
    (0..len).map(|id| (id, arb_point(rng))).collect()
}

/// Brute-force reference: every indexed item within `radius` of
/// `center`, by true (unclamped) distance, sorted by id.
fn brute_force(items: &[(usize, Point)], center: Point, radius: f64) -> Vec<(usize, Point)> {
    let mut hits: Vec<(usize, Point)> = items
        .iter()
        .copied()
        .filter(|(_, p)| p.distance_sq(center) <= radius * radius)
        .collect();
    hits.sort_by_key(|&(id, _)| id);
    hits
}

fn sorted_query(grid: &SpatialGrid, center: Point, radius: f64) -> Vec<(usize, Point)> {
    let mut hits = Vec::new();
    grid.for_each_in_range(center, radius, |id, p| hits.push((id, p)));
    hits.sort_by_key(|&(id, _)| id);
    hits
}

/// A freshly built grid answers range queries exactly like the
/// brute-force scan, for any mix of interior/boundary/outside points.
#[test]
fn range_query_matches_brute_force() {
    check(256, 0, |rng| {
        let len = rng.gen_range(0..120);
        let items = arb_items(rng, len);
        let center = arb_point(rng);
        let radius = rng.gen_range(0.0..600.0);
        let mut grid = SpatialGrid::new(field(), CELL);
        grid.rebuild(items.iter().copied());
        assert_eq!(
            sorted_query(&grid, center, radius),
            brute_force(&items, center, radius)
        );
    });
}

/// The cell `p` is filed in, as (row, column), clamped onto the grid
/// like the grid's own.
fn cell_of(p: Point) -> (isize, isize) {
    let last = (FIELD_W / CELL) as isize - 1;
    (
        ((p.y / CELL) as isize).clamp(0, last),
        ((p.x / CELL) as isize).clamp(0, last),
    )
}

/// A plain filter in the order a range query reports its hits: every
/// item within `radius` of `center` (inclusive), by (cell row, cell
/// column, id).
fn plain_filter(items: &[(usize, Point)], center: Point, radius: f64) -> Vec<(usize, Point)> {
    let mut hits: Vec<(usize, Point)> = items
        .iter()
        .copied()
        .filter(|(_, p)| p.distance_sq(center) <= radius * radius)
        .collect();
    hits.sort_by_key(|&(id, p)| (cell_of(p), id));
    hits
}

/// The chunked, branchless scan reports exactly the plain filter's
/// `(id, point)` sequence: across a cell crowded past the 64-item scan
/// chunk, points exactly on the circle, points clamped onto the field
/// edge, and radii up to two cells (the span a boosted cluster head
/// queries).
#[test]
fn range_query_reports_the_plain_filter_in_cell_order() {
    check(256, 1, |rng| {
        let mut points: Vec<Point> = (0..rng.gen_range(0..80)).map(|_| arb_point(rng)).collect();
        let cell = Point::new(
            f64::from(rng.gen_range(0..4)) * CELL,
            f64::from(rng.gen_range(0..4)) * CELL,
        );
        for _ in 0..rng.gen_range(0..200) {
            let dx = rng.gen_range(0.0..CELL);
            let dy = rng.gen_range(0.0..CELL);
            points.push(Point::new(cell.x + dx, cell.y + dy));
        }
        // Integer coordinates and a 3-4-5 radius put the circle points at
        // distance² exactly radius².
        let center = if rng.gen_bool(0.5) {
            Point::new(
                cell.x + f64::from(rng.gen_range(0..250)),
                cell.y + f64::from(rng.gen_range(0..250)),
            )
        } else {
            Point::new(
                f64::from(rng.gen_range(-100..1100)),
                f64::from(rng.gen_range(-100..1100)),
            )
        };
        let k = f64::from(rng.gen_range(1..=100));
        let radius = 5.0 * k;
        for (dx, dy) in [(3.0, 4.0), (-4.0, 3.0), (0.0, -5.0), (5.0, 0.0)] {
            points.push(Point::new(center.x + dx * k, center.y + dy * k));
        }
        let items: Vec<(usize, Point)> = points.into_iter().enumerate().collect();
        let mut grid = SpatialGrid::new(field(), CELL);
        grid.rebuild(items.iter().copied());
        let mut got = Vec::new();
        grid.for_each_in_range(center, radius, |id, p| got.push((id, p)));
        assert_eq!(got, plain_filter(&items, center, radius));
    });
}

/// After a round of incremental moves the incrementally maintained grid
/// still matches brute force — and matches a grid rebuilt from scratch
/// item-for-item in iteration order (the byte-identical trace guarantee
/// rides on that).
#[test]
fn incremental_updates_preserve_query_results() {
    check(256, 0, |rng| {
        let len = rng.gen_range(1..100);
        let mut items = arb_items(rng, len);
        let mut grid = SpatialGrid::new(field(), CELL);
        grid.rebuild(items.iter().copied());

        for _ in 0..rng.gen_range(0..60) {
            let id = rng.gen_range(0..100usize) % items.len();
            let pos = arb_point(rng);
            items[id].1 = pos;
            grid.update_position(id, pos);
        }
        let center = arb_point(rng);
        let radius = rng.gen_range(0.0..600.0);

        assert_eq!(grid.len(), items.len());
        assert_eq!(
            sorted_query(&grid, center, radius),
            brute_force(&items, center, radius)
        );

        // Unsorted iteration order must equal a from-scratch rebuild's.
        let mut rebuilt = SpatialGrid::new(field(), CELL);
        rebuilt.rebuild(items.iter().copied());
        let mut a = Vec::new();
        let mut b = Vec::new();
        grid.for_each_in_range(center, radius, |id, p| a.push((id, p)));
        rebuilt.for_each_in_range(center, radius, |id, p| b.push((id, p)));
        assert_eq!(a, b);
    });
}

/// `nearest` agrees with the O(n) scan under the `(distance, id)`
/// tie-break. Sparse point sets over a fine-celled grid make the ring
/// search walk far past its first hit; the old cutoff (stop one ring
/// after the first candidate) fails this property whenever the first
/// hit lands near a diagonal while the true nearest hides two or more
/// rings further out.
#[test]
fn nearest_matches_brute_force_on_sparse_grids() {
    check(256, 0, |rng| {
        let len = rng.gen_range(1..8);
        let mut point = || Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let items: Vec<(usize, Point)> = (0..len).map(|id| (id, point())).collect();
        let target = point();
        let mut grid = SpatialGrid::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            10.0, // fine cells: nearest must often search many rings
        );
        grid.rebuild(items.iter().copied());

        let got = grid.nearest(target).map(|(id, _)| id);
        let want = items
            .iter()
            .min_by(|(ia, a), (ib, b)| {
                a.distance_sq(target)
                    .partial_cmp(&b.distance_sq(target))
                    .unwrap()
                    .then(ia.cmp(ib))
            })
            .map(|&(id, _)| id);
        assert_eq!(got, want);
    });
}

/// Remove un-indexes exactly the requested id and hands back the
/// position the grid last saw for it.
#[test]
fn remove_is_exact() {
    check(256, 0, |rng| {
        let len = rng.gen_range(1..60);
        let items = arb_items(rng, len);
        let victim = rng.gen_range(0..60usize) % items.len();
        let mut grid = SpatialGrid::new(field(), CELL);
        grid.rebuild(items.iter().copied());

        assert_eq!(grid.remove(victim), Some(items[victim].1));
        assert_eq!(grid.remove(victim), None);
        assert_eq!(grid.len(), items.len() - 1);

        let survivors: Vec<(usize, Point)> = items
            .iter()
            .copied()
            .filter(|&(id, _)| id != victim)
            .collect();
        let hits = sorted_query(&grid, Point::new(FIELD_W / 2.0, FIELD_H / 2.0), 2000.0);
        assert_eq!(hits, survivors);
    });
}
