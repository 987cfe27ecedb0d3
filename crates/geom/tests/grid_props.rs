//! Property-based tests for the spatial grid: range queries must agree
//! with an O(n) brute-force scan for arbitrary point sets — including
//! points on the field boundary and (clamped) out-of-bounds points —
//! and must keep agreeing after incremental `update_position` moves.

use alert_geom::{PackedCells, Point, Rect, SpatialGrid};
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

/// Side of a cell in the cell-order sweep properties. Integer
/// coordinates and 3-4-5 offsets scaled to 100 or 50 put points at
/// distance² exactly radius² for both pinned radii.
const SWEEP_CELL: f64 = 100.0;

/// A `cols` x `rows` grid of `SWEEP_CELL` cells. The field's width and
/// height fall a little short of whole cells, so the last column and
/// row are partial.
fn sweep_grid(cols: usize, rows: usize) -> SpatialGrid {
    let w = cols as f64 * SWEEP_CELL - 0.5;
    let h = rows as f64 * SWEEP_CELL - 0.5;
    SpatialGrid::new(
        Rect::new(Point::new(0.0, 0.0), Point::new(w, h)),
        SWEEP_CELL,
    )
}

/// The cell a `sweep_grid` files `p` in, as (row, column), clamped like
/// the grid's own.
fn sweep_cell_of(p: Point, cols: usize, rows: usize) -> (isize, isize) {
    (
        ((p.y / SWEEP_CELL) as isize).clamp(0, rows as isize - 1),
        ((p.x / SWEEP_CELL) as isize).clamp(0, cols as isize - 1),
    )
}

/// Points for a `cols` x `rows` sweep grid: uniform inside, on the field
/// edge, past it, crowded into one cell past the 64-item scan chunk, and
/// at exactly the radius from an integer-coordinate point.
fn sweep_points(rng: &mut StdRng, cols: usize, rows: usize, radius: f64) -> Vec<Point> {
    let (w, h) = (cols as f64 * SWEEP_CELL, rows as f64 * SWEEP_CELL);
    let mut points = Vec::new();
    for _ in 0..rng.gen_range(0..60) {
        points.push(match rng.gen_range(0..8) {
            0..=4 => Point::new(rng.gen_range(0.0..w), rng.gen_range(0.0..h)),
            5 => Point::new(
                [0.0, w - 0.5][rng.gen_range(0..2usize)],
                rng.gen_range(0.0..h),
            ),
            6 => Point::new(
                rng.gen_range(0.0..w),
                [0.0, h - 0.5][rng.gen_range(0..2usize)],
            ),
            _ => Point::new(
                rng.gen_range(-150.0..w + 150.0),
                rng.gen_range(-150.0..h + 150.0),
            ),
        });
    }
    if rng.gen_bool(0.5) {
        let cx = f64::from(rng.gen_range(0..cols as u32)) * SWEEP_CELL;
        let cy = f64::from(rng.gen_range(0..rows as u32)) * SWEEP_CELL;
        for _ in 0..rng.gen_range(65..150) {
            points.push(Point::new(
                cx + rng.gen_range(0.0..SWEEP_CELL - 0.5),
                cy + rng.gen_range(0.0..SWEEP_CELL - 0.5),
            ));
        }
    }
    if radius == SWEEP_CELL || radius == SWEEP_CELL / 2.0 {
        let k = radius / 5.0;
        for _ in 0..rng.gen_range(0..4) {
            let c = Point::new(
                f64::from(rng.gen_range(0..w as u32)),
                f64::from(rng.gen_range(0..h as u32)),
            );
            points.push(c);
            for (dx, dy) in [(3.0, 4.0), (-4.0, 3.0), (0.0, -5.0), (5.0, 0.0)] {
                points.push(Point::new(c.x + dx * k, c.y + dy * k));
            }
        }
    }
    points
}

/// What the sweep reported: per listener, its id, where its hits start
/// in `out` and the hits; and `out` itself.
type Sweep = (Vec<(usize, usize, Vec<u32>)>, Vec<u32>);

fn sweep(
    grid: &SpatialGrid,
    copy: &PackedCells,
    radius: f64,
    listens: &[bool],
    out: &mut Vec<u32>,
) -> Sweep {
    let mut calls = Vec::new();
    grid.for_each_heard(
        copy,
        radius,
        |id| listens[id],
        out,
        |id, at, hits| {
            calls.push((id, at, hits.to_vec()));
        },
    );
    (calls, out.clone())
}

/// The cell-order sweep's reference: every listener in (cell row, cell
/// column, id) order, each with its `for_each_in_range` hits minus itself
/// and minus the items that do not beacon, in the query's order, packed
/// one listener after the other.
fn sweep_reference(
    grid: &SpatialGrid,
    items: &[(usize, Point)],
    (cols, rows): (usize, usize),
    radius: f64,
    beacons: &[bool],
    listens: &[bool],
) -> Sweep {
    let mut order: Vec<(usize, Point)> = items
        .iter()
        .copied()
        .filter(|&(id, _)| listens[id])
        .collect();
    order.sort_by_key(|&(id, p)| (sweep_cell_of(p, cols, rows), id));
    let (mut calls, mut out) = (Vec::new(), Vec::new());
    for (me, p) in order {
        let mut hits = Vec::new();
        grid.for_each_in_range(p, radius, |id, _| {
            if id != me && beacons[id] {
                hits.push(id as u32);
            }
        });
        calls.push((me, out.len(), hits.clone()));
        out.extend(hits);
    }
    (calls, out)
}

/// The cell-order sweep over a packed copy reports, for every listener,
/// exactly the ids its own range query would, minus itself and minus the
/// hidden items, in the same order: on 1xN strips, Nx1 columns, a single
/// cell and NxM grids with N != M, with cells crowded past 64 items and
/// cells left empty, points exactly on the radius, points clamped onto
/// or lying past the field edge, radii of a whole and half a cell, and
/// items hidden from others while they still listen. A second round
/// after moves reuses the copy and the output buffer.
#[test]
fn cell_order_sweep_matches_each_items_range_query() {
    check(256, 2, |rng| {
        let cols = rng.gen_range(1..=6);
        let rows = if rng.gen_bool(0.3) {
            1
        } else {
            rng.gen_range(1..=6)
        };
        let radius = match rng.gen_range(0..3) {
            0 => SWEEP_CELL,
            1 => SWEEP_CELL / 2.0,
            _ => rng.gen_range(1.0..SWEEP_CELL),
        };
        let points = sweep_points(rng, cols, rows, radius);
        let mut items: Vec<(usize, Point)> = points.into_iter().enumerate().collect();
        let beacons: Vec<bool> = items.iter().map(|_| rng.gen_bool(0.8)).collect();
        let listens: Vec<bool> = items.iter().map(|_| rng.gen_bool(0.9)).collect();
        let mut grid = sweep_grid(cols, rows);
        grid.rebuild(items.iter().copied());
        let (mut copy, mut out) = (PackedCells::default(), Vec::new());
        for round in 0..2 {
            grid.pack(&mut copy, |id| beacons[id]);
            assert_eq!(copy.len(), beacons.iter().filter(|&&b| b).count());
            let got = sweep(&grid, &copy, radius, &listens, &mut out);
            let want = sweep_reference(&grid, &items, (cols, rows), radius, &beacons, &listens);
            assert_eq!(
                got, want,
                "{cols}x{rows} cells, radius {radius}, round {round}"
            );
            for (id, p) in items.iter_mut() {
                if rng.gen_bool(0.3) {
                    *p = Point::new(p.x + rng.gen_range(-80.0..80.0), p.y);
                    grid.update_position(*id, *p);
                }
            }
        }
    });
}

/// An empty grid, and a copy with every item hidden, report no hits.
#[test]
fn cell_order_sweep_on_nothing_reports_nothing() {
    let mut grid = sweep_grid(3, 2);
    let (mut copy, mut out) = (PackedCells::default(), vec![7; 4]);
    grid.pack(&mut copy, |_| true);
    assert!(copy.is_empty());
    assert_eq!(sweep(&grid, &copy, 50.0, &[], &mut out), (vec![], vec![]));
    grid.insert(0, Point::new(10.0, 10.0));
    grid.insert(1, Point::new(20.0, 10.0));
    grid.pack(&mut copy, |_| false);
    let (calls, out) = sweep(&grid, &copy, 50.0, &[true, true], &mut out);
    assert_eq!(calls, [(0, 0, vec![]), (1, 0, vec![])]);
    assert!(out.is_empty());
}

/// The sweep reads only each cell's 3x3 neighborhood, so a radius past
/// the cell size is refused rather than answered short.
#[test]
#[should_panic(expected = "exceeds the cell size")]
fn cell_order_sweep_refuses_a_radius_past_the_cell() {
    let mut grid = sweep_grid(2, 2);
    grid.insert(0, Point::new(10.0, 10.0));
    let mut copy = PackedCells::default();
    grid.pack(&mut copy, |_| true);
    grid.for_each_heard(
        &copy,
        SWEEP_CELL + 1e-9,
        |_| true,
        &mut Vec::new(),
        |_, _, _| {},
    );
}
