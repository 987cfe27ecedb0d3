//! A uniform spatial hash grid for radio-range neighbor queries.
//!
//! The simulator asks, for every transmission, "which nodes are within
//! 250 m of the sender?". A linear scan over `N` nodes per transmission
//! makes the whole simulation `O(N^2)`; bucketing positions into cells of
//! the query radius reduces each query to the 3x3 cell neighborhood. This
//! is the standard cell-list technique from particle simulation.
//!
//! On top of the fine cells sits a coarse occupancy level: cells are
//! grouped into [`BLOCK`]`x`[`BLOCK`] blocks, each tracking how many
//! items its cells hold. Queries consult the block counters to hop over
//! empty regions a block at a time, which matters once the field is
//! scaled up for large node counts and most cells are empty.
//!
//! When every item asks the same question at once (the simulator's hello
//! round), [`SpatialGrid::pack`] and [`SpatialGrid::for_each_heard`]
//! answer it cell by cell over a cell-sorted copy of the items instead
//! of running one query per item.

use crate::point::Point;
use crate::rect::Rect;

/// Side length of a coarse block, in cells. A block's counter is the sum
/// of the item counts of its `BLOCK * BLOCK` cells.
const BLOCK: usize = 8;

/// A rebuildable spatial index over indexed points.
///
/// Items are identified by their `usize` id (the simulator's node id).
/// Between full rebuilds, [`SpatialGrid::update_position`] moves single
/// items incrementally, so a mobility step costs one cell transfer per
/// node that actually crossed a cell boundary instead of a full
/// clear+reinsert. Both paths keep the structure allocation-free in
/// steady state because cell vectors retain their capacity.
///
/// Each cell keeps its items sorted by id, which makes iteration order —
/// and therefore every downstream consumer of query results — a pure
/// function of the item set, not of insertion history. Incremental
/// updates and full rebuilds are thus observably identical, which the
/// simulator's byte-identical-trace guarantee depends on. The coarse
/// block level only skips cells that hold nothing, so it cannot change
/// which items a query visits or in which order.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<(usize, Point)>>,
    /// Coarse level: item count per `BLOCK x BLOCK` block of cells.
    blocks: Vec<u32>,
    bcols: usize,
    /// id → index of the cell currently holding that id
    /// (`usize::MAX` = not indexed). Grows to the highest id seen.
    locate: Vec<usize>,
    len: usize,
}

/// Sentinel in `locate` for ids that are not currently indexed.
const ABSENT: usize = usize::MAX;

/// Items of a cell a range query tests before it calls back for the
/// hits; a power of two that fits a `u8` index.
const SCAN_CHUNK: usize = 64;

/// A cell-sorted struct-of-arrays copy of some of a grid's items, made
/// by [`SpatialGrid::pack`] and read by [`SpatialGrid::for_each_heard`].
/// Cell `c`'s items are `starts[c]..starts[c + 1]` of the `xs`, `ys` and
/// `ids` arrays, in id order, and cells are in row-major order. So the
/// cells `x0..=x1` of one row are one contiguous slice. The buffers keep
/// their capacity from one pack to the next.
#[derive(Debug, Clone, Default)]
pub struct PackedCells {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u32>,
    starts: Vec<u32>,
}

impl PackedCells {
    /// Number of items in the copy.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the copy holds no item.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends to `out[len..]` the ids of the items of `self.ids[a..b]`
    /// within `r2` (squared) of `center`, other than `me`, and returns the
    /// new logical length. Every candidate is written and the end
    /// advances only on a hit, so the loop has no branch on the outcome;
    /// `out` is grown, never shrunk, to fit all candidates.
    fn hits_in(
        &self,
        (a, b): (usize, usize),
        center: Point,
        r2: f64,
        me: u32,
        out: &mut Vec<u32>,
        len: usize,
    ) -> usize {
        let need = len + (b - a);
        if out.len() < need {
            out.resize(need, 0);
        }
        let dst = &mut out[len..need];
        let mut n = 0;
        let (xs, ys, ids) = (&self.xs[a..b], &self.ys[a..b], &self.ids[a..b]);
        for ((&x, &y), &id) in xs.iter().zip(ys).zip(ids) {
            dst[n] = id;
            let near = Point::new(x, y).distance_sq(center) <= r2;
            n += usize::from(near & (id != me));
        }
        len + n
    }
}

impl SpatialGrid {
    /// Creates a grid covering `bounds` with cells of side `cell_size`
    /// (use the radio range for O(1)-neighborhood range queries).
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive or `bounds` is
    /// degenerate.
    pub fn new(bounds: Rect, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "grid bounds must have positive area"
        );
        let cols = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        let bcols = cols.div_ceil(BLOCK);
        let brows = rows.div_ceil(BLOCK);
        SpatialGrid {
            bounds,
            cell: cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            blocks: vec![0; bcols * brows],
            bcols,
            locate: Vec::new(),
            len: 0,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The covered area.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        // Clamp so positions on (or marginally past) the boundary index the
        // edge cells instead of panicking.
        let cx =
            (((p.x - self.bounds.min.x) / self.cell) as isize).clamp(0, self.cols as isize - 1);
        let cy =
            (((p.y - self.bounds.min.y) / self.cell) as isize).clamp(0, self.rows as isize - 1);
        (cx as usize, cy as usize)
    }

    /// The coarse block holding flat cell index `cell`.
    fn block_of(&self, cell: usize) -> usize {
        let cy = cell / self.cols;
        let cx = cell % self.cols;
        (cy / BLOCK) * self.bcols + cx / BLOCK
    }

    /// Removes every item, keeping cell capacity.
    pub fn clear(&mut self) {
        for c in &mut self.cells {
            c.clear();
        }
        self.blocks.fill(0);
        self.locate.fill(ABSENT);
        self.len = 0;
    }

    /// Indexes item `id` at `pos`. The id must not already be indexed
    /// (use [`SpatialGrid::update_position`] to move an existing item).
    pub fn insert(&mut self, id: usize, pos: Point) {
        debug_assert!(
            self.locate.get(id).copied().unwrap_or(ABSENT) == ABSENT,
            "id {id} inserted twice"
        );
        let (cx, cy) = self.cell_of(pos);
        let cell = cy * self.cols + cx;
        let block = self.block_of(cell);
        Self::place(&mut self.cells[cell], id, pos);
        self.blocks[block] += 1;
        if self.locate.len() <= id {
            self.locate.resize(id + 1, ABSENT);
        }
        self.locate[id] = cell;
        self.len += 1;
    }

    /// Inserts `(id, pos)` into a cell vector, keeping it sorted by id.
    fn place(cell: &mut Vec<(usize, Point)>, id: usize, pos: Point) {
        let at = cell.partition_point(|&(other, _)| other < id);
        cell.insert(at, (id, pos));
    }

    /// Removes item `id`; returns its last indexed position, or `None` if
    /// the id was not indexed.
    pub fn remove(&mut self, id: usize) -> Option<Point> {
        let cell = *self.locate.get(id)?;
        if cell == ABSENT {
            return None;
        }
        let block = self.block_of(cell);
        let v = &mut self.cells[cell];
        let at = v.partition_point(|&(other, _)| other < id);
        debug_assert!(at < v.len() && v[at].0 == id, "locate out of sync");
        let (_, pos) = v.remove(at);
        self.blocks[block] -= 1;
        self.locate[id] = ABSENT;
        self.len -= 1;
        Some(pos)
    }

    /// Moves item `id` to `pos` incrementally: a same-cell move overwrites
    /// the stored position in place, a cell crossing transfers the item
    /// between the two cells. Indexes the id if it was absent. Equivalent
    /// to (but much cheaper than) a full [`SpatialGrid::rebuild`] with the
    /// updated position.
    pub fn update_position(&mut self, id: usize, pos: Point) {
        let (cx, cy) = self.cell_of(pos);
        let new_cell = cy * self.cols + cx;
        let old_cell = self.locate.get(id).copied().unwrap_or(ABSENT);
        if old_cell == new_cell {
            let v = &mut self.cells[old_cell];
            let at = v.partition_point(|&(other, _)| other < id);
            debug_assert!(at < v.len() && v[at].0 == id, "locate out of sync");
            v[at].1 = pos;
            return;
        }
        if old_cell != ABSENT {
            let old_block = self.block_of(old_cell);
            let v = &mut self.cells[old_cell];
            let at = v.partition_point(|&(other, _)| other < id);
            debug_assert!(at < v.len() && v[at].0 == id, "locate out of sync");
            v.remove(at);
            self.blocks[old_block] -= 1;
            self.len -= 1;
        }
        let new_block = self.block_of(new_cell);
        Self::place(&mut self.cells[new_cell], id, pos);
        self.blocks[new_block] += 1;
        if self.locate.len() <= id {
            self.locate.resize(id + 1, ABSENT);
        }
        self.locate[id] = new_cell;
        self.len += 1;
    }

    /// Rebuilds the grid from an iterator of `(id, position)` pairs.
    pub fn rebuild<I: IntoIterator<Item = (usize, Point)>>(&mut self, items: I) {
        self.clear();
        for (id, p) in items {
            self.insert(id, p);
        }
    }

    /// Visits the cells of row `cy` with `cx` in `[x0, x1]`, hopping over
    /// empty coarse blocks, in increasing-`cx` order. The hop only skips
    /// cells that hold nothing, so the visit order of items is untouched.
    fn scan_row<F: FnMut(&[(usize, Point)])>(&self, cy: usize, x0: usize, x1: usize, f: &mut F) {
        let brow = (cy / BLOCK) * self.bcols;
        let mut cx = x0;
        while cx <= x1 {
            if self.blocks[brow + cx / BLOCK] == 0 {
                // Nothing anywhere in this block: jump past it.
                cx = (cx / BLOCK + 1) * BLOCK;
                continue;
            }
            f(&self.cells[cy * self.cols + cx]);
            cx += 1;
        }
    }

    /// Calls `f(id, position)` for every item within `radius` of `center`
    /// (inclusive), including an item exactly at `center`, in (cell row,
    /// cell column, id) order.
    ///
    /// A cell is tested 64 items (`SCAN_CHUNK`) at a time without a
    /// branch on the outcome: every item's index is written to a hit list
    /// whose end advances only when the item is in range, and `f` runs
    /// over the hits afterwards. About a third of the candidates are
    /// hits, so a per-item branch would mispredict often.
    pub fn for_each_in_range<F: FnMut(usize, Point)>(&self, center: Point, radius: f64, mut f: F) {
        let r2 = radius * radius;
        let span = (radius / self.cell).ceil() as isize;
        let (ccx, ccy) = self.cell_of(center);
        let (ccx, ccy) = (ccx as isize, ccy as isize);
        let x0 = (ccx - span).max(0) as usize;
        let x1 = ((ccx + span).min(self.cols as isize - 1)) as usize;
        let mut hits = [0u8; SCAN_CHUNK];
        for cy in (ccy - span).max(0)..=(ccy + span).min(self.rows as isize - 1) {
            self.scan_row(cy as usize, x0, x1, &mut |cell| {
                for chunk in cell.chunks(SCAN_CHUNK) {
                    let mut n = 0;
                    for (j, &(_, p)) in chunk.iter().enumerate() {
                        // n <= j < SCAN_CHUNK, so the mask only drops
                        // the bounds check.
                        hits[n & (SCAN_CHUNK - 1)] = j as u8;
                        n += usize::from(p.distance_sq(center) <= r2);
                    }
                    for &j in &hits[..n] {
                        let (id, p) = chunk[usize::from(j)];
                        f(id, p);
                    }
                }
            });
        }
    }

    /// Copies the items `keep` accepts into `copy`, in cell order and by
    /// id within a cell, replacing what it held. O(items + cells).
    ///
    /// # Panics
    /// Panics if an accepted id, or the number of accepted items, does
    /// not fit a `u32`.
    pub fn pack(&self, copy: &mut PackedCells, mut keep: impl FnMut(usize) -> bool) {
        let PackedCells {
            xs,
            ys,
            ids,
            starts,
        } = copy;
        xs.clear();
        ys.clear();
        ids.clear();
        starts.clear();
        let offset = |ids: &Vec<u32>| u32::try_from(ids.len()).expect("packed items fit a u32");
        for cell in &self.cells {
            starts.push(offset(ids));
            for &(id, p) in cell {
                if keep(id) {
                    xs.push(p.x);
                    ys.push(p.y);
                    ids.push(u32::try_from(id).expect("packed ids fit a u32"));
                }
            }
        }
        starts.push(offset(ids));
    }

    /// For every item `listens` accepts, cell by cell in (cell row, cell
    /// column, id) order: appends to `out` the ids of the items of `copy`
    /// within `radius` of it (inclusive), other than itself, then calls
    /// `f(id, at, hits)` with `hits == &out[at..]`, what it just appended.
    /// `out` ends up holding every listener's hits, one listener after
    /// the other.
    ///
    /// A listener's hits are exactly what [`SpatialGrid::for_each_in_range`]
    /// at its position visits, minus itself and minus the items `copy`
    /// left out, in the same order. As the radius is at most one cell,
    /// that query's 3x3 cells are three row slices of the cell-sorted
    /// copy, which it tests with the same `distance_sq <= r²` comparison.
    /// `copy` must have been packed from this grid since its last change.
    ///
    /// # Panics
    /// Panics if `radius` exceeds the cell size (or is NaN), if `copy`
    /// was packed from a grid with a different cell count, or if a
    /// listener's id does not fit a `u32`.
    pub fn for_each_heard(
        &self,
        copy: &PackedCells,
        radius: f64,
        mut listens: impl FnMut(usize) -> bool,
        out: &mut Vec<u32>,
        mut f: impl FnMut(usize, usize, &[u32]),
    ) {
        assert!(
            radius <= self.cell,
            "radius {radius} exceeds the cell size {}",
            self.cell
        );
        assert_eq!(
            copy.starts.len(),
            self.cells.len() + 1,
            "copy packed from another grid"
        );
        let r2 = radius * radius;
        let mut len = 0;
        for cy in 0..self.rows {
            let y0 = cy.saturating_sub(1);
            let y1 = (cy + 1).min(self.rows - 1);
            for cx in 0..self.cols {
                let cell = &self.cells[cy * self.cols + cx];
                if cell.is_empty() {
                    continue;
                }
                let x0 = cx.saturating_sub(1);
                let x1 = (cx + 1).min(self.cols - 1);
                // The copy's slice of each row of the 3x3 neighborhood;
                // a missing row (at the field edge) is an empty slice.
                let mut slices = [(0, 0); 3];
                for (slice, ry) in slices.iter_mut().zip(y0..=y1) {
                    let row = ry * self.cols;
                    *slice = (
                        copy.starts[row + x0] as usize,
                        copy.starts[row + x1 + 1] as usize,
                    );
                }
                for &(id, p) in cell {
                    if !listens(id) {
                        continue;
                    }
                    let me = u32::try_from(id).expect("listener ids fit a u32");
                    let at = len;
                    for &slice in &slices {
                        len = copy.hits_in(slice, p, r2, me, out, len);
                    }
                    f(id, at, &out[at..len]);
                }
            }
        }
        out.truncate(len);
    }

    /// Collects the ids of all items within `radius` of `center`.
    pub fn query_range(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_range(center, radius, |id, _| out.push(id));
        out
    }

    /// Collects the ids of all items inside `rect` (boundaries inclusive).
    pub fn query_rect(&self, rect: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        let (minx, miny) = self.cell_of(rect.min);
        let (maxx, maxy) = self.cell_of(rect.max);
        for cy in miny..=maxy {
            self.scan_row(cy, minx, maxx, &mut |cell| {
                for &(id, p) in cell {
                    if rect.contains(p) {
                        out.push(id);
                    }
                }
            });
        }
        out
    }

    /// Returns the id and position of the indexed item closest to `target`,
    /// or `None` when the grid is empty. Ties break towards the lower id so
    /// results are deterministic across runs.
    pub fn nearest(&self, target: Point) -> Option<(usize, Point)> {
        if self.len == 0 {
            return None;
        }
        // Expanding ring search over cells at Chebyshev distance `ring`
        // from the target's cell. A cell on ring `r` can hold a point as
        // close as `(r - 1) * cell` of the target (which may sit on its
        // own cell's edge), so after finishing ring `r` every unexplored
        // cell is at least `r * cell` away: the search may only stop once
        // `ring * cell > sqrt(best_d2)`. Stopping any earlier — say one
        // ring after the first hit — can miss a closer point sitting two
        // rings further out when the first hit was near a diagonal.
        let (tcx, tcy) = self.cell_of(target);
        let (tcx, tcy) = (tcx as isize, tcy as isize);
        let max_ring = self.cols.max(self.rows) as isize;
        let mut best: Option<(usize, Point, f64)> = None;
        for ring in 0..=max_ring {
            self.scan_ring(target, tcx, tcy, ring, &mut best);
            if let Some((_, _, bd)) = best {
                if ring as f64 * self.cell > bd.sqrt() {
                    break;
                }
            }
        }
        best.map(|(id, p, _)| (id, p))
    }

    /// Scans the perimeter cells of the given ring, folding every item
    /// into `best` by `(distance, id)`.
    fn scan_ring(
        &self,
        target: Point,
        tcx: isize,
        tcy: isize,
        ring: isize,
        best: &mut Option<(usize, Point, f64)>,
    ) {
        let mut fold = |cell: &[(usize, Point)]| {
            for &(id, p) in cell {
                let d = p.distance_sq(target);
                let better = match *best {
                    None => true,
                    Some((bid, _, bd)) => d < bd || (d == bd && id < bid),
                };
                if better {
                    *best = Some((id, p, d));
                }
            }
        };
        // Top and bottom rows of the ring (full horizontal extent).
        let x0 = (tcx - ring).max(0) as usize;
        let x1 = ((tcx + ring).min(self.cols as isize - 1)) as usize;
        let rows_in_grid = tcx + ring >= 0 && tcx - ring < self.cols as isize;
        for cy in [tcy - ring, tcy + ring] {
            if rows_in_grid && (0..self.rows as isize).contains(&cy) {
                self.scan_row(cy as usize, x0, x1, &mut fold);
            }
            if ring == 0 {
                break; // the two rows coincide
            }
        }
        // Left and right columns, excluding the corners already visited.
        for cx in [tcx - ring, tcx + ring] {
            if ring == 0 || !(0..self.cols as isize).contains(&cx) {
                continue;
            }
            let y1 = (tcy + ring - 1).min(self.rows as isize - 1);
            let mut cy = (tcy - ring + 1).max(0);
            while cy <= y1 {
                // Hop over vertically empty block spans.
                let bidx = (cy as usize / BLOCK) * self.bcols + cx as usize / BLOCK;
                if self.blocks[bidx] == 0 {
                    cy = (cy / BLOCK as isize + 1) * BLOCK as isize;
                    continue;
                }
                fold(&self.cells[cy as usize * self.cols + cx as usize]);
                cy += 1;
            }
        }
    }

    /// The sum of the coarse per-block counters; equals
    /// [`SpatialGrid::len`] whenever the two levels are consistent
    /// (exercised by the grid's tests).
    #[doc(hidden)]
    pub fn coarse_len(&self) -> usize {
        self.blocks.iter().map(|&c| c as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_rng::{Rng, SeedableRng, StdRng};

    fn grid_with(points: &[(usize, Point)]) -> SpatialGrid {
        let mut g = SpatialGrid::new(Rect::with_size(1000.0, 1000.0), 250.0);
        g.rebuild(points.iter().copied());
        g
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(42);
        let pts: Vec<(usize, Point)> = (0..500)
            .map(|i| {
                (
                    i,
                    Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                )
            })
            .collect();
        let g = grid_with(&pts);
        for _ in 0..50 {
            let c = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let r = rng.gen_range(10.0..400.0);
            let mut got = g.query_range(c, r);
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .filter(|(_, p)| p.distance(c) <= r)
                .map(|(i, _)| *i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn rect_query_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(43);
        let pts: Vec<(usize, Point)> = (0..300)
            .map(|i| {
                (
                    i,
                    Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                )
            })
            .collect();
        let g = grid_with(&pts);
        let zone = Rect::new(Point::new(125.0, 250.0), Point::new(375.0, 500.0));
        let mut got = g.query_rect(&zone);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .filter(|(_, p)| zone.contains(*p))
            .map(|(i, _)| *i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(44);
        let pts: Vec<(usize, Point)> = (0..200)
            .map(|i| {
                (
                    i,
                    Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                )
            })
            .collect();
        let g = grid_with(&pts);
        for _ in 0..100 {
            let t = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let got = g.nearest(t).unwrap();
            let want = pts
                .iter()
                .min_by(|(ia, a), (ib, b)| {
                    a.distance_sq(t)
                        .partial_cmp(&b.distance_sq(t))
                        .unwrap()
                        .then(ia.cmp(ib))
                })
                .unwrap();
            assert_eq!(got.0, want.0, "target {t}");
        }
    }

    /// Regression for the old ring cutoff, which stopped one ring after
    /// the first hit. With the target on its cell's top edge, a hit in
    /// the far corner of the ring-1 diagonal cell sits ~2.15 cell-widths
    /// away, while the true nearest waits on ring 3 — a ring the old
    /// bound never scanned.
    #[test]
    fn nearest_is_not_fooled_by_a_diagonal_first_hit() {
        let target = Point::new(0.5, 9.5); // top edge of cell (0,0)

        let mut g = SpatialGrid::new(Rect::with_size(100.0, 100.0), 10.0);
        g.insert(0, Point::new(19.5, 19.5)); // ring 1, cell (1,1), d ≈ 21.47
        g.insert(1, Point::new(0.5, 30.5)); // ring 3, cell (0,3), d = 21 — nearest
        assert_eq!(g.nearest(target).unwrap().0, 1);

        // Same trap one ring out: decoy on ring 2, winner on ring 4 —
        // beyond even a "first hit + 2" heuristic.
        let mut g = SpatialGrid::new(Rect::with_size(100.0, 100.0), 10.0);
        g.insert(0, Point::new(29.5, 29.5)); // ring 2, cell (2,2), d ≈ 35.23
        g.insert(1, Point::new(0.5, 40.5)); // ring 4, cell (0,4), d = 31
        assert_eq!(g.nearest(target).unwrap().0, 1);
    }

    #[test]
    fn nearest_on_empty_grid_is_none() {
        let g = SpatialGrid::new(Rect::with_size(100.0, 100.0), 10.0);
        assert!(g.nearest(Point::new(5.0, 5.0)).is_none());
    }

    #[test]
    fn positions_outside_bounds_are_clamped_not_lost() {
        let mut g = SpatialGrid::new(Rect::with_size(100.0, 100.0), 10.0);
        g.insert(7, Point::new(150.0, -20.0)); // strayed node
        assert_eq!(g.len(), 1);
        assert_eq!(g.nearest(Point::new(99.0, 1.0)).unwrap().0, 7);
    }

    #[test]
    fn incremental_updates_match_a_full_rebuild() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut pts: Vec<(usize, Point)> = (0..400)
            .map(|i| {
                (
                    i,
                    Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                )
            })
            .collect();
        let mut incremental = grid_with(&pts);
        for _ in 0..5 {
            for (id, p) in &mut pts {
                // Mix of tiny same-cell jitters and long jumps.
                let step: f64 = if rng.gen_bool(0.8) { 5.0 } else { 400.0 };
                p.x = (p.x + rng.gen_range(-step..step)).clamp(0.0, 1000.0);
                p.y = (p.y + rng.gen_range(-step..step)).clamp(0.0, 1000.0);
                incremental.update_position(*id, *p);
            }
            let rebuilt = grid_with(&pts);
            // Not just the same sets — the same *iteration order*, which is
            // what downstream trace determinism observes.
            for _ in 0..10 {
                let c = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                let r = rng.gen_range(50.0..400.0);
                let mut a = Vec::new();
                let mut b = Vec::new();
                incremental.for_each_in_range(c, r, |id, p| a.push((id, p)));
                rebuilt.for_each_in_range(c, r, |id, p| b.push((id, p)));
                assert_eq!(a, b);
            }
            assert_eq!(incremental.coarse_len(), incremental.len());
        }
    }

    #[test]
    fn update_position_indexes_absent_ids() {
        let mut g = SpatialGrid::new(Rect::with_size(100.0, 100.0), 10.0);
        g.update_position(3, Point::new(5.0, 5.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.query_range(Point::new(5.0, 5.0), 1.0), vec![3]);
    }

    #[test]
    fn remove_unindexes_and_reports_the_position() {
        let mut g = grid_with(&[(0, Point::new(1.0, 1.0)), (5, Point::new(90.0, 90.0))]);
        assert_eq!(g.remove(5), Some(Point::new(90.0, 90.0)));
        assert_eq!(g.remove(5), None);
        assert_eq!(g.remove(99), None);
        assert_eq!(g.len(), 1);
        assert!(g.query_range(Point::new(90.0, 90.0), 5.0).is_empty());
    }

    #[test]
    fn clear_retains_nothing() {
        let mut g = grid_with(&[(0, Point::new(1.0, 1.0)), (1, Point::new(2.0, 2.0))]);
        assert_eq!(g.len(), 2);
        g.clear();
        assert!(g.is_empty());
        assert!(g.query_range(Point::new(1.0, 1.0), 50.0).is_empty());
        assert_eq!(g.coarse_len(), 0);
    }

    /// The coarse counters stay in lockstep with the fine cells across a
    /// sparse, large field — the regime the block level exists for.
    #[test]
    fn coarse_level_tracks_a_sparse_large_field() {
        let mut rng = StdRng::seed_from_u64(46);
        // 40x40 cells (5x5 blocks), only 25 items: most blocks empty.
        let side = 10_000.0;
        let mut g = SpatialGrid::new(Rect::with_size(side, side), 250.0);
        let mut pts: Vec<(usize, Point)> = (0..25)
            .map(|i| {
                (
                    i,
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                )
            })
            .collect();
        g.rebuild(pts.iter().copied());
        for round in 0..20 {
            for (id, p) in &mut pts {
                p.x = rng.gen_range(0.0..side);
                p.y = rng.gen_range(0.0..side);
                g.update_position(*id, *p);
            }
            assert_eq!(g.coarse_len(), g.len(), "round {round}");
            // Range queries that must hop across many empty blocks.
            let c = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let r = rng.gen_range(500.0..6000.0);
            let mut got = g.query_range(c, r);
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .filter(|(_, p)| p.distance(c) <= r)
                .map(|(i, _)| *i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            // Nearest across mostly empty space.
            let t = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let got = g.nearest(t).unwrap().0;
            let want = pts
                .iter()
                .min_by(|(ia, a), (ib, b)| {
                    a.distance_sq(t)
                        .partial_cmp(&b.distance_sq(t))
                        .unwrap()
                        .then(ia.cmp(ib))
                })
                .unwrap()
                .0;
            assert_eq!(got, want, "round {round}");
        }
    }
}
