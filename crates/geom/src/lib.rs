//! # alert-geom
//!
//! Planar geometry for the ALERT reproduction: points, zones (axis-aligned
//! rectangles), the paper's hierarchical zone partition (Sections 2.3–2.4),
//! and a spatial hash grid used by the simulator for radio-range queries.
//!
//! Everything in this crate is deterministic and allocation-light; it forms
//! the innermost layer of the workspace (no dependency on the simulator or
//! the protocols).
//!
//! ## Quick example
//!
//! ```
//! use alert_geom::{Axis, Point, Rect, destination_zone, required_partitions};
//!
//! // 1 km x 1 km field with 200 nodes, k = 6.25 target zone population.
//! let field = Rect::with_size(1000.0, 1000.0);
//! let h = required_partitions(200.0 / field.area(), field.area(), 6.25);
//! assert_eq!(h, 5);
//! let zd = destination_zone(&field, Point::new(900.0, 880.0), h, Axis::Vertical);
//! assert!(zd.contains(Point::new(900.0, 880.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod partition;
mod point;
mod rect;

pub use grid::{PackedCells, SpatialGrid};
pub use partition::{
    destination_zone, required_partitions, separate, zone_side_lengths, Axis, SeparateOutcome,
    Separation,
};
pub use point::Point;
pub use rect::Rect;
