//! Planar geometry primitives used by layouts and clock trees.
//!
//! The paper measures everything — skew, distribution time, wire delay —
//! in terms of *physical length* in a planar layout (assumptions A2/A3:
//! cells occupy unit area, wires have unit width). This module provides
//! the points and rectangles those lengths are measured on, and the
//! length of a wire routed through a sequence of way-points.
//!
//! Coordinates are `f64` multiples of the unit cell pitch. All layout
//! generators in this crate place cells on integer coordinates, so
//! floating-point error does not accumulate in practice; lengths are
//! compared with [`approx_eq`] where exactness cannot be assumed.

use std::fmt;

/// Tolerance used by [`approx_eq`] for comparing lengths.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two lengths are equal within [`EPSILON`].
///
/// # Examples
///
/// ```
/// assert!(array_layout::geom::approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!array_layout::geom::approx_eq(1.0, 1.1));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON * (1.0 + a.abs().max(b.abs()))
}

/// A point in the layout plane, in units of the cell pitch.
///
/// # Examples
///
/// ```
/// use array_layout::geom::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.euclidean(b), 5.0);
/// assert_eq!(a.manhattan(b), 7.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    #[must_use]
    pub fn origin() -> Self {
        Point::default()
    }

    /// Euclidean (straight-line) distance to `other`.
    #[must_use]
    pub fn euclidean(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Manhattan (rectilinear) distance to `other`.
    ///
    /// Wires in the paper's layouts run rectilinearly, so this is the
    /// natural "wire length" between two points.
    #[must_use]
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise midpoint between `self` and `other`.
    #[must_use]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Translates the point by `(dx, dy)`.
    #[must_use]
    pub fn translated(self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// `f64::min` under `total_cmp`, which orders −0 below +0: unlike
/// `f64::min`, whose result for ±0 may be either operand, a box folded
/// from points gets the same bits in any order.
fn lo(a: f64, b: f64) -> f64 {
    std::cmp::min_by(a, b, f64::total_cmp)
}

/// `f64::max` under `total_cmp`; see [`lo`].
fn hi(a: f64, b: f64) -> f64 {
    std::cmp::max_by(a, b, f64::total_cmp)
}

/// An axis-aligned rectangle, used for layout bounding boxes.
///
/// # Examples
///
/// ```
/// use array_layout::geom::{Point, Rect};
///
/// let r = Rect::from_corners(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
/// assert_eq!(r.area(), 8.0);
/// assert_eq!(r.aspect_ratio(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Builds the smallest rectangle containing both corner points.
    #[must_use]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(lo(a.x, b.x), lo(a.y, b.y)),
            max: Point::new(hi(a.x, b.x), hi(a.y, b.y)),
        }
    }

    /// The smallest rectangle containing every point in `points`.
    ///
    /// Returns `None` when `points` is empty.
    #[must_use]
    pub fn bounding<I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = Point>,
    {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut rect = Rect::from_corners(first, first);
        for p in iter {
            rect = rect.expanded_to(p);
        }
        Some(rect)
    }

    /// Grows the rectangle (if needed) to contain `p`.
    #[must_use]
    pub fn expanded_to(self, p: Point) -> Self {
        Rect {
            min: Point::new(lo(self.min.x, p.x), lo(self.min.y, p.y)),
            max: Point::new(hi(self.max.x, p.x), hi(self.max.y, p.y)),
        }
    }

    /// Lower-left corner.
    #[must_use]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    #[must_use]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width along the x axis.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along the y axis.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Ratio of the longer side to the shorter side (always ≥ 1).
    ///
    /// Degenerate rectangles (zero-size sides) report an aspect ratio of
    /// 1 so that a single-cell layout counts as "bounded aspect ratio".
    #[must_use]
    pub fn aspect_ratio(&self) -> f64 {
        let (w, h) = (self.width().max(1.0), self.height().max(1.0));
        if w > h {
            w / h
        } else {
            h / w
        }
    }

    /// Length of the rectangle's diagonal; the layout "diameter" that
    /// assumption A6 relates to equipotential clock-distribution time.
    #[must_use]
    pub fn diameter(&self) -> f64 {
        self.min.euclidean(self.max)
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x - EPSILON
            && p.x <= self.max.x + EPSILON
            && p.y >= self.min.y - EPSILON
            && p.y <= self.max.y + EPSILON
    }
}

/// Physical length of a wire routed through `points`: the sum of its
/// segment lengths, in order — the quantity the paper's delay and skew
/// models consume.
///
/// # Examples
///
/// ```
/// use array_layout::geom::{route_length, Point};
///
/// let wire = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(2.0, 3.0)];
/// assert_eq!(route_length(&wire), 5.0);
/// ```
#[must_use]
pub fn route_length(points: &[Point]) -> f64 {
    points.windows(2).map(|w| w[0].euclidean(w[1])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_and_manhattan_distances() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 5.0);
        assert!(approx_eq(a.euclidean(b), 5.0));
        assert!(approx_eq(a.manhattan(b), 7.0));
        assert!(approx_eq(a.euclidean(a), 0.0));
    }

    #[test]
    fn midpoint_is_halfway() {
        let m = Point::new(0.0, 0.0).midpoint(Point::new(2.0, 6.0));
        assert_eq!(m, Point::new(1.0, 3.0));
    }

    #[test]
    fn point_from_tuple() {
        let p: Point = (2.5, -1.0).into();
        assert_eq!(p, Point::new(2.5, -1.0));
    }

    #[test]
    fn rect_from_unordered_corners() {
        let r = Rect::from_corners(Point::new(5.0, 1.0), Point::new(1.0, 4.0));
        assert_eq!(r.min(), Point::new(1.0, 1.0));
        assert_eq!(r.max(), Point::new(5.0, 4.0));
        assert!(approx_eq(r.width(), 4.0));
        assert!(approx_eq(r.height(), 3.0));
        assert!(approx_eq(r.diameter(), 5.0));
    }

    #[test]
    fn rect_bounding_of_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, 1.0),
        ];
        let r = Rect::bounding(pts).expect("non-empty");
        assert_eq!(r.min(), Point::new(-2.0, 0.0));
        assert_eq!(r.max(), Point::new(4.0, 3.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn rect_aspect_ratio_always_at_least_one() {
        let tall = Rect::from_corners(Point::origin(), Point::new(1.0, 10.0));
        let wide = Rect::from_corners(Point::origin(), Point::new(10.0, 1.0));
        assert!(approx_eq(tall.aspect_ratio(), 10.0));
        assert!(approx_eq(wide.aspect_ratio(), 10.0));
        let dot = Rect::from_corners(Point::origin(), Point::origin());
        assert!(approx_eq(dot.aspect_ratio(), 1.0));
    }

    #[test]
    fn rect_contains_boundary_points() {
        let r = Rect::from_corners(Point::origin(), Point::new(2.0, 2.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 2.0)));
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }

    #[test]
    fn route_length_sums_segments() {
        let route = [
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ];
        assert!(approx_eq(route_length(&route), 7.0));
        assert!(approx_eq(route_length(&route[..2]), 3.0));
    }
}
