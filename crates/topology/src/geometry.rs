//! Planar geometry primitives used by the topology and by RTR's first phase.
//!
//! The paper models routers as points in a 2000 × 2000 area and links as
//! straight segments between their endpoints. Three geometric questions
//! drive the whole system:
//!
//! 1. does a link *cross* the failure area (segment–region intersection)?
//! 2. do two links *cross* each other (proper segment intersection, needed
//!    for the `cross_link` constraints of RTR's first phase)?
//! 3. in which counterclockwise order do a node's neighbors appear around a
//!    sweeping line (the right-hand rule of RTR's first phase)?
//!
//! All computations use `f64`. Topology coordinates are sanitized at
//! construction (finite, non-NaN), so the functions here don't re-validate.

use std::fmt;

/// A point in the simulation plane.
///
/// # Examples
///
/// ```
/// use rtr_topology::geometry::Point;
/// let origin = Point::new(0.0, 0.0);
/// let p = Point::new(3.0, 4.0);
/// assert_eq!(origin.distance(p), 5.0);
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
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root).
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns true if both coordinates are finite (not NaN/∞).
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
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

/// A line segment between two points.
///
/// Links in the topology are straight segments between router coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// One endpoint.
    pub a: Point,
    /// The other endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between `a` and `b`.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint of the segment.
    pub fn midpoint(self) -> Point {
        Point::new((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)
    }

    /// Minimum distance from point `p` to this segment.
    pub fn distance_to_point(self, p: Point) -> f64 {
        let len2 = self.a.distance_squared(self.b);
        if len2 == 0.0 {
            return self.a.distance(p);
        }
        // Project p onto the infinite line, clamp to the segment.
        let t = ((p.x - self.a.x) * (self.b.x - self.a.x)
            + (p.y - self.a.y) * (self.b.y - self.a.y))
            / len2;
        let t = t.clamp(0.0, 1.0);
        let proj = Point::new(
            self.a.x + t * (self.b.x - self.a.x),
            self.a.y + t * (self.b.y - self.a.y),
        );
        proj.distance(p)
    }
}

/// Orientation of the ordered triple (a, b, c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// c lies on the directed line a→b.
    Collinear,
    /// Turning from a→b to b→c is a left (counterclockwise) turn.
    CounterClockwise,
    /// Turning from a→b to b→c is a right (clockwise) turn.
    Clockwise,
}

/// Cross product of (b − a) × (c − a); positive for counterclockwise turns.
pub fn cross(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Classifies the orientation of the triple (a, b, c).
///
/// A relative epsilon keeps near-collinear triples (common after projecting
/// node coordinates onto a grid) classified as [`Orientation::Collinear`].
pub fn orientation(a: Point, b: Point, c: Point) -> Orientation {
    let v = cross(a, b, c);
    // Scale-aware epsilon: coordinates live in ~[0, 2000], products ~1e7.
    let scale = (b.x - a.x)
        .abs()
        .max((b.y - a.y).abs())
        .max((c.x - a.x).abs())
        .max((c.y - a.y).abs());
    let eps = 1e-9 * scale * scale.max(1.0);
    if v.abs() <= eps {
        Orientation::Collinear
    } else if v > 0.0 {
        Orientation::CounterClockwise
    } else {
        Orientation::Clockwise
    }
}

/// Returns true when point `p` lies within the axis-aligned bounding box of
/// segment `s` (used for the collinear case of intersection tests).
fn on_segment_bbox(s: Segment, p: Point) -> bool {
    p.x >= s.a.x.min(s.b.x) - 1e-9
        && p.x <= s.a.x.max(s.b.x) + 1e-9
        && p.y >= s.a.y.min(s.b.y) - 1e-9
        && p.y <= s.a.y.max(s.b.y) + 1e-9
}

/// Tests whether two segments *properly cross*: they intersect at exactly one
/// interior point of both. Segments that merely share an endpoint do **not**
/// cross — two links meeting at a common router are not "cross links" in the
/// paper's sense.
///
/// # Examples
///
/// ```
/// use rtr_topology::geometry::{Point, Segment, segments_cross};
/// let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
/// let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
/// let s3 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
/// assert!(segments_cross(s1, s2));
/// assert!(!segments_cross(s1, s3)); // shared endpoint only
/// ```
pub fn segments_cross(s1: Segment, s2: Segment) -> bool {
    let d1 = orientation(s2.a, s2.b, s1.a);
    let d2 = orientation(s2.a, s2.b, s1.b);
    let d3 = orientation(s1.a, s1.b, s2.a);
    let d4 = orientation(s1.a, s1.b, s2.b);

    use Orientation::*;
    // Proper crossing: each segment's endpoints strictly straddle the other.
    matches!(
        (d1, d2),
        (CounterClockwise, Clockwise) | (Clockwise, CounterClockwise)
    ) && matches!(
        (d3, d4),
        (CounterClockwise, Clockwise) | (Clockwise, CounterClockwise)
    )
}

/// Tests whether two segments intersect at all, including touching at
/// endpoints and collinear overlap. Used by topology validation, not by the
/// cross-link computation.
pub fn segments_intersect(s1: Segment, s2: Segment) -> bool {
    if segments_cross(s1, s2) {
        return true;
    }
    use Orientation::*;
    (orientation(s2.a, s2.b, s1.a) == Collinear && on_segment_bbox(s2, s1.a))
        || (orientation(s2.a, s2.b, s1.b) == Collinear && on_segment_bbox(s2, s1.b))
        || (orientation(s1.a, s1.b, s2.a) == Collinear && on_segment_bbox(s1, s2.a))
        || (orientation(s1.a, s1.b, s2.b) == Collinear && on_segment_bbox(s1, s2.b))
}

/// A circle, the paper's failure-area shape in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius; must be non-negative.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative"
        );
        Circle { center, radius }
    }

    /// Returns true when `p` lies inside or on the circle.
    pub fn contains(self, p: Point) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius
    }

    /// Returns true when the segment has at least one point inside or on the
    /// circle. This is the paper's "link across the failure area" test: a
    /// link fails if its straight-line embedding touches the failed region.
    pub fn intersects_segment(self, s: Segment) -> bool {
        s.distance_to_point(self.center) <= self.radius
    }

    /// Area of the circle.
    pub fn area(self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }
}

/// A simple polygon given by its vertices in order (either winding).
///
/// Supports arbitrary-shape failure areas: the paper's model is "a continuous
/// area of any shape"; the evaluation uses circles but RTR itself must not
/// assume a shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from its vertex list.
    ///
    /// # Errors
    ///
    /// Returns `None` if fewer than 3 vertices are supplied or any coordinate
    /// is not finite.
    pub fn new(vertices: Vec<Point>) -> Option<Self> {
        if vertices.len() < 3 || vertices.iter().any(|p| !p.is_finite()) {
            return None;
        }
        Some(Polygon { vertices })
    }

    /// The polygon's vertices, in construction order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Edge segments of the polygon (closing edge included).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        self.vertices
            .iter()
            .zip(self.vertices.iter().cycle().skip(1))
            .take(n)
            .map(|(&a, &b)| Segment::new(a, b))
    }

    /// Even–odd rule point-in-polygon test (boundary counts as inside).
    pub fn contains(&self, p: Point) -> bool {
        // Boundary check first: ray casting is unreliable exactly on edges.
        if self.edges().any(|e| e.distance_to_point(p) <= 1e-9) {
            return true;
        }
        let mut inside = false;
        // `vj` trails `vi` by one vertex, starting at the closing edge.
        let Some(&last) = self.vertices.last() else {
            return false;
        };
        let mut vj = last;
        for &vi in &self.vertices {
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_at = vi.x + (p.y - vi.y) / (vj.y - vi.y) * (vj.x - vi.x);
                if p.x < x_at {
                    inside = !inside;
                }
            }
            vj = vi;
        }
        inside
    }

    /// Returns true when the segment has at least one point inside the
    /// polygon or touching its boundary.
    pub fn intersects_segment(&self, s: Segment) -> bool {
        self.contains(s.a) || self.contains(s.b) || self.edges().any(|e| segments_intersect(e, s))
    }
}

/// Counterclockwise angle from direction `from` to direction `to`, both given
/// as vectors anchored at the origin, in radians within `(0, 2π]`.
///
/// A `to` pointing exactly along `from` maps to `2π` rather than `0`: in the
/// right-hand rule the sweeping line itself is the *last* candidate, which is
/// what lets a packet travel back over the link it arrived on when every
/// other neighbor is unusable (the fallback in Theorem 1's proof).
pub fn ccw_angle(from: (f64, f64), to: (f64, f64)) -> f64 {
    ccw_turn(from.1.atan2(from.0), to.1.atan2(to.0))
}

/// Counterclockwise turn from absolute direction `a0` to absolute direction
/// `a1` (both in radians, as returned by `atan2`), normalised into
/// `(0, 2π]` exactly as [`ccw_angle`] does: `ccw_angle(from, to)` is
/// `ccw_turn(atan2(from), atan2(to))` bit for bit.
///
/// The phase-1 sweep calls this on the per-neighbor directions cached by
/// [`Topology::neighbor_angles`](crate::Topology::neighbor_angles), so it
/// ranks candidates without any trigonometry.
pub fn ccw_turn(a0: f64, a1: f64) -> f64 {
    let mut d = a1 - a0;
    const TAU: f64 = std::f64::consts::TAU;
    while d <= 0.0 {
        d += TAU;
    }
    while d > TAU {
        d -= TAU;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
        assert_eq!(Point::new(1.0, 1.0).distance(Point::new(1.0, 1.0)), 0.0);
    }

    #[test]
    fn display_formats_coordinates() {
        assert_eq!(Point::new(1.5, -2.0).to_string(), "(1.5, -2)");
    }

    #[test]
    fn point_from_tuple() {
        let p: Point = (2.0, 3.0).into();
        assert_eq!(p, Point::new(2.0, 3.0));
    }

    #[test]
    fn segment_length_and_midpoint() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        assert_eq!(s.length(), 4.0);
        assert_eq!(s.midpoint(), Point::new(2.0, 0.0));
    }

    #[test]
    fn segment_point_distance_interior_projection() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.distance_to_point(Point::new(5.0, 3.0)), 3.0);
    }

    #[test]
    fn segment_point_distance_clamps_to_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.distance_to_point(Point::new(-3.0, 4.0)), 5.0);
        assert_eq!(s.distance_to_point(Point::new(13.0, 4.0)), 5.0);
    }

    #[test]
    fn degenerate_segment_distance() {
        let s = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        assert_eq!(s.distance_to_point(Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn orientation_basic() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(
            orientation(a, b, Point::new(2.0, 0.0)),
            Orientation::Collinear
        );
        assert_eq!(
            orientation(a, b, Point::new(1.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orientation(a, b, Point::new(1.0, -1.0)),
            Orientation::Clockwise
        );
    }

    #[test]
    fn crossing_segments_cross() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(segments_cross(s1, s2));
        assert!(segments_cross(s2, s1));
    }

    #[test]
    fn shared_endpoint_is_not_a_crossing() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        assert!(!segments_cross(s1, s2));
        // ... but it is an intersection in the inclusive sense.
        assert!(segments_intersect(s1, s2));
    }

    #[test]
    fn t_junction_is_not_a_proper_crossing() {
        // s2 ends on the interior of s1.
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 3.0));
        assert!(!segments_cross(s1, s2));
        assert!(segments_intersect(s1, s2));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(1.0, 1.0));
        assert!(!segments_cross(s1, s2));
        assert!(!segments_intersect(s1, s2));
    }

    #[test]
    fn collinear_overlap_intersects_but_does_not_cross() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, 0.0), Point::new(6.0, 0.0));
        assert!(!segments_cross(s1, s2));
        assert!(segments_intersect(s1, s2));
    }

    #[test]
    fn circle_contains_boundary_and_interior() {
        let c = Circle::new(Point::new(0.0, 0.0), 5.0);
        assert!(c.contains(Point::new(3.0, 4.0))); // exactly on the boundary
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!(!c.contains(Point::new(4.0, 4.0)));
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn circle_rejects_negative_radius() {
        let _ = Circle::new(Point::new(0.0, 0.0), -1.0);
    }

    #[test]
    fn circle_segment_intersection() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        // Passes through the circle with both endpoints outside.
        let through = Segment::new(Point::new(-5.0, 0.0), Point::new(5.0, 0.0));
        assert!(c.intersects_segment(through));
        // Entirely inside.
        let inside = Segment::new(Point::new(-0.1, 0.0), Point::new(0.1, 0.0));
        assert!(c.intersects_segment(inside));
        // Entirely outside, passing far away.
        let outside = Segment::new(Point::new(-5.0, 3.0), Point::new(5.0, 3.0));
        assert!(!c.intersects_segment(outside));
        // Tangent.
        let tangent = Segment::new(Point::new(-5.0, 1.0), Point::new(5.0, 1.0));
        assert!(c.intersects_segment(tangent));
    }

    #[test]
    fn circle_area() {
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        assert!((c.area() - 4.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn polygon_requires_three_vertices() {
        assert!(Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).is_none());
        assert!(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0)
        ])
        .is_some());
    }

    #[test]
    fn polygon_rejects_non_finite() {
        assert!(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(f64::NAN, 0.0),
            Point::new(0.0, 1.0)
        ])
        .is_none());
    }

    #[test]
    fn polygon_contains_interior_not_exterior() {
        let square = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(square.contains(Point::new(2.0, 2.0)));
        assert!(!square.contains(Point::new(5.0, 2.0)));
        assert!(!square.contains(Point::new(-1.0, -1.0)));
        // Boundary counts as inside.
        assert!(square.contains(Point::new(0.0, 2.0)));
        assert!(square.contains(Point::new(4.0, 4.0)));
    }

    #[test]
    fn concave_polygon_containment() {
        // L-shaped polygon.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(l.contains(Point::new(1.0, 3.0)));
        assert!(l.contains(Point::new(3.0, 1.0)));
        assert!(!l.contains(Point::new(3.0, 3.0))); // the notch
    }

    #[test]
    fn polygon_segment_intersection() {
        let square = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        // Passes straight through.
        assert!(
            square.intersects_segment(Segment::new(Point::new(-1.0, 2.0), Point::new(5.0, 2.0)))
        );
        // Fully inside.
        assert!(square.intersects_segment(Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0))));
        // Fully outside.
        assert!(
            !square.intersects_segment(Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0)))
        );
    }

    #[test]
    fn ccw_angle_quadrants() {
        let east = (1.0, 0.0);
        let north = (0.0, 1.0);
        let west = (-1.0, 0.0);
        let south = (0.0, -1.0);
        let pi = std::f64::consts::PI;
        assert!((ccw_angle(east, north) - pi / 2.0).abs() < 1e-12);
        assert!((ccw_angle(east, west) - pi).abs() < 1e-12);
        assert!((ccw_angle(east, south) - 3.0 * pi / 2.0).abs() < 1e-12);
    }

    #[test]
    fn ccw_angle_identity_direction_is_full_turn() {
        let d = (1.0, 2.0);
        assert!((ccw_angle(d, d) - std::f64::consts::TAU).abs() < 1e-12);
    }

    #[test]
    fn ccw_angle_is_always_positive() {
        let dirs = [(1.0, 0.0), (0.3, -0.7), (-2.0, 0.1), (0.0, -1.0)];
        for &a in &dirs {
            for &b in &dirs {
                let ang = ccw_angle(a, b);
                assert!(ang > 0.0 && ang <= std::f64::consts::TAU + 1e-12);
            }
        }
    }
}
