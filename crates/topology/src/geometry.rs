use rand::Rng;
use serde::{Deserialize, Serialize};

/// A point in the network's Euclidean deployment area.
///
/// The paper deploys nodes in a 10 000 × 10 000 unit square; distances feed
/// the per-link entanglement success probability `p = exp(-α·L)`.
///
/// # Examples
///
/// ```
/// use fusion_topology::Position;
///
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// Horizontal coordinate in network units.
    pub x: f64,
    /// Vertical coordinate in network units.
    pub y: f64,
}

impl Position {
    /// Creates a position from coordinates.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance(self, other: Position) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Squared distance to `other`, from the same coordinate differences
    /// whose `hypot` [`Position::distance`] takes. Cheaper than the
    /// distance, but rounded differently: compare it with a square only
    /// through [`widen_square`].
    pub(crate) fn distance_squared(self, other: Position) -> f64 {
        let (dx, dy) = (self.x - other.x, self.y - other.y);
        dx * dx + dy * dy
    }

    /// Samples a uniform position inside `[0, side] × [0, side]`.
    pub fn sample(rng: &mut impl Rng, side: f64) -> Self {
        Position {
            x: rng.gen_range(0.0..side),
            y: rng.gen_range(0.0..side),
        }
    }
}

/// Widens the squared distance `square` of some pair `i` so that, for
/// every pair `j`, `distance_j <= distance_i` implies `square_j <=
/// widen_square(square_i)`.
///
/// This is what lets the world build compare cheap squares instead of
/// `hypot`s without changing a single output: a pair whose square lies
/// past the widened bound is provably farther than `i`, by
/// [`Position::distance`] itself. Rounding separates the two measures by
/// far less than the margin: `distance_squared` is within a relative
/// `3·2⁻⁵³` of the exact `dx² + dy²` (plus an absolute `2⁻¹⁰⁷³` when the
/// squares are subnormal), and `hypot` is within one ulp of its exact
/// root, so `distance_j <= distance_i` bounds `square_j` by `square_i`
/// times `1 + 2⁻⁴⁹` plus `2⁻¹⁰⁷¹`. The relative `1e-9` is ~500,000 times
/// the first term, and `f64::MIN_POSITIVE` is `2⁴⁹` times the second.
pub(crate) fn widen_square(square: f64) -> f64 {
    square * (1.0 + 1e-9) + f64::MIN_POSITIVE
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn widened_square_covers_every_pair_no_farther() {
        // Pairs on one circle, which squares and `hypot`s often order
        // differently, at scales whose squares are subnormal (1e-160),
        // normal and near the top of the range.
        let o = Position::new(0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut disagreements = 0;
        for scale in [1e-160, 1e-3, 1.0, 1e4, 1e150] {
            for _ in 0..5_000 {
                let r = rng.gen_range(0.5 * scale..scale);
                let on_circle = |t: f64| Position::new(r * t.cos(), r * t.sin());
                let a = on_circle(rng.gen_range(0.0..1.5));
                let b = on_circle(rng.gen_range(0.0..1.5));
                let (near, far) = if o.distance(a) <= o.distance(b) {
                    (a, b)
                } else {
                    (b, a)
                };
                let (s_near, s_far) = (o.distance_squared(near), o.distance_squared(far));
                disagreements += usize::from(s_near > s_far);
                assert!(s_near <= widen_square(s_far), "{near:?} vs {far:?}");
            }
        }
        assert!(disagreements > 0, "no pair ordered differently by squares");
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(1.0, 1.0);
        let b = Position::new(4.0, 5.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Position::new(2.0, 7.0);
        let b = Position::new(-3.0, 0.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn sample_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = Position::sample(&mut rng, 100.0);
            assert!((0.0..100.0).contains(&p.x));
            assert!((0.0..100.0).contains(&p.y));
        }
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            Position::sample(&mut a, 10.0),
            Position::sample(&mut b, 10.0)
        );
    }
}
