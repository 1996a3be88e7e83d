//! Finite real values and agreement tolerances.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

/// A finite real value proposed, voted, or decided by a process.
///
/// Approximate agreement operates on real numbers; `Value` wraps an `f64`
/// while guaranteeing *finiteness* (no NaN, no infinities), which gives it a
/// total order and makes multiset reduction deterministic.
///
/// Every constructor also maps `-0.0` to `+0.0`, so two values that
/// compare equal are bit-identical. Sorting is therefore canonical: every
/// sort of one multiset — and every in-order subsequence of a sorted
/// buffer — yields the same bits, however it orders ties.
///
/// # Example
///
/// ```
/// use mbaa_types::Value;
///
/// let a = Value::new(0.25);
/// let b = Value::new(0.75);
/// assert!(a < b);
/// assert_eq!(a.midpoint(b), Value::new(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Value(f64);

impl Value {
    /// The value `0.0`.
    pub const ZERO: Value = Value(0.0);
    /// The value `1.0`.
    pub const ONE: Value = Value(1.0);

    /// Creates a value from a finite `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is NaN or infinite. Use [`Value::try_new`] for a
    /// fallible constructor.
    #[must_use]
    pub fn new(raw: f64) -> Self {
        Self::try_new(raw).expect("Value must be finite")
    }

    /// Creates a value from a finite `f64`, returning `None` when `raw` is
    /// NaN or infinite.
    #[must_use]
    pub fn try_new(raw: f64) -> Option<Self> {
        raw.is_finite().then_some(Value(canonical_zero(raw)))
    }

    /// Returns the underlying `f64`.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns the absolute value.
    #[must_use]
    pub fn abs(self) -> Value {
        Value(canonical_zero(self.0.abs()))
    }

    /// Returns the absolute difference `|self - other|`.
    #[must_use]
    pub fn distance(self, other: Value) -> f64 {
        (self.0 - other.0).abs()
    }

    /// Returns the midpoint `(self + other) / 2`.
    #[must_use]
    pub fn midpoint(self, other: Value) -> Value {
        Value(canonical_zero(self.0 / 2.0 + other.0 / 2.0))
    }

    /// Returns the smaller of two values.
    #[must_use]
    pub fn min(self, other: Value) -> Value {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    #[must_use]
    pub fn max(self, other: Value) -> Value {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps this value into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: Value, hi: Value) -> Value {
        assert!(lo <= hi, "clamp requires lo <= hi");
        self.max(lo).min(hi)
    }
}

/// Maps `-0.0` to `+0.0` and leaves every other `f64` unchanged — the
/// zero-normalization every [`Value`] constructor applies.
#[inline]
fn canonical_zero(raw: f64) -> f64 {
    if raw == 0.0 {
        0.0
    } else {
        raw
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::ZERO
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        // Finiteness is enforced at construction, so partial_cmp never
        // fails. Zero is normalized at construction too (no value holds
        // -0.0), so this order is total *and* equal values are
        // bit-identical: the order of ties can never change a result.
        self.0
            // mbaa: allow(determinism/stable-sort, construction invariant makes the partial order total)
            .partial_cmp(&other.0)
            .expect("Value is always finite and therefore totally ordered")
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<Value> for f64 {
    fn from(v: Value) -> f64 {
        v.0
    }
}

impl Add for Value {
    type Output = Value;

    fn add(self, rhs: Value) -> Value {
        Value::new(self.0 + rhs.0)
    }
}

impl Sub for Value {
    type Output = Value;

    fn sub(self, rhs: Value) -> Value {
        Value::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Value {
    type Output = Value;

    fn mul(self, rhs: f64) -> Value {
        Value::new(self.0 * rhs)
    }
}

impl Div<f64> for Value {
    type Output = Value;

    fn div(self, rhs: f64) -> Value {
        Value::new(self.0 / rhs)
    }
}

impl Neg for Value {
    type Output = Value;

    fn neg(self) -> Value {
        Value(canonical_zero(-self.0))
    }
}

/// The agreement tolerance `ε > 0` of approximate agreement.
///
/// Two decided values `u`, `v` satisfy ε-agreement when `|u - v| ≤ ε`.
///
/// # Example
///
/// ```
/// use mbaa_types::{Epsilon, Value};
///
/// let eps = Epsilon::new(0.01);
/// assert!(eps.within(Value::new(0.500), Value::new(0.509)));
/// assert!(!eps.within(Value::new(0.0), Value::new(1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a tolerance from a strictly positive finite `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not finite or not strictly positive. Use
    /// [`Epsilon::try_new`] for a fallible constructor.
    #[must_use]
    pub fn new(raw: f64) -> Self {
        Self::try_new(raw).expect("Epsilon must be finite and > 0")
    }

    /// Creates a tolerance, returning `None` unless `raw` is finite and
    /// strictly positive.
    #[must_use]
    pub fn try_new(raw: f64) -> Option<Self> {
        (raw.is_finite() && raw > 0.0).then_some(Epsilon(raw))
    }

    /// Returns the underlying tolerance.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` when `a` and `b` are within ε of each other.
    #[must_use]
    pub fn within(self, a: Value, b: Value) -> bool {
        a.distance(b) <= self.0
    }

    /// Returns `true` when the given diameter is within ε.
    #[must_use]
    pub fn covers_diameter(self, diameter: f64) -> bool {
        diameter <= self.0
    }
}

impl Default for Epsilon {
    fn default() -> Self {
        Epsilon(1e-6)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_rejects_nan_and_infinity() {
        assert!(Value::try_new(f64::NAN).is_none());
        assert!(Value::try_new(f64::INFINITY).is_none());
        assert!(Value::try_new(f64::NEG_INFINITY).is_none());
        assert!(Value::try_new(0.0).is_some());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn value_new_panics_on_nan() {
        let _ = Value::new(f64::NAN);
    }

    #[test]
    fn value_total_order() {
        let mut vs = vec![Value::new(3.0), Value::new(-1.0), Value::new(0.5)];
        vs.sort_unstable();
        assert_eq!(vs, vec![Value::new(-1.0), Value::new(0.5), Value::new(3.0)]);
    }

    #[test]
    fn value_arithmetic() {
        let a = Value::new(2.0);
        let b = Value::new(0.5);
        assert_eq!(a + b, Value::new(2.5));
        assert_eq!(a - b, Value::new(1.5));
        assert_eq!(a * 3.0, Value::new(6.0));
        assert_eq!(a / 4.0, Value::new(0.5));
        assert_eq!(-a, Value::new(-2.0));
        assert_eq!(a.distance(b), 1.5);
        assert_eq!(a.midpoint(b), Value::new(1.25));
    }

    #[test]
    fn value_min_max_clamp() {
        let a = Value::new(2.0);
        let b = Value::new(5.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Value::new(7.0).clamp(a, b), b);
        assert_eq!(Value::new(1.0).clamp(a, b), a);
        assert_eq!(Value::new(3.0).clamp(a, b), Value::new(3.0));
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn value_clamp_panics_on_inverted_bounds() {
        let _ = Value::new(0.0).clamp(Value::new(2.0), Value::new(1.0));
    }

    #[test]
    fn value_midpoint_avoids_overflow() {
        let a = Value::new(f64::MAX);
        let b = Value::new(f64::MAX);
        assert_eq!(a.midpoint(b), a);
    }

    #[test]
    fn every_constructor_normalizes_negative_zero() {
        let plus = 0.0f64.to_bits();
        let tiny = Value::new(-f64::MIN_POSITIVE * f64::EPSILON); // -5e-324
        for (label, value) in [
            ("new", Value::new(-0.0)),
            ("try_new", Value::try_new(-0.0).unwrap()),
            ("neg", -Value::ZERO),
            ("abs", Value::new(-0.0).abs()),
            ("add", tiny + -tiny),
            ("sub", Value::ZERO - Value::ZERO),
            ("mul underflow", Value::new(-1e-300) * 1e-300),
            ("div underflow", Value::new(-1e-300) / 1e300),
            ("midpoint underflow", tiny.midpoint(tiny)),
        ] {
            assert_eq!(value.get().to_bits(), plus, "{label}: {value:?}");
        }
        // Negative values that are not zero keep their sign.
        assert_eq!(tiny.get().to_bits(), (-5e-324f64).to_bits());
        assert_eq!((-Value::ONE).get().to_bits(), (-1.0f64).to_bits());
    }

    #[test]
    fn equal_values_are_bit_identical_so_tie_order_is_invisible() {
        let zeros = [Value::new(-0.0), Value::ZERO, -Value::ZERO];
        for a in zeros {
            for b in zeros {
                assert_eq!(a, b);
                assert_eq!(a.get().to_bits(), b.get().to_bits());
            }
        }
        let mut forward = vec![
            Value::new(-0.0),
            Value::new(1.0),
            Value::ZERO,
            Value::new(-1.0),
        ];
        let mut backward: Vec<Value> = forward.iter().rev().copied().collect();
        forward.sort_unstable();
        backward.sort_unstable();
        let bits = |vs: &[Value]| vs.iter().map(|v| v.get().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&forward), bits(&backward));
    }

    #[test]
    fn epsilon_rejects_non_positive() {
        assert!(Epsilon::try_new(0.0).is_none());
        assert!(Epsilon::try_new(-1.0).is_none());
        assert!(Epsilon::try_new(f64::NAN).is_none());
        assert!(Epsilon::try_new(1e-9).is_some());
    }

    #[test]
    fn epsilon_within() {
        let eps = Epsilon::new(0.1);
        assert!(eps.within(Value::new(1.0), Value::new(1.05)));
        assert!(eps.within(Value::new(1.0), Value::new(1.0625)));
        assert!(!eps.within(Value::new(1.0), Value::new(1.11)));
        assert!(eps.covers_diameter(0.1));
        assert!(!eps.covers_diameter(0.2));
    }

    #[test]
    fn display_round_trips_reasonably() {
        assert_eq!(Value::new(1.5).to_string(), "1.5");
        assert_eq!(Epsilon::new(0.25).to_string(), "0.25");
    }
}
