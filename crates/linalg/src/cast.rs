//! Checked float→integer conversions.
//!
//! The workspace bans lossy `as` float→int casts (clippy's
//! `cast_possible_truncation`/`cast_sign_loss`, denied workspace-wide):
//! they silently truncate, saturate, and map NaN to zero, which turns
//! numerical bugs into wrong-but-plausible indices. These helpers make
//! the clamping explicit and centralize the two sanctioned raw casts
//! behind documented bounds checks and per-site `#[allow]`s.

/// Floors `x` and converts to an index clamped to `[0, max]`.
///
/// Non-finite or negative inputs clamp to `0`; inputs beyond `max`
/// clamp to `max`. Use when the surrounding arithmetic already bounds
/// `x` and clamping merely makes that bound explicit.
#[must_use]
pub fn floor_to_index(x: f64, max: usize) -> usize {
    float_to_index(x.floor(), max)
}

/// Ceils `x` and converts to an index clamped to `[0, max]`.
///
/// Non-finite or negative inputs clamp to `0`.
#[must_use]
pub fn ceil_to_index(x: f64, max: usize) -> usize {
    float_to_index(x.ceil(), max)
}

/// Rounds `x` to the nearest integer and converts to an index clamped
/// to `[0, max]`.
///
/// Non-finite or negative inputs clamp to `0`.
#[must_use]
pub fn round_to_index(x: f64, max: usize) -> usize {
    float_to_index(x.round(), max)
}

/// Floors `x` and converts to `i64`, saturating at the `i64` range.
///
/// NaN maps to `0` (callers that must distinguish NaN should test for
/// it first; the sanctioned uses convert slot offsets that are finite
/// by construction).
#[must_use]
#[allow(clippy::cast_possible_truncation)] // clamped to ±2^53 first, so the cast is exact
pub fn floor_to_i64(x: f64) -> i64 {
    if x.is_nan() {
        return 0;
    }
    let bound = 9_007_199_254_740_992.0_f64; // 2^53, exactly representable
    x.floor().clamp(-bound, bound) as i64
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // non-negative and ≤ 2^53 here
fn float_to_index(x: f64, max: usize) -> usize {
    if x.is_nan() || x <= 0.0 {
        return 0;
    }
    let bound = 9_007_199_254_740_992.0_f64; // 2^53, exactly representable
    let clamped = x.min(bound);
    (clamped as u64).min(max as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_bounds() {
        assert_eq!(floor_to_index(3.9, 10), 3);
        assert_eq!(ceil_to_index(3.1, 10), 4);
        assert_eq!(round_to_index(3.5, 10), 4);
        assert_eq!(floor_to_index(42.0, 10), 10);
        assert_eq!(floor_to_index(-1.0, 10), 0);
    }

    #[test]
    fn non_finite_inputs_are_safe() {
        assert_eq!(floor_to_index(f64::NAN, 5), 0);
        assert_eq!(floor_to_index(f64::INFINITY, 5), 5);
        assert_eq!(floor_to_index(f64::NEG_INFINITY, 5), 0);
        assert_eq!(floor_to_i64(f64::NAN), 0);
    }

    #[test]
    fn i64_floor_saturates() {
        assert_eq!(floor_to_i64(2.9), 2);
        assert_eq!(floor_to_i64(-2.1), -3);
        assert!(floor_to_i64(1e300) > 0);
        assert!(floor_to_i64(-1e300) < 0);
    }
}
