//! Shared protocol parameters.

use std::fmt;

/// A failure-probability budget `ε ∈ (0, 1)`.
///
/// Both conciliators take an `ε` and guarantee agreement with
/// probability at least `1 - ε` (Theorems 1 and 2); their round counts
/// grow by `O(log(1/ε))`.
///
/// # Examples
///
/// ```
/// use sift_core::params::Epsilon;
/// let eps = Epsilon::new(0.25).unwrap();
/// assert_eq!(eps.get(), 0.25);
/// assert_eq!(Epsilon::HALF.get(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// `ε = 1/2`, the choice used by the paper's corollaries.
    pub const HALF: Epsilon = Epsilon(0.5);

    /// `ε = 1/4`, used by Algorithm 3's embedded sifter.
    pub const QUARTER: Epsilon = Epsilon(0.25);

    /// Validates `0 < value < 1`.
    pub fn new(value: f64) -> Result<Self, InvalidEpsilon> {
        if value.is_finite() && value > 0.0 && value < 1.0 {
            Ok(Self(value))
        } else {
            Err(InvalidEpsilon(value))
        }
    }

    /// The raw probability.
    pub fn get(self) -> f64 {
        self.0
    }

    /// `1/ε`.
    pub(crate) fn inverse(self) -> f64 {
        1.0 / self.0
    }
}

impl Default for Epsilon {
    fn default() -> Self {
        Self::HALF
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = InvalidEpsilon;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

/// Error returned for an `ε` outside `(0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidEpsilon(f64);

impl fmt::Display for InvalidEpsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epsilon must be in (0, 1), got {}", self.0)
    }
}

impl std::error::Error for InvalidEpsilon {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_open_interval() {
        assert!(Epsilon::new(0.001).is_ok());
        assert!(Epsilon::new(0.999).is_ok());
    }

    #[test]
    fn rejects_boundary_and_garbage() {
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(1.0).is_err());
        assert!(Epsilon::new(-0.5).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
    }

    #[test]
    fn error_displays_value() {
        let err = Epsilon::new(2.0).unwrap_err();
        assert_eq!(err.to_string(), "epsilon must be in (0, 1), got 2");
    }

    #[test]
    fn conversions() {
        let eps: Epsilon = 0.125f64.try_into().unwrap();
        assert_eq!(eps.inverse(), 8.0);
        assert_eq!(Epsilon::default(), Epsilon::HALF);
        assert_eq!(Epsilon::QUARTER.get(), 0.25);
        assert_eq!(format!("{}", Epsilon::HALF), "0.5");
    }
}
