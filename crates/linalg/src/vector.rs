//! Dense `f64` column vector container and arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Result};

/// A dense column vector of `f64` values.
///
/// `Vector` is a thin, owned wrapper around `Vec<f64>` that adds the
/// arithmetic the rest of the workspace needs (dot products, norms,
/// element-wise combination) while keeping conversion to and from
/// plain slices free.
///
/// # Example
///
/// ```
/// use thermal_linalg::Vector;
///
/// let a = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(a.norm2(), 5.0);
/// let b = &a + &Vector::from_slice(&[1.0, -4.0]);
/// assert_eq!(b.as_slice(), &[4.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    ///
    /// ```
    /// use thermal_linalg::Vector;
    /// let z = Vector::zeros(3);
    /// assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector whose entries are all `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Creates a vector by copying a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector from a generating function of the index.
    ///
    /// ```
    /// use thermal_linalg::Vector;
    /// let v = Vector::from_fn(4, |i| i as f64 * 2.0);
    /// assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
    /// ```
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..len).map(f).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying storage as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Returns entry `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.data.get(i).copied()
    }

    /// Iterates over entries by value.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.iter().copied()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "dot",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        // From −0.0, as `Iterator::sum` folds: a sum of only −0.0
        // products (or of none) stays −0.0.
        Ok(crate::kernels::dot_from(-0.0, &self.data, &other.data))
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        // Scaled to avoid overflow on pathological magnitudes.
        let maxabs = self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        if maxabs == 0.0 {
            return 0.0;
        }
        let ssq: f64 = self.data.iter().map(|v| (v / maxabs).powi(2)).sum();
        maxabs * ssq.sqrt()
    }

    /// Maximum absolute entry (L∞ norm); `0.0` for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Sum of entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of the entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty vector.
    pub fn mean(&self) -> Result<f64> {
        if self.is_empty() {
            return Err(LinalgError::Empty { op: "mean" });
        }
        Ok(self.sum() / self.len() as f64)
    }

    /// Multiplies every entry by `s`, returning a new vector.
    pub fn scaled(&self, s: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<Vector> for Vec<f64> {
    fn from(v: Vector) -> Self {
        v.data
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6}")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_elementwise {
    ($trait:ident, $method:ident, $op:tt, $name:expr) => {
        impl $trait<&Vector> for &Vector {
            type Output = Vector;

            fn $method(self, rhs: &Vector) -> Vector {
                assert_eq!(
                    self.len(),
                    rhs.len(),
                    concat!($name, ": vector lengths differ")
                );
                Vector {
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }
    };
}

impl_elementwise!(Add, add, +, "add");
impl_elementwise!(Sub, sub, -, "sub");

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "add_assign: vector lengths differ");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "sub_assign: vector lengths differ");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v[1], 2.0);
        assert_eq!(v.get(2), Some(3.0));
        assert_eq!(v.get(3), None);
    }

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(2).as_slice(), &[0.0, 0.0]);
        assert_eq!(Vector::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 12.0);
    }

    #[test]
    fn dot_rejects_mismatched_lengths() {
        let a = Vector::from_slice(&[1.0]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::ShapeMismatch { op: "dot", .. })
        ));
    }

    #[test]
    fn norms() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-12);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(3).norm2(), 0.0);
        assert_eq!(Vector::zeros(0).norm2(), 0.0);
    }

    #[test]
    fn norm2_is_overflow_safe() {
        let v = Vector::from_slice(&[1e200, 1e200]);
        assert!(v.norm2().is_finite());
        assert!((v.norm2() - 2.0_f64.sqrt() * 1e200).abs() / 1e200 < 1e-10);
    }

    #[test]
    fn mean_and_sum() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.sum(), 10.0);
        assert_eq!(v.mean().unwrap(), 2.5);
        assert!(matches!(
            Vector::zeros(0).mean(),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);

        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, -2.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 0.0]);
        assert!(a.axpy(1.0, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn conversions_and_iteration() {
        let v: Vector = vec![1.0, 2.0].into();
        let back: Vec<f64> = v.clone().into();
        assert_eq!(back, vec![1.0, 2.0]);
        let collected: Vector = v.iter().map(|x| x * 10.0).collect();
        assert_eq!(collected.as_slice(), &[10.0, 20.0]);
        let mut ext = Vector::zeros(0);
        ext.extend([1.0, 2.0]);
        assert_eq!(ext.len(), 2);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from_slice(&[1.0]);
        assert!(v.to_string().starts_with('['));
        assert_eq!(Vector::zeros(0).to_string(), "[]");
    }
}
