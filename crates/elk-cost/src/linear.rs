use serde::{Deserialize, Serialize};

/// An ordinary-least-squares linear model with a small ridge term for
/// numerical stability; the leaf model of [`crate::LinearTreeModel`] and
/// the per-link transfer model of §4.3.
///
/// # Examples
///
/// ```
/// use elk_cost::LinearModel;
///
/// // y = 2·x0 + 1
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = (0..20).map(|i| 2.0 * i as f64 + 1.0).collect();
/// let m = LinearModel::fit(&xs, &ys);
/// assert!((m.predict(&[10.0]) - 21.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    coef: Vec<f64>,
    intercept: f64,
}

impl LinearModel {
    /// A constant model.
    #[must_use]
    pub fn constant(value: f64) -> Self {
        LinearModel {
            coef: Vec::new(),
            intercept: value,
        }
    }

    /// Fits coefficients by least squares (normal equations with ridge
    /// regularization `λ = 1e-8·n`).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length, `ys` is empty, or rows of
    /// `xs` have inconsistent widths.
    #[must_use]
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!ys.is_empty(), "cannot fit on an empty sample");
        let d = xs[0].len();
        assert!(
            xs.iter().all(|x| x.len() == d),
            "inconsistent feature widths"
        );
        Self::fit_rows(d, xs.iter().map(Vec::as_slice).zip(ys.iter().copied()))
    }

    /// [`LinearModel::fit`] over `(row, target)` samples of width `d`, so
    /// callers holding a subset of a sample (a tree leaf's indices) need
    /// not clone its rows. Accumulates in sample order, exactly as `fit`.
    pub(crate) fn fit_rows<'a, I>(d: usize, samples: I) -> Self
    where
        I: ExactSizeIterator<Item = (&'a [f64], f64)>,
    {
        let count = samples.len();
        if d == 0 {
            return LinearModel::constant(samples.map(|(_, y)| y).sum::<f64>() / count as f64);
        }

        // Augmented design matrix [x | 1]; normal equations A·w = b.
        let n = d + 1;
        let mut a = vec![vec![0.0f64; n]; n];
        let mut b = vec![0.0f64; n];
        let mut row = vec![1.0f64; n];
        for (x, y) in samples {
            row[..d].copy_from_slice(&x[..d]);
            for ((&xi, bi), ai) in row.iter().zip(&mut b).zip(&mut a) {
                *bi += xi * y;
                for (aij, &xj) in ai.iter_mut().zip(&row) {
                    *aij += xi * xj;
                }
            }
        }
        let ridge = 1e-8 * count as f64;
        for (i, row) in a.iter_mut().enumerate().take(d) {
            row[i] += ridge;
        }

        let w = solve(a, b);
        LinearModel {
            intercept: w[d],
            coef: w.into_iter().take(d).collect(),
        }
    }

    /// Predicts the target for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the fitted feature count.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert!(
            x.len() >= self.coef.len(),
            "feature vector too short: {} < {}",
            x.len(),
            self.coef.len()
        );
        self.intercept + self.coef.iter().zip(x).map(|(c, v)| c * v).sum::<f64>()
    }

    /// Fitted coefficients (without intercept).
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// Fitted intercept.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

/// Gaussian elimination with partial pivoting. Singular systems fall back
/// to the zero solution in the affected column (the ridge term makes this
/// effectively unreachable).
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty system");
        if a[pivot][col].abs() < 1e-300 {
            continue;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            let (upper, lower) = a.split_at_mut(row);
            for (rv, pv) in lower[0][col..].iter_mut().zip(&upper[col][col..]) {
                *rv -= f * pv;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        if a[col][col].abs() < 1e-300 {
            x[col] = 0.0;
            continue;
        }
        let mut s = b[col];
        for k in col + 1..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_multivariate_plane() {
        // y = 3·x0 - 2·x1 + 5
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 11) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 5.0).collect();
        let m = LinearModel::fit(&xs, &ys);
        assert!((m.coefficients()[0] - 3.0).abs() < 1e-6);
        assert!((m.coefficients()[1] + 2.0).abs() < 1e-6);
        assert!((m.intercept() - 5.0).abs() < 1e-5);
    }

    #[test]
    fn constant_fallback_for_zero_features() {
        let xs = vec![vec![], vec![], vec![]];
        let ys = vec![1.0, 2.0, 3.0];
        let m = LinearModel::fit(&xs, &ys);
        assert!((m.predict(&[]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn collinear_features_do_not_explode() {
        // x1 = 2·x0 exactly; ridge keeps the solution finite.
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = (0..30).map(|i| 4.0 * i as f64).collect();
        let m = LinearModel::fit(&xs, &ys);
        let pred = m.predict(&[10.0, 20.0]);
        assert!((pred - 40.0).abs() < 1e-3, "pred {pred}");
        assert!(m.coefficients().iter().all(|c| c.is_finite()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = LinearModel::fit(&[vec![1.0]], &[1.0, 2.0]);
    }
}
