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
/// // y = 2·x0 + 1; one feature, so its column is the whole matrix.
/// let x0: Vec<f64> = (0..20).map(|i| i as f64).collect();
/// let ys: Vec<f64> = x0.iter().map(|x| 2.0 * x + 1.0).collect();
/// let m = LinearModel::fit(&x0, &ys);
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
    /// regularization `λ = 1e-8·n`) to a feature-major sample: feature
    /// `f` of sample `i` at `cols[f·n + i]`, for `n = ys.len()` samples
    /// and `cols.len() / n` features.
    ///
    /// # Panics
    ///
    /// Panics if `ys` is empty or `cols.len()` is not a multiple of
    /// `ys.len()`.
    #[must_use]
    pub fn fit(cols: &[f64], ys: &[f64]) -> Self {
        check_columns(cols, ys);
        Self::fit_samples(cols, ys, 0..ys.len())
    }

    /// [`LinearModel::fit`] over the samples `idx` of a checked
    /// feature-major sample, so a tree leaf fits its own samples without
    /// copying them. Accumulates one augmented row `[x | 1]` per sample,
    /// in `idx` order.
    pub(crate) fn fit_samples<I>(cols: &[f64], ys: &[f64], idx: I) -> Self
    where
        I: ExactSizeIterator<Item = usize>,
    {
        let (n, count) = (ys.len(), idx.len());
        let d = cols.len() / n;
        if d == 0 {
            return LinearModel::constant(idx.map(|i| ys[i]).sum::<f64>() / count as f64);
        }

        // Augmented design matrix [x | 1]; normal equations A·w = b, with
        // A row-major.
        let w = d + 1;
        let mut a = vec![0.0f64; w * w];
        let mut b = vec![0.0f64; w];
        let mut row = vec![1.0f64; w];
        for i in idx {
            for (x, col) in row.iter_mut().zip(cols.chunks_exact(n)) {
                *x = col[i];
            }
            let y = ys[i];
            for ((&xi, bi), ai) in row.iter().zip(&mut b).zip(a.chunks_exact_mut(w)) {
                *bi += xi * y;
                for (aij, &xj) in ai.iter_mut().zip(&row) {
                    *aij += xi * xj;
                }
            }
        }
        let ridge = 1e-8 * count as f64;
        for i in 0..d {
            a[i * w + i] += ridge;
        }

        let coef = solve(a, b);
        LinearModel {
            intercept: coef[d],
            coef: coef.into_iter().take(d).collect(),
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

/// Gaussian elimination with partial pivoting on the row-major `n × n`
/// matrix `a`. Singular systems fall back to the zero solution in the
/// affected column (the ridge term makes this effectively unreachable).
fn solve(mut a: Vec<f64>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
            .expect("non-empty system");
        if a[pivot * n + col].abs() < 1e-300 {
            continue;
        }
        if pivot != col {
            let (upper, lower) = a.split_at_mut(pivot * n);
            upper[col * n..(col + 1) * n].swap_with_slice(&mut lower[..n]);
            b.swap(col, pivot);
        }
        for row in col + 1..n {
            let f = a[row * n + col] / a[col * n + col];
            if f == 0.0 {
                continue;
            }
            let (upper, lower) = a.split_at_mut(row * n);
            for (rv, pv) in lower[col..n]
                .iter_mut()
                .zip(&upper[col * n + col..(col + 1) * n])
            {
                *rv -= f * pv;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let diag = a[col * n + col];
        if diag.abs() < 1e-300 {
            x[col] = 0.0;
            continue;
        }
        let mut s = b[col];
        for k in col + 1..n {
            s -= a[col * n + k] * x[k];
        }
        x[col] = s / diag;
    }
    x
}

/// Checks that `cols` is a feature-major sample with targets `ys`.
///
/// # Panics
///
/// Panics if `ys` is empty or `cols.len()` is not a multiple of
/// `ys.len()`.
pub(crate) fn check_columns(cols: &[f64], ys: &[f64]) {
    assert!(!ys.is_empty(), "cannot fit on an empty sample");
    assert!(
        cols.len().is_multiple_of(ys.len()),
        "{} feature values do not form whole columns of {} samples",
        cols.len(),
        ys.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_multivariate_plane() {
        // y = 3·x0 - 2·x1 + 5
        let x0: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let x1: Vec<f64> = (0..50).map(|i| (i % 11) as f64).collect();
        let ys: Vec<f64> = x0
            .iter()
            .zip(&x1)
            .map(|(a, b)| 3.0 * a - 2.0 * b + 5.0)
            .collect();
        let m = LinearModel::fit(&[x0, x1].concat(), &ys);
        assert!((m.coefficients()[0] - 3.0).abs() < 1e-6);
        assert!((m.coefficients()[1] + 2.0).abs() < 1e-6);
        assert!((m.intercept() - 5.0).abs() < 1e-5);
    }

    #[test]
    fn constant_fallback_for_zero_features() {
        let ys = vec![1.0, 2.0, 3.0];
        let m = LinearModel::fit(&[], &ys);
        assert!((m.predict(&[]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn collinear_features_do_not_explode() {
        // x1 = 2·x0 exactly; ridge keeps the solution finite.
        let x0: Vec<f64> = (0..30).map(f64::from).collect();
        let x1: Vec<f64> = x0.iter().map(|x| 2.0 * x).collect();
        let ys: Vec<f64> = x0.iter().map(|x| 4.0 * x).collect();
        let m = LinearModel::fit(&[x0, x1].concat(), &ys);
        let pred = m.predict(&[10.0, 20.0]);
        assert!((pred - 40.0).abs() < 1e-3, "pred {pred}");
        assert!(m.coefficients().iter().all(|c| c.is_finite()));
    }

    #[test]
    #[should_panic(expected = "3 feature values do not form whole columns of 2 samples")]
    fn partial_column_rejected() {
        let _ = LinearModel::fit(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "cannot fit on an empty sample")]
    fn empty_sample_rejected() {
        let _ = LinearModel::fit(&[], &[]);
    }
}
