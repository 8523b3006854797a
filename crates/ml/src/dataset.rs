//! Datasets: feature matrices with named columns.

use serde::{Deserialize, Serialize};
use sq_sim::Xoshiro256StarStar;

/// A supervised binary-classification dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    labels: Vec<bool>,
}

impl Dataset {
    /// An empty dataset with the given feature schema.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            rows: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of features (columns).
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of examples (rows).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append one example.
    ///
    /// # Panics
    /// Panics when the row width does not match the schema — mixing
    /// schemas silently would corrupt training.
    pub fn push(&mut self, features: Vec<f64>, label: bool) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "row width {} != schema width {}",
            features.len(),
            self.feature_names.len()
        );
        self.rows.push(features);
        self.labels.push(label);
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Shuffle and split into train/test with `train_frac` of rows in the
    /// training set (the paper used 70/30).
    pub fn split(&self, train_frac: f64, rng: &mut Xoshiro256StarStar) -> Split {
        assert!((0.0..=1.0).contains(&train_frac));
        let mut idx: Vec<usize> = (0..self.rows.len()).collect();
        rng.shuffle(&mut idx);
        let n_train = (self.rows.len() as f64 * train_frac).round() as usize;
        let mut train = Dataset::new(self.feature_names.clone());
        let mut test = Dataset::new(self.feature_names.clone());
        for (k, &i) in idx.iter().enumerate() {
            let target = if k < n_train { &mut train } else { &mut test };
            target.push(self.rows[i].clone(), self.labels[i]);
        }
        Split { train, test }
    }

    /// A copy keeping only the given columns (for RFE).
    pub fn select_columns(&self, cols: &[usize]) -> Dataset {
        let names = cols
            .iter()
            .map(|&c| self.feature_names[c].clone())
            .collect();
        let mut out = Dataset::new(names);
        for (row, &label) in self.rows.iter().zip(&self.labels) {
            out.push(cols.iter().map(|&c| row[c]).collect(), label);
        }
        out
    }
}

/// A train/test split.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training portion.
    pub train: Dataset,
    /// Held-out portion.
    pub test: Dataset,
}

/// Z-score standardization fitted on training data.
///
/// Logistic-regression weights are only comparable across features (as
/// RFE requires) when features share a scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fit on a dataset: per-column mean and standard deviation. Columns
    /// with zero variance get std 1 (they become constant 0 and carry no
    /// signal, which is correct).
    pub fn fit(data: &Dataset) -> Scaler {
        let n = data.len().max(1) as f64;
        let d = data.n_features();
        let mut means = vec![0.0; d];
        for row in data.rows() {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for row in data.rows() {
            for ((v, &m), &x) in vars.iter_mut().zip(&means).zip(row) {
                *v += (x - m) * (x - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Scaler { means, stds }
    }

    /// Transform one row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Transform a whole dataset, returning a standardized copy.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(data.feature_names().to_vec());
        for (row, &label) in data.rows().iter().zip(data.labels()) {
            let mut r = row.clone();
            self.transform_row(&mut r);
            out.push(r, label);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(17)
    }

    fn toy() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..100 {
            d.push(vec![i as f64, (i % 7) as f64], i % 3 == 0);
        }
        d
    }

    #[test]
    fn push_and_shape() {
        let d = toy();
        assert_eq!(d.len(), 100);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.feature_names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    #[should_panic]
    fn wrong_width_panics() {
        let mut d = Dataset::new(vec!["a".into()]);
        d.push(vec![1.0, 2.0], true);
    }

    #[test]
    fn split_partitions_rows() {
        let d = toy();
        let s = d.split(0.7, &mut rng());
        assert_eq!(s.train.len(), 70);
        assert_eq!(s.test.len(), 30);
        assert_eq!(s.train.n_features(), 2);
    }

    #[test]
    fn split_is_seeded_deterministic() {
        let d = toy();
        let s1 = d.split(0.7, &mut rng());
        let s2 = d.split(0.7, &mut rng());
        assert_eq!(s1.train.rows(), s2.train.rows());
        assert_eq!(s1.test.labels(), s2.test.labels());
    }

    #[test]
    fn split_edges() {
        let d = toy();
        let all_train = d.split(1.0, &mut rng());
        assert_eq!(all_train.train.len(), 100);
        assert_eq!(all_train.test.len(), 0);
        let all_test = d.split(0.0, &mut rng());
        assert_eq!(all_test.train.len(), 0);
    }

    #[test]
    fn scaler_zero_mean_unit_variance() {
        let d = toy();
        let scaler = Scaler::fit(&d);
        let z = scaler.transform(&d);
        for col in 0..2 {
            let vals: Vec<f64> = z.rows().iter().map(|r| r[col]).collect();
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-9, "col {col} mean = {mean}");
            assert!((var - 1.0).abs() < 1e-9, "col {col} var = {var}");
        }
    }

    #[test]
    fn scaler_handles_constant_columns() {
        let mut d = Dataset::new(vec!["const".into()]);
        for _ in 0..10 {
            d.push(vec![5.0], false);
        }
        let scaler = Scaler::fit(&d);
        let z = scaler.transform(&d);
        for row in z.rows() {
            assert_eq!(row[0], 0.0);
        }
    }

    #[test]
    fn select_columns_projects() {
        let d = toy();
        let s = d.select_columns(&[1]);
        assert_eq!(s.n_features(), 1);
        assert_eq!(s.feature_names(), &["b".to_string()]);
        assert_eq!(s.rows()[13][0], (13 % 7) as f64);
        assert_eq!(s.labels(), d.labels());
    }
}
