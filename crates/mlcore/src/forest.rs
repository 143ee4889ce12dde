//! Random forest classifier (bagged CART trees).
//!
//! Mirrors the scikit-learn estimator the paper uses: bootstrap-sampled
//! trees with per-split feature subsampling, `class_weight="balanced"`
//! support, probability prediction by averaging tree leaf distributions, and
//! mean-decrease-in-impurity feature importances. Trees are grown in
//! parallel with the workspace's scoped-thread `par_map`, one RNG stream
//! per tree derived from the forest seed.

use crate::class_weight::balanced_sample_weights;
use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::Model;
use crate::tree::{argmax, Criterion, DecisionTree, MaxFeatures, TreeParams};
use hpcutil::{par_map_indexed, ByteReader, ByteWriter, CodecError, ParallelConfig, SeedSequence};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Class weighting strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassWeight {
    /// All samples weigh the same.
    Uniform,
    /// Weights inversely proportional to class frequency
    /// (scikit-learn's `class_weight="balanced"`), the setting the paper
    /// uses to handle its imbalanced 92-class dataset.
    Balanced,
}

/// Hyper-parameters of the forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_estimators: usize,
    /// Split criterion shared by all trees.
    pub criterion: Criterion,
    /// Maximum tree depth (`None` = unlimited).
    pub max_depth: Option<usize>,
    /// Minimum samples required to split an internal node.
    pub min_samples_split: usize,
    /// Minimum samples required in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
    /// Whether each tree sees a bootstrap resample of the training set.
    pub bootstrap: bool,
    /// Class weighting strategy.
    pub class_weight: ClassWeight,
    /// Worker threads for tree growing (0 = auto).
    pub n_jobs: usize,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            criterion: Criterion::Gini,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            class_weight: ClassWeight::Balanced,
            n_jobs: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
    importances: Vec<f64>,
}

impl RandomForest {
    /// Fit a forest on `ds` with the given parameters and seed.
    pub fn fit(ds: &Dataset, params: &RandomForestParams, seed: u64) -> Result<Self, MlError> {
        if params.n_estimators == 0 {
            return Err(MlError::InvalidParameter("n_estimators must be >= 1"));
        }
        if ds.n_samples() == 0 {
            return Err(MlError::EmptyDataset);
        }
        let base_weights = match params.class_weight {
            ClassWeight::Uniform => vec![1.0; ds.n_samples()],
            ClassWeight::Balanced => balanced_sample_weights(ds.labels(), ds.n_classes()),
        };
        let tree_params = TreeParams {
            criterion: params.criterion,
            max_depth: params.max_depth,
            min_samples_split: params.min_samples_split,
            min_samples_leaf: params.min_samples_leaf,
            max_features: params.max_features,
        };
        let seeds = SeedSequence::new(seed);
        let n = ds.n_samples();

        let results: Vec<Result<DecisionTree, MlError>> = par_map_indexed(
            params.n_estimators,
            ParallelConfig {
                threads: params.n_jobs,
                chunk: 1,
            },
            |t| {
                let tree_seed = seeds.derive_indexed("tree", t as u64);
                if params.bootstrap {
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(seeds.derive_indexed("bootstrap", t as u64));
                    // Bootstrap: sample n indices with replacement, then fold
                    // the resample multiplicity into the sample weights so the
                    // tree trains on the original matrix without copying rows.
                    let mut multiplicity = vec![0.0f64; n];
                    for _ in 0..n {
                        multiplicity[rng.gen_range(0..n)] += 1.0;
                    }
                    let weights: Vec<f64> = multiplicity
                        .iter()
                        .zip(&base_weights)
                        .map(|(m, w)| m * w)
                        .collect();
                    DecisionTree::fit_weighted(ds, &weights, &tree_params, tree_seed)
                } else {
                    DecisionTree::fit_weighted(ds, &base_weights, &tree_params, tree_seed)
                }
            },
        );

        let mut trees = Vec::with_capacity(params.n_estimators);
        for r in results {
            trees.push(r?);
        }

        // Aggregate and normalize feature importances.
        let mut importances = vec![0.0; ds.n_features()];
        for tree in &trees {
            for (acc, &imp) in importances.iter_mut().zip(tree.raw_importances()) {
                *acc += imp;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for imp in &mut importances {
                *imp /= total;
            }
        }

        Ok(Self {
            trees,
            n_classes: ds.n_classes(),
            n_features: ds.n_features(),
            importances,
        })
    }

    /// Average class-probability estimate for one sample.
    pub fn predict_proba(&self, sample: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.leaf_proba(sample)) {
                *a += v;
            }
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

    /// Predicted class index for one sample.
    pub fn predict(&self, sample: &[f64]) -> usize {
        argmax(&self.predict_proba(sample))
    }

    // Batch prediction lives on the `Model` trait (`predict_batch`,
    // `predict_proba_batch`), shared with every other model.

    /// Normalized mean-decrease-in-impurity feature importances
    /// (sums to 1 unless no split was ever made).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features expected per sample.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Append this forest's binary encoding to `w` (the trained-classifier
    /// artifact format; see `hpcutil::codec`).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.n_classes);
        w.put_usize(self.n_features);
        w.put_usize(self.importances.len());
        for &imp in &self.importances {
            w.put_f64(imp);
        }
        w.put_usize(self.trees.len());
        for tree in &self.trees {
            tree.encode(w);
        }
    }

    /// Decode a forest previously written with [`RandomForest::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_classes = r.get_usize()?;
        let n_features = r.get_usize()?;
        let n_importances = r.get_usize()?;
        if n_importances != n_features {
            return Err(CodecError::new(format!(
                "forest importances length {n_importances} != n_features {n_features}"
            )));
        }
        let mut importances = Vec::with_capacity(n_importances);
        for _ in 0..n_importances {
            importances.push(r.get_f64()?);
        }
        let n_trees = r.get_usize()?;
        if n_trees == 0 {
            return Err(CodecError::new("forest has no trees"));
        }
        let mut trees = Vec::with_capacity(n_trees);
        for i in 0..n_trees {
            let tree = DecisionTree::decode(r)?;
            if tree.n_classes() != n_classes {
                return Err(CodecError::new(format!(
                    "tree {i} has {} classes, forest expects {n_classes}",
                    tree.n_classes()
                )));
            }
            if tree.n_features() != n_features {
                return Err(CodecError::new(format!(
                    "tree {i} expects {} features, forest expects {n_features}",
                    tree.n_features()
                )));
            }
            trees.push(tree);
        }
        Ok(Self {
            trees,
            n_classes,
            n_features,
            importances,
        })
    }
}

impl Model for RandomForest {
    type Params = RandomForestParams;

    fn fit(ds: &Dataset, params: &RandomForestParams, seed: u64) -> Result<Self, MlError> {
        RandomForest::fit(ds, params, seed)
    }

    fn predict_proba(&self, sample: &[f64]) -> Vec<f64> {
        RandomForest::predict_proba(self, sample)
    }

    fn n_classes(&self) -> usize {
        RandomForest::n_classes(self)
    }
}

impl RandomForestParams {
    /// Append the binary encoding of these parameters to `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.n_estimators);
        w.put_u8(match self.criterion {
            Criterion::Gini => 0,
            Criterion::Entropy => 1,
        });
        match self.max_depth {
            None => w.put_u8(0),
            Some(d) => {
                w.put_u8(1);
                w.put_usize(d);
            }
        }
        w.put_usize(self.min_samples_split);
        w.put_usize(self.min_samples_leaf);
        match self.max_features {
            MaxFeatures::All => w.put_u8(0),
            MaxFeatures::Sqrt => w.put_u8(1),
            MaxFeatures::Log2 => w.put_u8(2),
            MaxFeatures::Count(c) => {
                w.put_u8(3);
                w.put_usize(c);
            }
        }
        w.put_bool(self.bootstrap);
        w.put_u8(match self.class_weight {
            ClassWeight::Uniform => 0,
            ClassWeight::Balanced => 1,
        });
        w.put_usize(self.n_jobs);
    }

    /// Decode parameters previously written with
    /// [`RandomForestParams::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_estimators = r.get_usize()?;
        let criterion = match r.get_u8()? {
            0 => Criterion::Gini,
            1 => Criterion::Entropy,
            tag => return Err(CodecError::new(format!("unknown criterion tag {tag}"))),
        };
        let max_depth = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_usize()?),
            tag => return Err(CodecError::new(format!("unknown max_depth tag {tag}"))),
        };
        let min_samples_split = r.get_usize()?;
        let min_samples_leaf = r.get_usize()?;
        let max_features = match r.get_u8()? {
            0 => MaxFeatures::All,
            1 => MaxFeatures::Sqrt,
            2 => MaxFeatures::Log2,
            3 => MaxFeatures::Count(r.get_usize()?),
            tag => return Err(CodecError::new(format!("unknown max_features tag {tag}"))),
        };
        let bootstrap = r.get_bool()?;
        let class_weight = match r.get_u8()? {
            0 => ClassWeight::Uniform,
            1 => ClassWeight::Balanced,
            tag => return Err(CodecError::new(format!("unknown class_weight tag {tag}"))),
        };
        let n_jobs = r.get_usize()?;
        Ok(Self {
            n_estimators,
            criterion,
            max_depth,
            min_samples_split,
            min_samples_leaf,
            max_features,
            bootstrap,
            class_weight,
            n_jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per_class: usize, n_classes: usize) -> Dataset {
        // Deterministic "blob" data: class c centred at (3c, -3c).
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..n_classes {
            for i in 0..n_per_class {
                let jx = ((i * 7 + c * 13) % 10) as f64 * 0.05;
                let jy = ((i * 11 + c * 5) % 10) as f64 * 0.05;
                rows.push(vec![
                    3.0 * c as f64 + jx,
                    -3.0 * c as f64 + jy,
                    (i % 3) as f64,
                ]);
                labels.push(c);
            }
        }
        let names = (0..n_classes).map(|c| format!("class{c}")).collect();
        Dataset::from_rows(rows, labels, vec![], names).unwrap()
    }

    #[test]
    fn classifies_blobs() {
        let ds = blobs(20, 4);
        let forest = RandomForest::fit(
            &ds,
            &RandomForestParams {
                n_estimators: 30,
                ..Default::default()
            },
            11,
        )
        .unwrap();
        let mut correct = 0;
        for i in 0..ds.n_samples() {
            if forest.predict(ds.features().row(i)) == ds.labels()[i] {
                correct += 1;
            }
        }
        assert!(correct as f64 / ds.n_samples() as f64 > 0.95);
    }

    #[test]
    fn proba_is_normalized() {
        let ds = blobs(10, 3);
        let forest = RandomForest::fit(
            &ds,
            &RandomForestParams {
                n_estimators: 15,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let p = forest.predict_proba(&[3.0, -3.0, 1.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(argmax(&p), 1);
    }

    #[test]
    fn importances_sum_to_one() {
        let ds = blobs(15, 3);
        let forest = RandomForest::fit(
            &ds,
            &RandomForestParams {
                n_estimators: 20,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let imp = forest.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The third feature is noise; the informative coordinates dominate.
        assert!(imp[2] < imp[0] + imp[1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blobs(12, 3);
        let params = RandomForestParams {
            n_estimators: 10,
            ..Default::default()
        };
        let a = RandomForest::fit(&ds, &params, 99).unwrap();
        let b = RandomForest::fit(&ds, &params, 99).unwrap();
        for i in 0..ds.n_samples() {
            assert_eq!(
                a.predict_proba(ds.features().row(i)),
                b.predict_proba(ds.features().row(i))
            );
        }
        assert_eq!(a.feature_importances(), b.feature_importances());
    }

    #[test]
    fn different_seeds_differ() {
        let ds = blobs(12, 3);
        let params = RandomForestParams {
            n_estimators: 10,
            ..Default::default()
        };
        let a = RandomForest::fit(&ds, &params, 1).unwrap();
        let b = RandomForest::fit(&ds, &params, 2).unwrap();
        // Probabilities on at least one sample should differ between seeds.
        let differs = (0..ds.n_samples()).any(|i| {
            a.predict_proba(ds.features().row(i)) != b.predict_proba(ds.features().row(i))
        });
        assert!(differs);
    }

    #[test]
    fn zero_estimators_rejected() {
        let ds = blobs(5, 2);
        assert!(matches!(
            RandomForest::fit(
                &ds,
                &RandomForestParams {
                    n_estimators: 0,
                    ..Default::default()
                },
                0
            ),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn no_bootstrap_also_works() {
        let ds = blobs(10, 2);
        let params = RandomForestParams {
            n_estimators: 5,
            bootstrap: false,
            class_weight: ClassWeight::Uniform,
            ..Default::default()
        };
        let forest = RandomForest::fit(&ds, &params, 5).unwrap();
        assert_eq!(forest.n_trees(), 5);
        assert_eq!(forest.predict(&[0.0, 0.0, 0.0]), 0);
    }

    #[test]
    fn balanced_weights_help_minority_class() {
        // 95 samples of class 0 vs 5 of class 1, overlapping features; the
        // balanced forest must still be able to predict class 1 in its
        // region.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..95 {
            rows.push(vec![(i % 10) as f64 * 0.1]);
            labels.push(0);
        }
        for i in 0..5 {
            rows.push(vec![2.0 + (i % 3) as f64 * 0.1]);
            labels.push(1);
        }
        let ds = Dataset::from_rows(rows, labels, vec![], vec!["a".into(), "b".into()]).unwrap();
        let forest = RandomForest::fit(
            &ds,
            &RandomForestParams {
                n_estimators: 25,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        assert_eq!(forest.predict(&[2.1]), 1);
        assert_eq!(forest.predict(&[0.3]), 0);
    }

    #[test]
    fn encode_decode_roundtrip_preserves_predictions() {
        let ds = blobs(10, 3);
        let forest = RandomForest::fit(
            &ds,
            &RandomForestParams {
                n_estimators: 12,
                ..Default::default()
            },
            17,
        )
        .unwrap();
        let mut w = ByteWriter::new();
        forest.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = RandomForest::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(decoded.n_trees(), forest.n_trees());
        assert_eq!(decoded.n_classes(), forest.n_classes());
        assert_eq!(decoded.feature_importances(), forest.feature_importances());
        for i in 0..ds.n_samples() {
            assert_eq!(
                decoded.predict_proba(ds.features().row(i)),
                forest.predict_proba(ds.features().row(i))
            );
        }
    }

    #[test]
    fn decode_rejects_tree_with_mismatched_feature_count() {
        // A forest header declaring 1 feature followed by a tree trained on
        // 3 features: structurally valid bytes, but predicting through it
        // would index past the end of a sample row — decode must refuse.
        let ds = blobs(6, 2); // 3-feature dataset
        let tree = DecisionTree::fit(&ds, &TreeParams::default(), 1).unwrap();
        let mut w = ByteWriter::new();
        w.put_usize(2); // n_classes
        w.put_usize(1); // n_features (lies: the tree has 3)
        w.put_usize(1); // importances length
        w.put_f64(1.0);
        w.put_usize(1); // n_trees
        tree.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = RandomForest::decode(&mut r).unwrap_err();
        assert!(
            err.to_string().contains("features"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn truncated_forest_bytes_rejected() {
        let ds = blobs(6, 2);
        let forest = RandomForest::fit(
            &ds,
            &RandomForestParams {
                n_estimators: 3,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let mut w = ByteWriter::new();
        forest.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 8, 24, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                RandomForest::decode(&mut r).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn params_roundtrip_through_codec() {
        let params = RandomForestParams {
            n_estimators: 42,
            criterion: Criterion::Entropy,
            max_depth: Some(13),
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: MaxFeatures::Count(5),
            bootstrap: false,
            class_weight: ClassWeight::Uniform,
            n_jobs: 3,
        };
        let mut w = ByteWriter::new();
        params.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(RandomForestParams::decode(&mut r).unwrap(), params);
        assert!(r.is_empty());

        let mut w = ByteWriter::new();
        RandomForestParams::default().encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            RandomForestParams::decode(&mut r).unwrap(),
            RandomForestParams::default()
        );
    }

    #[test]
    fn batch_prediction_matches_single() {
        let ds = blobs(8, 3);
        let forest = RandomForest::fit(
            &ds,
            &RandomForestParams {
                n_estimators: 12,
                ..Default::default()
            },
            2,
        )
        .unwrap();
        let rows: Vec<Vec<f64>> = ds.features().rows().map(|r| r.to_vec()).collect();
        let batch = forest.predict_batch(&rows);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batch[i], forest.predict(row));
        }
        let probas = forest.predict_proba_batch(&rows);
        assert_eq!(probas.len(), rows.len());
    }
}
