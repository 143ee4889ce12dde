//! CART decision trees with sample weights.
//!
//! This is the base learner of the random forest: a binary tree grown by
//! recursively choosing the `(feature, threshold)` split that maximizes the
//! weighted impurity decrease, with the usual scikit-learn controls
//! (`max_depth`, `min_samples_split`, `min_samples_leaf`, `max_features`,
//! `criterion`). Sample weights are honoured throughout, which is how the
//! forest's balanced class weighting reaches the split search.

use crate::dataset::Dataset;
use crate::error::MlError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Split-quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity: `1 - sum_c p_c^2`.
    Gini,
    /// Shannon entropy: `-sum_c p_c log2 p_c`.
    Entropy,
}

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// `sqrt(n_features)`, the random-forest default.
    Sqrt,
    /// `log2(n_features)`.
    Log2,
    /// An explicit count (clamped to `1..=n_features`).
    Count(usize),
}

impl MaxFeatures {
    /// Resolve to an actual feature count for `n_features` total features.
    pub fn resolve(self, n_features: usize) -> usize {
        let n = n_features.max(1);
        let k = match self {
            MaxFeatures::All => n,
            MaxFeatures::Sqrt => (n as f64).sqrt().round() as usize,
            MaxFeatures::Log2 => (n as f64).log2().ceil() as usize,
            MaxFeatures::Count(c) => c,
        };
        k.clamp(1, n)
    }
}

/// Hyper-parameters for a single tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Split-quality criterion.
    pub criterion: Criterion,
    /// Maximum depth (`None` = unlimited).
    pub max_depth: Option<usize>,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples each child must retain.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            criterion: Criterion::Gini,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

/// One node of the grown tree, stored in an arena.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Weighted class distribution, normalized to sum to 1.
        proba: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART decision tree classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
    /// Un-normalized impurity decrease accumulated per feature.
    importances: Vec<f64>,
}

/// Compute impurity of a weighted class histogram.
fn impurity(hist: &[f64], total: f64, criterion: Criterion) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    match criterion {
        Criterion::Gini => {
            let mut sum_sq = 0.0;
            for &w in hist {
                let p = w / total;
                sum_sq += p * p;
            }
            1.0 - sum_sq
        }
        Criterion::Entropy => {
            let mut h = 0.0;
            for &w in hist {
                if w > 0.0 {
                    let p = w / total;
                    h -= p * p.log2();
                }
            }
            h
        }
    }
}

struct Builder<'a> {
    ds: &'a Dataset,
    weights: &'a [f64],
    params: &'a TreeParams,
    rng: ChaCha8Rng,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    max_features: usize,
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

impl<'a> Builder<'a> {
    /// Weighted class histogram of the given sample indices.
    fn histogram(&self, indices: &[usize]) -> (Vec<f64>, f64) {
        let mut hist = vec![0.0; self.ds.n_classes()];
        let mut total = 0.0;
        for &i in indices {
            let w = self.weights[i];
            hist[self.ds.labels()[i]] += w;
            total += w;
        }
        (hist, total)
    }

    fn make_leaf(&mut self, hist: &[f64], total: f64) -> usize {
        let proba: Vec<f64> = if total > 0.0 {
            hist.iter().map(|&w| w / total).collect()
        } else {
            vec![0.0; hist.len()]
        };
        self.nodes.push(Node::Leaf { proba });
        self.nodes.len() - 1
    }

    /// Find the best split of `indices` over a random subset of features.
    fn best_split(
        &mut self,
        indices: &[usize],
        parent_imp: f64,
        parent_total: f64,
    ) -> Option<BestSplit> {
        let n_features = self.ds.n_features();
        let mut features: Vec<usize> = (0..n_features).collect();
        features.shuffle(&mut self.rng);
        features.truncate(self.max_features);

        let criterion = self.params.criterion;
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<BestSplit> = None;

        // Reusable buffers for the left/right histograms.
        let n_classes = self.ds.n_classes();
        for &feat in &features {
            // Sort the samples of this node by the candidate feature.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| {
                self.ds
                    .features()
                    .get(a, feat)
                    .partial_cmp(&self.ds.features().get(b, feat))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });

            let mut left_hist = vec![0.0f64; n_classes];
            let mut left_total = 0.0f64;
            let (full_hist, full_total) = self.histogram(indices);

            for pos in 0..order.len().saturating_sub(1) {
                let i = order[pos];
                let w = self.weights[i];
                left_hist[self.ds.labels()[i]] += w;
                left_total += w;

                let v_here = self.ds.features().get(i, feat);
                let v_next = self.ds.features().get(order[pos + 1], feat);
                if v_next <= v_here + f64::EPSILON {
                    continue; // cannot split between equal values
                }
                let n_left = pos + 1;
                let n_right = order.len() - n_left;
                if n_left < min_leaf || n_right < min_leaf {
                    continue;
                }
                let right_total = full_total - left_total;
                if left_total <= 0.0 || right_total <= 0.0 {
                    continue;
                }
                let right_hist: Vec<f64> = full_hist
                    .iter()
                    .zip(&left_hist)
                    .map(|(f, l)| f - l)
                    .collect();
                let imp_left = impurity(&left_hist, left_total, criterion);
                let imp_right = impurity(&right_hist, right_total, criterion);
                let weighted_child =
                    (left_total * imp_left + right_total * imp_right) / parent_total;
                let gain = parent_imp - weighted_child;
                if gain > best.as_ref().map(|b| b.gain).unwrap_or(1e-12) {
                    best = Some(BestSplit {
                        feature: feat,
                        threshold: 0.5 * (v_here + v_next),
                        gain,
                    });
                }
            }
        }
        best
    }

    fn grow(&mut self, indices: &[usize], depth: usize) -> usize {
        let (hist, total) = self.histogram(indices);
        let parent_imp = impurity(&hist, total, self.params.criterion);

        let depth_exceeded = self.params.max_depth.map(|d| depth >= d).unwrap_or(false);
        let too_small = indices.len() < self.params.min_samples_split;
        let pure = parent_imp <= 1e-12;
        if depth_exceeded || too_small || pure || total <= 0.0 {
            return self.make_leaf(&hist, total);
        }

        let Some(split) = self.best_split(indices, parent_imp, total) else {
            return self.make_leaf(&hist, total);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| self.ds.features().get(i, split.feature) <= split.threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.make_leaf(&hist, total);
        }

        // Importance: weighted impurity decrease, weighted by the fraction of
        // total training weight reaching this node.
        self.importances[split.feature] += total * split.gain;

        // Reserve this node's slot before recursing so children get later
        // indices.
        self.nodes.push(Node::Leaf { proba: Vec::new() });
        let this = self.nodes.len() - 1;
        let left = self.grow(&left_idx, depth + 1);
        let right = self.grow(&right_idx, depth + 1);
        self.nodes[this] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        this
    }
}

impl DecisionTree {
    /// Fit a tree on `ds` using per-sample `weights`.
    ///
    /// `seed` controls the random feature subsampling at each split.
    pub fn fit_weighted(
        ds: &Dataset,
        weights: &[f64],
        params: &TreeParams,
        seed: u64,
    ) -> Result<Self, MlError> {
        if ds.n_samples() == 0 {
            return Err(MlError::EmptyDataset);
        }
        if weights.len() != ds.n_samples() {
            return Err(MlError::LengthMismatch {
                rows: ds.n_samples(),
                labels: weights.len(),
            });
        }
        if params.min_samples_split < 2 {
            return Err(MlError::InvalidParameter("min_samples_split must be >= 2"));
        }
        if params.min_samples_leaf < 1 {
            return Err(MlError::InvalidParameter("min_samples_leaf must be >= 1"));
        }
        let max_features = params.max_features.resolve(ds.n_features());
        let mut builder = Builder {
            ds,
            weights,
            params,
            rng: ChaCha8Rng::seed_from_u64(seed),
            nodes: Vec::new(),
            importances: vec![0.0; ds.n_features()],
            max_features,
        };
        let all: Vec<usize> = (0..ds.n_samples()).collect();
        let root = builder.grow(&all, 0);
        debug_assert_eq!(root, 0);
        Ok(Self {
            nodes: builder.nodes,
            n_classes: ds.n_classes(),
            n_features: ds.n_features(),
            importances: builder.importances,
        })
    }

    /// Fit with uniform sample weights.
    pub fn fit(ds: &Dataset, params: &TreeParams, seed: u64) -> Result<Self, MlError> {
        let w = vec![1.0; ds.n_samples()];
        Self::fit_weighted(ds, &w, params, seed)
    }

    /// Class-probability estimate for one sample.
    pub fn predict_proba(&self, sample: &[f64]) -> Vec<f64> {
        self.leaf_proba(sample).to_vec()
    }

    /// The class-probability estimate for one sample, borrowed from the
    /// leaf the sample reaches.
    pub fn leaf_proba(&self, sample: &[f64]) -> &[f64] {
        debug_assert_eq!(sample.len(), self.n_features);
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { proba } => return proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if sample[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicted class index for one sample.
    pub fn predict(&self, sample: &[f64]) -> usize {
        argmax(self.leaf_proba(sample))
    }

    /// Number of nodes in the tree (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, 0)
    }

    /// Number of classes the tree was trained with.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features expected per sample.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Un-normalized per-feature importance (total weighted impurity
    /// decrease). The forest normalizes the aggregate.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Append this tree's binary encoding to `w` (the trained-classifier
    /// artifact format; see `hpcutil::codec`).
    pub fn encode(&self, w: &mut hpcutil::ByteWriter) {
        w.put_usize(self.n_classes);
        w.put_usize(self.n_features);
        w.put_usize(self.importances.len());
        for &imp in &self.importances {
            w.put_f64(imp);
        }
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { proba } => {
                    w.put_u8(0);
                    w.put_usize(proba.len());
                    for &p in proba {
                        w.put_f64(p);
                    }
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    w.put_u8(1);
                    w.put_usize(*feature);
                    w.put_f64(*threshold);
                    w.put_usize(*left);
                    w.put_usize(*right);
                }
            }
        }
    }

    /// Decode a tree previously written with [`DecisionTree::encode`],
    /// validating node indices and feature references.
    pub fn decode(r: &mut hpcutil::ByteReader<'_>) -> Result<Self, hpcutil::CodecError> {
        use hpcutil::CodecError;
        let n_classes = r.get_usize()?;
        let n_features = r.get_usize()?;
        let n_importances = r.get_usize()?;
        if n_importances != n_features {
            return Err(CodecError::new(format!(
                "tree importances length {n_importances} != n_features {n_features}"
            )));
        }
        let mut importances = Vec::with_capacity(n_importances);
        for _ in 0..n_importances {
            importances.push(r.get_f64()?);
        }
        let n_nodes = r.get_usize()?;
        if n_nodes == 0 {
            return Err(CodecError::new("tree has no nodes"));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            match r.get_u8()? {
                0 => {
                    let len = r.get_usize()?;
                    if len != n_classes {
                        return Err(CodecError::new(format!(
                            "leaf {i} has {len} probabilities, expected {n_classes}"
                        )));
                    }
                    let mut proba = Vec::with_capacity(len);
                    for _ in 0..len {
                        proba.push(r.get_f64()?);
                    }
                    nodes.push(Node::Leaf { proba });
                }
                1 => {
                    let feature = r.get_usize()?;
                    let threshold = r.get_f64()?;
                    let left = r.get_usize()?;
                    let right = r.get_usize()?;
                    if feature >= n_features {
                        return Err(CodecError::new(format!(
                            "split {i} references feature {feature} of {n_features}"
                        )));
                    }
                    if left >= n_nodes || right >= n_nodes || left <= i || right <= i {
                        return Err(CodecError::new(format!(
                            "split {i} has out-of-order children ({left}, {right}) of {n_nodes}"
                        )));
                    }
                    nodes.push(Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    });
                }
                tag => return Err(CodecError::new(format!("unknown node tag {tag:#04x}"))),
            }
        }
        Ok(Self {
            nodes,
            n_classes,
            n_features,
            importances,
        })
    }
}

/// Index of the maximum value (first one wins ties).
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Dataset {
        // Class 0: feature0 < 1, class 1: feature0 > 2.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            rows.push(vec![0.1 + 0.02 * i as f64, (i % 5) as f64]);
            labels.push(0);
            rows.push(vec![2.5 + 0.02 * i as f64, (i % 3) as f64]);
            labels.push(1);
        }
        Dataset::from_rows(rows, labels, vec![], vec!["a".into(), "b".into()]).unwrap()
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let ds = separable();
        let tree = DecisionTree::fit(&ds, &TreeParams::default(), 1).unwrap();
        for i in 0..ds.n_samples() {
            assert_eq!(tree.predict(ds.features().row(i)), ds.labels()[i]);
        }
        // One split suffices.
        assert!(tree.depth() >= 1);
        assert!(tree.node_count() >= 3);
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = separable();
        let tree = DecisionTree::fit(&ds, &TreeParams::default(), 3).unwrap();
        let p = tree.predict_proba(&[1.5, 2.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_depth_zero_gives_single_leaf() {
        let ds = separable();
        let params = TreeParams {
            max_depth: Some(0),
            ..Default::default()
        };
        let tree = DecisionTree::fit(&ds, &params, 1).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        // The prior is uniform (balanced data), so proba is 0.5/0.5.
        let p = tree.predict_proba(&[0.0, 0.0]);
        assert!((p[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ds = separable();
        let params = TreeParams {
            min_samples_leaf: 25,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&ds, &params, 1).unwrap();
        // With 60 samples and min leaf 25 the tree can split at most once.
        assert!(tree.depth() <= 1 + 1);
    }

    #[test]
    fn importances_concentrate_on_informative_feature() {
        let ds = separable();
        let tree = DecisionTree::fit(&ds, &TreeParams::default(), 5).unwrap();
        let imp = tree.raw_importances();
        assert!(imp[0] > imp[1], "feature 0 separates the classes: {imp:?}");
    }

    #[test]
    fn sample_weights_shift_the_prior() {
        // All samples identical features, two classes; weights decide the
        // leaf distribution.
        let ds = Dataset::from_rows(
            vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]],
            vec![0, 0, 0, 1],
            vec![],
            vec!["x".into(), "y".into()],
        )
        .unwrap();
        let weights = vec![1.0, 1.0, 1.0, 9.0];
        let tree = DecisionTree::fit_weighted(&ds, &weights, &TreeParams::default(), 0).unwrap();
        let p = tree.predict_proba(&[1.0]);
        assert!(
            p[1] > p[0],
            "heavily weighted minority sample should dominate: {p:?}"
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let ds = separable();
        assert!(matches!(
            DecisionTree::fit(
                &ds,
                &TreeParams {
                    min_samples_split: 1,
                    ..Default::default()
                },
                0
            ),
            Err(MlError::InvalidParameter(_))
        ));
        assert!(matches!(
            DecisionTree::fit(
                &ds,
                &TreeParams {
                    min_samples_leaf: 0,
                    ..Default::default()
                },
                0
            ),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = Dataset::from_rows(vec![], vec![], vec![], vec!["c".into()]).unwrap();
        assert!(matches!(
            DecisionTree::fit(&ds, &TreeParams::default(), 0),
            Err(MlError::EmptyDataset)
        ));
    }

    #[test]
    fn entropy_criterion_also_separates() {
        let ds = separable();
        let params = TreeParams {
            criterion: Criterion::Entropy,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&ds, &params, 2).unwrap();
        assert_eq!(tree.predict(&[0.2, 1.0]), 0);
        assert_eq!(tree.predict(&[3.0, 1.0]), 1);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(100), 10);
        assert_eq!(MaxFeatures::Log2.resolve(64), 6);
        assert_eq!(MaxFeatures::Count(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Count(0).resolve(10), 1);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(0), 1);
    }

    #[test]
    fn impurity_functions() {
        assert!((impurity(&[5.0, 5.0], 10.0, Criterion::Gini) - 0.5).abs() < 1e-9);
        assert!((impurity(&[10.0, 0.0], 10.0, Criterion::Gini)).abs() < 1e-9);
        assert!((impurity(&[5.0, 5.0], 10.0, Criterion::Entropy) - 1.0).abs() < 1e-9);
        assert_eq!(impurity(&[0.0, 0.0], 0.0, Criterion::Gini), 0.0);
    }

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[0.2, 0.5, 0.5]), 1);
        assert_eq!(argmax(&[1.0]), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = separable();
        let params = TreeParams {
            max_features: MaxFeatures::Count(1),
            ..Default::default()
        };
        let a = DecisionTree::fit(&ds, &params, 42).unwrap();
        let b = DecisionTree::fit(&ds, &params, 42).unwrap();
        for i in 0..ds.n_samples() {
            assert_eq!(
                a.predict_proba(ds.features().row(i)),
                b.predict_proba(ds.features().row(i))
            );
        }
    }
}
