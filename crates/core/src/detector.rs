//! In-out detection: the enhanced histogram-based one-class classifier
//! (paper Sections IV-C and V-B) and the original, non-enhanced variant
//! used in the Fig. 8 comparison.

use serde::{Deserialize, Serialize};

use gem_nn::Tensor;

use crate::codec::{put_count, put_f32s, Cur};
use crate::hbos::HistogramModel;
use crate::persist::{put_json, take_json, PersistError};

/// Outcome of scoring one sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Detection {
    /// The rescaled outlier score `S_T(h)` (enhanced) or normalized raw
    /// score (baseline) — higher means more likely outside.
    pub score: f64,
    /// `true` when the sample is classified as an outlier (outside).
    pub is_outlier: bool,
    /// `true` when the sample is a *highly confident* in-premises sample
    /// (enhanced detector only; `score < τ_l`).
    pub confident_inlier: bool,
}

/// The paper's enhanced detector: HBOS raw scores → min-max normalization
/// *frozen at training time* → temperature softmax (Eq. 10) → fixed
/// thresholds `τ_u` (decision) and `τ_l` (update confidence). Histograms
/// absorb confident in-premises samples online; the score normalization
/// and thresholds never drift with the growing data size — that is the
/// enhancement.
#[derive(Clone, Debug)]
pub struct EnhancedDetector {
    hist: HistogramModel,
    /// The initial training embeddings, kept as the *frozen reference
    /// set*: after every histogram update the normalization bounds are
    /// re-anchored on this set's raw scores, so absorbing new samples
    /// never drifts the operating point of the fixed thresholds (and the
    /// update stage is the most expensive one, as in the paper's
    /// Table III).
    reference: Vec<Vec<f32>>,
    /// Normalization bounds, re-anchored on the reference set.
    score_min: f64,
    /// See [`EnhancedDetector::score_min`].
    score_max: f64,
    /// Softmax scaling factor `T`.
    pub temperature: f64,
    /// Decision threshold `τ_u` (Eq. 11).
    pub tau_u: f64,
    /// Update-confidence threshold `τ_l < τ_u`.
    pub tau_l: f64,
    /// Confident samples absorbed online.
    pub n_updates: usize,
    /// Scoring state derived from `hist` and `reference`; never
    /// serialized.
    terms: ScoreTerms,
}

/// Table-driven scoring. The histogram ranges are frozen at fit, so a
/// reference row's term slots never change; only the term table moves,
/// once per absorbed sample.
#[derive(Clone, Debug, Default)]
struct ScoreTerms {
    /// `hist.term_table_into` under the current counts.
    table: Vec<f64>,
    /// Row-major flat table index (`j · (bins + 1) + slot`) of every
    /// reference row's components.
    reference_slots: Vec<u32>,
}

impl ScoreTerms {
    fn new(hist: &HistogramModel, reference: &[Vec<f32>]) -> Self {
        let mut terms = ScoreTerms::default();
        hist.term_table_into(&mut terms.table);
        for row in reference {
            terms.reference_slots.extend(
                row.iter().enumerate().map(|(j, &v)| flat_slot(hist, j, hist.term_slot(j, v))),
            );
        }
        terms
    }

    /// The terms at `slots` (one per dimension, in order) summed from
    /// `0.0` in that order, as `HistogramModel::raw_score` adds them.
    fn sum(&self, slots: impl IntoIterator<Item = u32>) -> f64 {
        let mut score = 0.0f64;
        for k in slots {
            score += self.table[k as usize];
        }
        score
    }

    /// `hist.raw_score(sample)`, bitwise, from the table.
    fn raw_score(&self, hist: &HistogramModel, sample: &[f32]) -> f64 {
        assert_eq!(sample.len(), hist.dim(), "sample dimensionality mismatch");
        self.sum(sample.iter().enumerate().map(|(j, &v)| flat_slot(hist, j, hist.term_slot(j, v))))
    }
}

fn flat_slot(hist: &HistogramModel, j: usize, slot: usize) -> u32 {
    (j * (hist.bins() + 1) + slot) as u32
}

/// The detector serializes as its eight stored fields, in declaration
/// order; the derived scoring terms stay out of the image.
impl Serialize for EnhancedDetector {
    fn serialize(&self) -> serde::Value {
        let field = |name: &str, value: serde::Value| (name.to_string(), value);
        serde::Value::Object(vec![
            field("hist", self.hist.serialize()),
            field("reference", self.reference.serialize()),
            field("score_min", self.score_min.serialize()),
            field("score_max", self.score_max.serialize()),
            field("temperature", self.temperature.serialize()),
            field("tau_u", self.tau_u.serialize()),
            field("tau_l", self.tau_l.serialize()),
            field("n_updates", self.n_updates.serialize()),
        ])
    }
}

impl Deserialize for EnhancedDetector {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::type_mismatch("struct EnhancedDetector", value))?;
        fn get<T: Deserialize>(
            fields: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::Error> {
            T::deserialize(serde::get_field(fields, "EnhancedDetector", name)?)
        }
        let hist: HistogramModel = get(fields, "hist")?;
        let reference: Vec<Vec<f32>> = get(fields, "reference")?;
        if !hist.is_well_formed() || reference.iter().any(|r| r.len() != hist.dim()) {
            return Err(serde::Error::custom(
                "detector histograms and reference rows disagree on their shape",
            ));
        }
        let terms = ScoreTerms::new(&hist, &reference);
        Ok(EnhancedDetector {
            hist,
            reference,
            score_min: get(fields, "score_min")?,
            score_max: get(fields, "score_max")?,
            temperature: get(fields, "temperature")?,
            tau_u: get(fields, "tau_u")?,
            tau_l: get(fields, "tau_l")?,
            n_updates: get(fields, "n_updates")?,
            terms,
        })
    }
}

/// The detector's scalar fields: the JSON section of its binary image.
#[derive(Serialize, Deserialize)]
struct DetectorScalars {
    score_min: f64,
    score_max: f64,
    temperature: f64,
    tau_u: f64,
    tau_l: f64,
    n_updates: usize,
}

impl EnhancedDetector {
    /// Appends the detector's part of a binary snapshot image: the
    /// histograms, the reference rows as raw `f32` runs and the scalars
    /// as a JSON section (layout in [`crate::persist`]).
    pub(crate) fn encode_binary(&self, out: &mut Vec<u8>) {
        self.hist.encode_binary(out);
        put_count(out, self.reference.len());
        for row in &self.reference {
            put_f32s(out, row);
        }
        put_json(
            out,
            &DetectorScalars {
                score_min: self.score_min,
                score_max: self.score_max,
                temperature: self.temperature,
                tau_u: self.tau_u,
                tau_l: self.tau_l,
                n_updates: self.n_updates,
            },
        );
    }

    /// Reads an [`EnhancedDetector::encode_binary`] image.
    pub(crate) fn decode_binary(c: &mut Cur) -> Result<Self, PersistError> {
        let hist = HistogramModel::decode_binary(c)?;
        let dim = hist.dim();
        if dim == 0 || !hist.is_well_formed() {
            return Err(PersistError::Format(
                "binary snapshot: detector histograms are malformed".into(),
            ));
        }
        let rows = c.count(4 * dim, "detector reference")?;
        let mut reference = Vec::new();
        for _ in 0..rows {
            reference.push(c.f32s(dim, "detector reference")?);
        }
        let s: DetectorScalars = take_json(c, "detector scalars")?;
        let terms = ScoreTerms::new(&hist, &reference);
        Ok(EnhancedDetector {
            hist,
            reference,
            score_min: s.score_min,
            score_max: s.score_max,
            temperature: s.temperature,
            tau_u: s.tau_u,
            tau_l: s.tau_l,
            n_updates: s.n_updates,
            terms,
        })
    }

    /// Fits histograms on the training embeddings and freezes the score
    /// normalization.
    pub fn fit(train: &Tensor, bins: usize, temperature: f64, tau_u: f64, tau_l: f64) -> Self {
        assert!(tau_l < tau_u, "τ_l must be stricter than τ_u");
        assert!(temperature > 0.0);
        let hist = HistogramModel::fit(train, bins);
        let raw = hist.raw_scores(train);
        let score_min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        let score_max = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let reference: Vec<Vec<f32>> = (0..train.rows()).map(|i| train.row(i).to_vec()).collect();
        let terms = ScoreTerms::new(&hist, &reference);
        EnhancedDetector {
            hist,
            reference,
            score_min,
            score_max,
            temperature,
            tau_u,
            tau_l,
            n_updates: 0,
            terms,
        }
    }

    /// Recomputes the normalization bounds from the reference set's raw
    /// scores under the *current* histograms. Rebuilds the term table
    /// once, then sums each reference row's frozen slots — the same
    /// bits as `hist.raw_score` over every row.
    fn reanchor(&mut self) {
        self.hist.term_table_into(&mut self.terms.table);
        let dim = self.hist.dim();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..self.reference.len() {
            let s =
                self.terms.sum(self.terms.reference_slots[i * dim..(i + 1) * dim].iter().copied());
            min = min.min(s);
            max = max.max(s);
        }
        self.score_min = min;
        self.score_max = max;
    }

    /// Fits the detector and then *optimizes the thresholds on the
    /// training scores*, per the paper's "the scaling parameter T and the
    /// new threshold value τ_u are considered as hyperparameters to be
    /// optimized in the learning process": `τ_u` is set so that the
    /// `keep_in` fraction of training samples classify as in-premises,
    /// and `τ_l` so the `confident` fraction qualifies for online
    /// updates. The provided `tau_u`/`tau_l` act as floors.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_calibrated(
        train: &Tensor,
        bins: usize,
        temperature: f64,
        tau_u_floor: f64,
        tau_l_floor: f64,
        keep_in: f64,
        confident: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&keep_in) && (0.0..=1.0).contains(&confident));
        assert!(confident < keep_in, "confidence band must be inside the in-band");
        let mut det = Self::fit(train, bins, temperature, tau_u_floor.max(1e-9), tau_l_floor);
        let mut scores: Vec<f64> = (0..train.rows()).map(|i| det.score(train.row(i))).collect();
        scores.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| scores[((scores.len() - 1) as f64 * p) as usize];
        // Cap τ_u below S_T's saturation plateau: embeddings whose
        // training scores span the whole [0,1] range (a degenerate
        // detector input) would otherwise calibrate τ_u ≈ 1 and never
        // flag anything.
        det.tau_u = q(keep_in).max(tau_u_floor).min(0.9);
        det.tau_l = q(confident).max(tau_l_floor).min(det.tau_u * 0.999);
        det
    }

    /// Min-max-normalized raw score `H̄(h) ∈ [0, 1]` (clamped for samples
    /// outside the training score range).
    pub fn normalized_raw(&self, sample: &[f32]) -> f64 {
        let raw = self.terms.raw_score(&self.hist, sample);
        if self.score_max <= self.score_min {
            return 0.5;
        }
        ((raw - self.score_min) / (self.score_max - self.score_min)).clamp(0.0, 1.0)
    }

    /// The rescaled score `S_T(h)` of paper Eq. 10:
    /// `exp(H̄/T) / (exp(H̄/T) + exp((1−H̄)/T))`, computed in the
    /// numerically stable logistic form `σ((2H̄−1)/T)`.
    pub fn score(&self, sample: &[f32]) -> f64 {
        let h = self.normalized_raw(sample);
        1.0 / (1.0 + (-(2.0 * h - 1.0) / self.temperature).exp())
    }

    /// Classifies one sample (no model mutation).
    pub fn detect(&self, sample: &[f32]) -> Detection {
        let score = self.score(sample);
        Detection { score, is_outlier: score > self.tau_u, confident_inlier: score < self.tau_l }
    }

    /// Classifies and, when the sample is a highly confident in-premises
    /// one, absorbs it into the histograms (paper Section V-B). Returns
    /// the detection; `confident_inlier` tells whether an update happened.
    pub fn detect_and_update(&mut self, sample: &[f32]) -> Detection {
        let det = self.detect(sample);
        self.update_if_confident(sample, &det);
        det
    }

    /// The update half of [`EnhancedDetector::detect_and_update`]:
    /// absorbs the sample when `det` — a previously computed
    /// [`EnhancedDetector::detect`] result for this same sample — marks
    /// it highly confident, without re-scoring. Returns whether an
    /// update happened.
    pub fn update_if_confident(&mut self, sample: &[f32], det: &Detection) -> bool {
        if det.confident_inlier {
            self.hist.update(sample);
            self.n_updates += 1;
            self.reanchor();
            true
        } else {
            false
        }
    }

    /// Dimensionality of the scored embeddings.
    pub(crate) fn dim(&self) -> usize {
        self.hist.dim()
    }

    /// Total samples inside the histograms (initial + absorbed).
    pub fn n_samples(&self) -> usize {
        self.hist.n_samples()
    }
}

/// The original histogram-based algorithm (paper's description of \[17\]):
/// the threshold `τ` is the `γ`-quantile of the min-max-normalized
/// training scores, and **normalization bounds and threshold are
/// recomputed whenever data is absorbed**, making the operating point
/// drift with data size — the failure mode the enhancement removes. It
/// also absorbs *any* sample it predicts as normal (no confidence band).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineHbos {
    hist: HistogramModel,
    bins: usize,
    /// Contamination factor `γ`.
    pub contamination: f64,
    /// Scores of all absorbed data (needed to recompute `τ`).
    absorbed: Vec<Vec<f32>>,
    score_min: f64,
    score_max: f64,
    /// Current threshold on the normalized score.
    pub tau: f64,
}

impl BaselineHbos {
    /// Fits the original algorithm.
    pub fn fit(train: &Tensor, bins: usize, contamination: f64) -> Self {
        let absorbed: Vec<Vec<f32>> = (0..train.rows()).map(|i| train.row(i).to_vec()).collect();
        let mut model = BaselineHbos {
            hist: HistogramModel::fit(train, bins),
            bins,
            contamination,
            absorbed,
            score_min: 0.0,
            score_max: 1.0,
            tau: 1.0,
        };
        model.recompute_threshold();
        model
    }

    fn recompute_threshold(&mut self) {
        let raw: Vec<f64> = self.absorbed.iter().map(|s| self.hist.raw_score(s)).collect();
        self.score_min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        self.score_max = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (self.score_max - self.score_min).max(1e-12);
        let mut normalized: Vec<f64> = raw.iter().map(|r| (r - self.score_min) / span).collect();
        // Sort descending; τ is the score of the ⌈n·γ⌉-th highest sample.
        normalized.sort_by(|a, b| b.total_cmp(a));
        let i_star = ((normalized.len() as f64 * self.contamination) as usize)
            .min(normalized.len().saturating_sub(1));
        self.tau = normalized[i_star];
    }

    /// Normalized score with the *current* (drifting) bounds.
    pub fn score(&self, sample: &[f32]) -> f64 {
        let raw = self.hist.raw_score(sample);
        let span = (self.score_max - self.score_min).max(1e-12);
        ((raw - self.score_min) / span).clamp(0.0, 1.0)
    }

    /// Classifies one sample.
    pub fn detect(&self, sample: &[f32]) -> Detection {
        let score = self.score(sample);
        let is_outlier = score > self.tau;
        Detection { score, is_outlier, confident_inlier: !is_outlier }
    }

    /// Classifies and absorbs every predicted-normal sample, recomputing
    /// bounds and threshold (the data-size-dependent behaviour).
    pub fn detect_and_update(&mut self, sample: &[f32]) -> Detection {
        let det = self.detect(sample);
        if !det.is_outlier {
            self.hist.update(sample);
            self.absorbed.push(sample.to_vec());
            self.recompute_threshold();
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Training cluster: mass around 0.5 per dim with a thin tail at 0.8
    /// (the clustered shape real embeddings have).
    fn train_cluster() -> Tensor {
        Tensor::from_fn(60, 4, |i, j| {
            if i % 20 == 19 {
                0.8
            } else {
                0.48 + ((i * 3 + j * 5) % 5) as f32 / 100.0
            }
        })
    }

    fn inlier() -> [f32; 4] {
        [0.5, 0.5, 0.5, 0.5]
    }

    fn outlier() -> [f32; 4] {
        [1.4, -0.3, 2.0, -1.0]
    }

    #[test]
    fn scores_order_inliers_below_outliers() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        assert!(det.score(&inlier()) < det.score(&outlier()));
    }

    #[test]
    fn softmax_saturates_outliers_toward_one() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        // Out-of-range sample clamps to H̄ = 1 → S_T ≈ σ(1/T) ≈ 1.
        assert!(det.score(&outlier()) > 0.999);
    }

    #[test]
    fn paper_thresholds_classify_correctly() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let d_in = det.detect(&inlier());
        let d_out = det.detect(&outlier());
        assert!(!d_in.is_outlier);
        assert!(d_out.is_outlier);
        assert!(!d_out.confident_inlier);
    }

    #[test]
    fn confident_updates_absorb_only_inliers() {
        let mut det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let n0 = det.n_samples();
        let d = det.detect_and_update(&inlier());
        assert!(d.confident_inlier);
        assert_eq!(det.n_samples(), n0 + 1);
        let d = det.detect_and_update(&outlier());
        assert!(!d.confident_inlier);
        assert_eq!(det.n_samples(), n0 + 1, "outliers must not be absorbed");
        assert_eq!(det.n_updates, 1);
    }

    #[test]
    fn normalization_is_frozen_under_updates() {
        let mut det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let before = det.score(&outlier());
        for _ in 0..50 {
            det.detect_and_update(&inlier());
        }
        let after = det.score(&outlier());
        // Histogram of the inlier bin grew, but the outlier still clamps
        // to H̄ = 1: its score must not drift downward.
        assert!((after - before).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn score_is_monotone_in_normalized_raw() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let samples: Vec<[f32; 4]> = vec![inlier(), [0.8, 0.8, 0.5, 0.5], outlier()];
        let mut last_raw = -1.0;
        let mut last_st = -1.0;
        for s in &samples {
            let raw = det.normalized_raw(s);
            let st = det.score(s);
            if raw > last_raw {
                assert!(st >= last_st, "S_T must be monotone in H̄");
            }
            last_raw = raw;
            last_st = st;
        }
    }

    #[test]
    fn baseline_threshold_drifts_with_updates() {
        let mut base = BaselineHbos::fit(&train_cluster(), 10, 0.05);
        let tau0 = base.tau;
        // Feed inliers the baseline happily absorbs: the dominant bin
        // grows, every other sample's relative score rises, and the
        // recomputed normalization bounds and quantile threshold move.
        for _ in 0..40 {
            base.detect_and_update(&inlier());
        }
        assert_ne!(base.tau, tau0, "baseline threshold must drift");
    }

    #[test]
    fn baseline_classifies_gross_outliers() {
        let base = BaselineHbos::fit(&train_cluster(), 10, 0.05);
        assert!(base.detect(&outlier()).is_outlier);
    }

    #[test]
    #[should_panic(expected = "τ_l must be stricter")]
    fn rejects_inverted_thresholds() {
        EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.001, 0.005);
    }

    /// `score` through the per-row `raw_score` loop: the definition the
    /// table-driven path must match bitwise.
    fn reference_score(det: &EnhancedDetector, sample: &[f32]) -> f64 {
        let raw = det.hist.raw_score(sample);
        let h = if det.score_max <= det.score_min {
            0.5
        } else {
            ((raw - det.score_min) / (det.score_max - det.score_min)).clamp(0.0, 1.0)
        };
        1.0 / (1.0 + (-(2.0 * h - 1.0) / det.temperature).exp())
    }

    /// Normalization bounds through the per-row `raw_score` loop.
    fn reference_bounds(det: &EnhancedDetector) -> (u64, u64) {
        let raw = det.reference.iter().map(|r| det.hist.raw_score(r));
        let min = raw.clone().fold(f64::INFINITY, f64::min);
        let max = raw.fold(f64::NEG_INFINITY, f64::max);
        (min.to_bits(), max.to_bits())
    }

    /// A random detector input: clustered columns, some constant
    /// (degenerate) columns, and a random bin count.
    fn random_train(rng: &mut StdRng) -> (Tensor, usize) {
        let rows = rng.random_range(1..40usize);
        let dim = rng.random_range(1..6usize);
        let constant: Vec<bool> = (0..dim).map(|_| rng.random_range(0..3usize) == 0).collect();
        let vals: Vec<f32> = (0..rows * dim).map(|_| rng.random_range(0.3..0.7f32)).collect();
        let train =
            Tensor::from_fn(rows, dim, |i, j| if constant[j] { 0.25 } else { vals[i * dim + j] });
        (train, rng.random_range(1..12usize))
    }

    /// A probe sample: in range, just outside, far out, or exactly on a
    /// degenerate column's constant.
    fn random_sample(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|_| match rng.random_range(0..4usize) {
                0 => rng.random_range(0.25..0.75f32),
                1 => 0.25,
                2 => rng.random_range(-5.0..5.0f32),
                _ => rng.random_range(0.68..0.72f32),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Under random update sequences the table re-anchor and the
        /// table-driven `detect` equal the per-row `raw_score` loop
        /// bitwise, for degenerate columns and out-of-range samples too.
        #[test]
        fn table_scoring_matches_per_row_raw_scores(seed in 0u64..1 << 32) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (train, bins) = random_train(&mut rng);
            let mut det = EnhancedDetector::fit(&train, bins, 0.06, 0.5, 0.4);
            for _ in 0..rng.random_range(0..30usize) {
                let sample = random_sample(&mut rng, train.cols());
                // Absorb regardless of confidence, to reach bins a
                // calibrated detector would rarely update.
                let forced = Detection { score: 0.0, is_outlier: false, confident_inlier: true };
                det.update_if_confident(&sample, &forced);
                let (min, max) = reference_bounds(&det);
                proptest::prop_assert_eq!(det.score_min.to_bits(), min);
                proptest::prop_assert_eq!(det.score_max.to_bits(), max);
                for _ in 0..4 {
                    let probe = random_sample(&mut rng, train.cols());
                    let got = det.detect(&probe);
                    proptest::prop_assert_eq!(
                        det.terms.raw_score(&det.hist, &probe).to_bits(),
                        det.hist.raw_score(&probe).to_bits()
                    );
                    proptest::prop_assert_eq!(got.score.to_bits(), reference_score(&det, &probe).to_bits());
                }
            }
        }
    }

    /// The detector as `#[derive(Serialize)]` wrote it before its scoring
    /// terms existed: the image must not change by a byte.
    #[derive(Serialize)]
    struct DerivedImage {
        hist: HistogramModel,
        reference: Vec<Vec<f32>>,
        score_min: f64,
        score_max: f64,
        temperature: f64,
        tau_u: f64,
        tau_l: f64,
        n_updates: usize,
    }

    #[test]
    fn json_image_keeps_keys_order_and_bytes() {
        let mut det =
            EnhancedDetector::fit_calibrated(&train_cluster(), 10, 0.06, 0.005, 0.001, 0.98, 0.9);
        for _ in 0..5 {
            det.detect_and_update(&inlier());
        }
        let json = serde_json::to_string(&det).unwrap();
        let derived = DerivedImage {
            hist: det.hist.clone(),
            reference: det.reference.clone(),
            score_min: det.score_min,
            score_max: det.score_max,
            temperature: det.temperature,
            tau_u: det.tau_u,
            tau_l: det.tau_l,
            n_updates: det.n_updates,
        };
        assert_eq!(json, serde_json::to_string(&derived).unwrap());
        let keys: Vec<String> =
            det.serialize().as_object().unwrap().iter().map(|(k, _)| k.clone()).collect();
        let want = [
            "hist",
            "reference",
            "score_min",
            "score_max",
            "temperature",
            "tau_u",
            "tau_l",
            "n_updates",
        ];
        assert_eq!(keys, want);

        // Round-trip: same bytes, same scores, and the same state after
        // the same further updates.
        let mut back: EnhancedDetector = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        for s in [inlier(), outlier(), [0.8, 0.8, 0.5, 0.5]] {
            assert_eq!(back.detect(&s), det.detect(&s));
        }
        for _ in 0..3 {
            back.detect_and_update(&inlier());
            det.detect_and_update(&inlier());
        }
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&det).unwrap());
    }

    #[test]
    fn mis_shaped_image_is_refused() {
        let det = EnhancedDetector::fit(&train_cluster(), 10, 0.06, 0.005, 0.001);
        let json = serde_json::to_string(&det).unwrap();
        // One reference component too many, and histograms whose bin
        // count disagrees with their counts.
        for bad in [
            json.replacen("\"reference\":[[", "\"reference\":[[0.5,", 1),
            json.replacen("\"bins\":10", "\"bins\":11", 1),
        ] {
            assert_ne!(bad, json);
            let err = serde_json::from_str::<EnhancedDetector>(&bad).unwrap_err();
            assert!(format!("{err:?}").contains("shape"), "{err:?}");
        }
    }
}
