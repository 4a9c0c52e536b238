//! Classification metrics.

use crate::Tensor;

/// Index of the maximum logit; the last one among tied maxima (0 when
/// empty). Every evaluator and server picks its prediction here, so
/// accuracy figures and served predictions break ties alike.
pub fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

/// Index of the maximum logit per row of a `[N, classes]` tensor.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    (0..n).map(|s| argmax(&logits.data()[s * c..(s + 1) * c])).collect()
}

/// Fraction of rows whose argmax equals the target label.
///
/// # Panics
///
/// Panics if `targets.len()` differs from the batch size.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f64 {
    let preds = argmax_rows(logits);
    assert_eq!(preds.len(), targets.len(), "one target per sample");
    if targets.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(targets.iter()).filter(|(p, t)| p == t).count();
    correct as f64 / targets.len() as f64
}

/// Running accuracy accumulator, convenient for batched evaluation.
#[derive(Debug, Default, Clone, Copy)]
pub struct AccuracyMeter {
    correct: usize,
    total: usize,
}

impl AccuracyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates a batch of logits and targets.
    pub fn update(&mut self, logits: &Tensor, targets: &[usize]) {
        let preds = argmax_rows(logits);
        self.correct += preds.iter().zip(targets.iter()).filter(|(p, t)| p == t).count();
        self.total += targets.len();
    }

    /// Accuracy so far (0.0 when empty).
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Number of accumulated samples.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Folds another meter's counts into this one. Counts are integers, so
    /// merging partial meters gives exactly the same accuracy as one meter
    /// fed every batch — regardless of how the batches were split.
    pub fn merge(&mut self, other: &AccuracyMeter) {
        self.correct += other.correct;
        self.total += other.total;
    }
}

/// A confusion matrix over `classes` labels.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` labels.
    pub fn new(classes: usize) -> Self {
        Self { classes, counts: vec![0; classes * classes] }
    }

    /// Accumulates predictions against targets.
    ///
    /// # Panics
    ///
    /// Panics if a label is out of range or lengths differ.
    pub fn update(&mut self, logits: &Tensor, targets: &[usize]) {
        let preds = argmax_rows(logits);
        assert_eq!(preds.len(), targets.len(), "one target per sample");
        for (&p, &t) in preds.iter().zip(targets) {
            assert!(p < self.classes && t < self.classes, "label out of range");
            self.counts[t * self.classes + p] += 1;
        }
    }

    /// Count of samples with true class `t` predicted as `p`.
    pub fn count(&self, t: usize, p: usize) -> usize {
        self.counts[t * self.classes + p]
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.classes).map(|c| self.count(c, c)).sum();
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Recall of class `c` (0.0 when the class never occurs).
    pub fn recall(&self, c: usize) -> f64 {
        let row: usize = (0..self.classes).map(|p| self.count(c, p)).sum();
        if row == 0 {
            0.0
        } else {
            self.count(c, c) as f64 / row as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_counts_and_recall() {
        let mut cm = ConfusionMatrix::new(2);
        // two class-0 samples: one right, one wrong; one class-1: right
        let logits = Tensor::from_vec(&[3, 2], vec![1.0, 0.0, 0.0, 1.0, 0.0, 1.0]);
        cm.update(&logits, &[0, 0, 1]);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 1), 1);
        assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall(0) - 0.5).abs() < 1e-12);
        assert!((cm.recall(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_zero() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.recall(1), 0.0);
    }

    #[test]
    fn argmax_picks_largest() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn argmax_breaks_ties_toward_the_last_maximum() {
        assert_eq!(argmax(&[0.5, 1.0, 1.0, 0.25]), 2);
        let t = Tensor::from_vec(&[1, 4], vec![0.5, 1.0, 1.0, 0.25]);
        assert_eq!(argmax_rows(&t), vec![2]);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn accuracy_counts_matches() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert!((accuracy(&t, &[0, 1]) - 1.0).abs() < 1e-12);
        assert!((accuracy(&t, &[1, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn meter_accumulates_across_batches() {
        let mut m = AccuracyMeter::new();
        let a = Tensor::from_vec(&[1, 2], vec![1.0, 0.0]);
        let b = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
        m.update(&a, &[0]);
        m.update(&b, &[0]);
        assert_eq!(m.total(), 2);
        assert!((m.value() - 0.5).abs() < 1e-12);
    }
}
