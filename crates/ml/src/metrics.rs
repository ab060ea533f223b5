//! Evaluation metrics used across the paper's tables: multi-label F1-score
//! (Table 6), accuracy-at-k (Table 7), and the precision/recall/F1 triple
//! of the phase-detection evaluation (Table 4).

/// Precision, recall, F1 from raw counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prf {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl Prf {
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Prf {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Prf {
            precision,
            recall,
            f1,
        }
    }
}

/// Micro-averaged multi-label F1: `predictions` and `targets` are parallel
/// bitmaps (one `Vec<bool>` per sample).
pub fn multilabel_f1(predictions: &[Vec<bool>], targets: &[Vec<bool>]) -> Prf {
    assert_eq!(predictions.len(), targets.len());
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (p, t) in predictions.iter().zip(targets.iter()) {
        assert_eq!(p.len(), t.len());
        for (&pi, &ti) in p.iter().zip(t.iter()) {
            match (pi, ti) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    Prf::from_counts(tp, fp, fn_)
}

/// Accuracy-at-k as defined by Hashemi et al. and used in Table 7: a
/// prediction is correct if the predicted item occurs anywhere in the next
/// `k` ground-truth items. `predicted[i]` is checked against
/// `future_windows[i]` (the next-k items after sample i).
pub fn accuracy_at_k(predicted: &[u64], future_windows: &[Vec<u64>]) -> f64 {
    assert_eq!(predicted.len(), future_windows.len());
    if predicted.is_empty() {
        return 0.0;
    }
    let hits = predicted
        .iter()
        .zip(future_windows.iter())
        .filter(|(p, w)| w.contains(p))
        .count();
    hits as f64 / predicted.len() as f64
}

/// Largest `k` that [`top_k_indices`] answers by selection rather than
/// by sorting every index.
const SELECT_MAX_K: usize = 8;

/// Indices of the `k` largest values in `scores`, descending, equal
/// values by index: the first `k` of a stable descending sort. Up to 8
/// indices, with no NaN among the scores, come from one selection pass;
/// otherwise from that sort.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    if k <= SELECT_MAX_K {
        if let Some(top) = select_top_k(scores, k) {
            return top;
        }
    }
    sort_top_k(scores, k)
}

/// The first `k` of every index sorted stably by descending score. A
/// NaN compares equal to everything, which no total order does: where
/// the NaNs land is the sort's choice, and from about 20 scores on the
/// standard library's sort usually detects the violation and panics.
fn sort_top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

/// [`sort_top_k`]'s answer in one pass over `scores`, or `None` at the
/// first NaN. The kept indices stay in the sort's order: a score
/// displaces the last kept one only when strictly greater, and goes in
/// after every kept score that is at least as large, so equal scores
/// (−0.0 and +0.0 among them) keep index order.
fn select_top_k(scores: &[f32], k: usize) -> Option<Vec<usize>> {
    let mut top: Vec<usize> = Vec::with_capacity(k);
    for (i, &x) in scores.iter().enumerate() {
        if x.is_nan() {
            return None;
        }
        if top.len() == k {
            match top.last() {
                Some(&last) if x > scores[last] => {
                    top.pop();
                }
                _ => continue,
            }
        }
        let at = top.partition_point(|&j| scores[j] >= x);
        top.insert(at, i);
    }
    Some(top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_from_counts() {
        let p = Prf::from_counts(8, 2, 2);
        assert!((p.precision - 0.8).abs() < 1e-12);
        assert!((p.recall - 0.8).abs() < 1e-12);
        assert!((p.f1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn prf_handles_degenerate_cases() {
        assert_eq!(Prf::from_counts(0, 0, 0), Prf::default());
        let p = Prf::from_counts(0, 5, 0);
        assert_eq!(p.precision, 0.0);
        assert_eq!(p.f1, 0.0);
    }

    #[test]
    fn multilabel_f1_perfect_and_empty() {
        let t = vec![vec![true, false, true], vec![false, true, false]];
        let perfect = multilabel_f1(&t, &t);
        assert!((perfect.f1 - 1.0).abs() < 1e-12);
        let none = vec![vec![false; 3]; 2];
        let zero = multilabel_f1(&none, &t);
        assert_eq!(zero.f1, 0.0);
    }

    #[test]
    fn multilabel_f1_partial() {
        let pred = vec![vec![true, true, false]];
        let targ = vec![vec![true, false, true]];
        // tp=1, fp=1, fn=1 → P=R=0.5 → F1=0.5.
        let p = multilabel_f1(&pred, &targ);
        assert!((p.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_at_k_counts_window_hits() {
        let pred = vec![5, 9, 3];
        let windows = vec![vec![1, 2, 5], vec![4, 4, 4], vec![3]];
        let acc = accuracy_at_k(&pred, &windows);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_descending() {
        let scores = vec![0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 10).len(), 4);
    }

    /// Selection gives the sort's indices, in its order, at every length
    /// 0–40 and every k 0–10, over scores drawn from a few values so that
    /// ties are common: ±0.0, ±∞ and repeated finite values. A vector
    /// with a NaN (about one in four) is left to the sort, which is not
    /// called on it here: the standard library's sort may panic on a
    /// comparison that is not a total order.
    #[test]
    fn top_k_by_selection_matches_the_stable_sort() {
        const VALUES: [f32; 9] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.0,
            0.25,
            3.0e-39,
            f32::MIN_POSITIVE,
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..4000 {
            let len = case % 41;
            let mut scores: Vec<f32> = (0..len)
                .map(|_| match next() % 12 {
                    v @ 0..=8 => VALUES[v as usize],
                    _ => (next() % 1000) as f32 / 100.0 - 5.0,
                })
                .collect();
            let with_nan = len > 0 && next().is_multiple_of(4);
            if with_nan {
                let at = (next() % len as u64) as usize;
                scores[at] = f32::NAN;
            }
            for k in 0..=10 {
                if with_nan {
                    assert_eq!(select_top_k(&scores, k), None, "{scores:?} k={k}");
                    continue;
                }
                let want = sort_top_k(&scores, k);
                assert_eq!(top_k_indices(&scores, k), want, "{scores:?} k={k}");
                assert_eq!(select_top_k(&scores, k), Some(want), "{scores:?} k={k}");
            }
        }
    }
}
