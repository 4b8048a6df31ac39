//! The benchmark's own reference computations. Every check of the served
//! outputs compares against these, computed apart from the program from
//! rows fetched over the wire.

use std::cmp::Ordering;

/// Cosine similarity in f64 over f32 rows, in the same summation order as
/// the serve plane's `cosine` operator, so equal rows give equal bits.
pub fn cosine(x: &[f32], y: &[f32]) -> f64 {
    let dot: f64 = x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64).sum();
    let nx: f64 = x.iter().map(|&a| (a as f64).powi(2)).sum::<f64>().sqrt();
    let ny: f64 = y.iter().map(|&b| (b as f64).powi(2)).sum::<f64>().sqrt();
    dot / (nx * ny).max(1e-12)
}

/// Best-first order: score descending, ties broken by ascending id.
fn better(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Brute-force cosine top-`k` of row `q` over every other row, best first,
/// ties broken by ascending id.
pub fn brute_topk(rows: &[Vec<f32>], q: u32, k: usize) -> Vec<(u32, f64)> {
    let qrow = &rows[q as usize];
    let mut scored: Vec<(u32, f64)> = (0..rows.len() as u32)
        .filter(|&v| v != q)
        .map(|v| (v, cosine(qrow, &rows[v as usize])))
        .collect();
    scored.sort_by(better);
    scored.truncate(k);
    scored
}

/// Whether `got` is a correct top-k list given the reference `want`:
/// same length, scores equal position by position within `tol`, and every
/// id whose reference score clears the k-th score by more than `tol` is
/// present. Ids may differ only among candidates tied within `tol` at the
/// cut-off.
pub fn same_up_to_ties(got: &[(u32, f64)], want: &[(u32, f64)], tol: f64) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if got.iter().zip(want).any(|(g, w)| (g.1 - w.1).abs() > tol) {
        return false;
    }
    let Some(&(_, cut)) = want.last() else { return true };
    want.iter().filter(|w| w.1 > cut + tol).all(|w| got.iter().any(|g| g.0 == w.0))
}

/// Share of `truth`'s ids that `got` also returned (recall@|truth|).
pub fn recall(got: &[(u32, f64)], truth: &[(u32, f64)]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hit = truth.iter().filter(|t| got.iter().any(|g| g.0 == t.0)).count();
    hit as f64 / truth.len() as f64
}

/// Area under the ROC curve: the probability that a positive outscores a
/// negative, a tie counting one half (Mann–Whitney U over the pairs).
pub fn auc(pos: &[f64], neg: &[f64]) -> f64 {
    assert!(!pos.is_empty() && !neg.is_empty(), "AUC needs both classes");
    let mut neg = neg.to_vec();
    neg.sort_by(f64::total_cmp);
    let mut wins = 0f64;
    for &p in pos {
        let below = neg.partition_point(|&n| n < p);
        let not_above = neg.partition_point(|&n| n <= p);
        wins += below as f64 + 0.5 * (not_above - below) as f64;
    }
    wins / (pos.len() as f64 * neg.len() as f64)
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// The fewest samples for which the `p`-th percentile has at least
/// `beyond` samples past it.
pub fn min_samples(p: f64, beyond: usize) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= beyond).expect("some n suffices")
}

/// The `p`-th percentile of time-ordered `samples`, taken per window of
/// consecutive samples and reported as the median over windows. Each
/// window holds at least [`min_samples`]`(p, beyond)` samples, so its
/// percentile has `beyond` samples past it; with fewer samples than two
/// windows need, this is the plain percentile of all of them. A slow
/// stretch of the host moves only the windows it covers.
pub fn windowed_percentile(samples: &[f64], p: f64, beyond: usize) -> f64 {
    let windows = (samples.len() / min_samples(p, beyond)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|i| {
            let chunk = &samples[i * samples.len() / windows..(i + 1) * samples.len() / windows];
            let mut sorted = chunk.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p)
        })
        .collect();
    median(&per_window)
}

/// Median of unsorted samples (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// FNV-1a over the little-endian bits of every value, row by row: equal
/// digests mean bit-identical embeddings.
pub fn digest<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for x in row {
            for b in x.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_hand_checked_rows() {
        assert_eq!(cosine(&[1.0, 0.0], &[0.0, 2.0]), 0.0);
        assert!((cosine(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-15);
        assert!((cosine(&[3.0, 4.0], &[4.0, 3.0]) - 24.0 / 25.0).abs() < 1e-15);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0, "zero row scores 0, not NaN");
    }

    #[test]
    fn brute_topk_breaks_ties_by_id() {
        // Rows 1, 2 and 4 point the same way as row 0 (cosine 1); row 3
        // is orthogonal. Ties order by ascending id.
        let rows =
            vec![vec![1.0, 0.0], vec![2.0, 0.0], vec![5.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.0]];
        let top = brute_topk(&rows, 0, 3);
        assert_eq!(top.iter().map(|t| t.0).collect::<Vec<_>>(), vec![1, 2, 4]);
        assert!(top.iter().all(|t| (t.1 - 1.0).abs() < 1e-15));
        let top = brute_topk(&rows, 3, 4);
        assert_eq!(top.iter().map(|t| t.0).collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        assert!(brute_topk(&rows, 2, 10).iter().all(|t| t.0 != 2), "query excluded");
        assert_eq!(brute_topk(&rows, 2, 10).len(), 4);
    }

    #[test]
    fn tie_tolerant_comparison() {
        let want = [(1, 0.9), (2, 0.5), (3, 0.5)];
        assert!(same_up_to_ties(&want, &want, 1e-12));
        // Id 4 tied with 3 at the cut-off: allowed.
        assert!(same_up_to_ties(&[(1, 0.9), (2, 0.5), (4, 0.5)], &want, 1e-12));
        // Id 1 clears the cut-off: it must be present.
        assert!(!same_up_to_ties(&[(5, 0.9), (2, 0.5), (3, 0.5)], &want, 1e-12));
        // A score off by more than the tolerance fails.
        assert!(!same_up_to_ties(&[(1, 0.8), (2, 0.5), (3, 0.5)], &want, 1e-12));
        assert!(!same_up_to_ties(&want[..2], &want, 1e-12));
    }

    #[test]
    fn recall_counts_shared_ids() {
        assert_eq!(recall(&[(1, 0.0), (2, 0.0)], &[(2, 0.0), (3, 0.0)]), 0.5);
        assert_eq!(recall(&[], &[]), 1.0);
    }

    #[test]
    fn auc_counts_ties_as_half() {
        // Pairs: (0.5,0.5)=½, (0.5,0.1)=1, (0.9,0.5)=1, (0.9,0.1)=1 → 3.5/4.
        assert_eq!(auc(&[0.5, 0.9], &[0.5, 0.1]), 0.875);
        assert_eq!(auc(&[1.0], &[0.0]), 1.0);
        assert_eq!(auc(&[0.0], &[1.0]), 0.0);
        assert_eq!(auc(&[0.3, 0.3], &[0.3, 0.3, 0.3]), 0.5, "all tied");
        // p=0.2 ties 0.2 → ½; p=0.4 beats 0.2, ties 0.4 → 1½; p=0.9 beats
        // both → 2. Total 4 of 6 pairs.
        assert!((auc(&[0.2, 0.4, 0.9], &[0.2, 0.4]) - 4.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(min_samples(99.0, 10), 1000);
        assert_eq!(min_samples(50.0, 10), 20);
        assert_eq!(min_samples(90.0, 10), 100);
        // The p99 of exactly 1000 samples is the 990th, leaving ten above.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 990.0);
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 1,000: the p99 of 1..=1000 is 990 in each calm
        // window; a slow stretch lifts only the last window's p99.
        let calm: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut samples = [calm.clone(), calm.clone(), calm].concat();
        for x in &mut samples[2000..] {
            *x *= 10.0;
        }
        assert_eq!(windowed_percentile(&samples, 99.0, 10), 990.0);
        // 2,999 samples make two windows of 1,499 and 1,500, never one too
        // small for ten samples beyond its p99. The first holds 1..=1000
        // and 1..=499: its p99 (rank 1,485) is 986, and the nearest-rank
        // median of two windows is the lower one.
        assert_eq!(windowed_percentile(&samples[..2999], 99.0, 10), 986.0);
        // Below one full window it is the plain percentile.
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(windowed_percentile(&few, 99.0, 10), 495.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = [1.0f32, 2.0];
        let b = [1.0f32, f32::from_bits(2.0f32.to_bits() + 1)];
        assert_ne!(digest([&a[..]]), digest([&b[..]]));
        assert_eq!(digest([&a[..]]), digest([&a[..1], &a[1..]]));
    }
}
