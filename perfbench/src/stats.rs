//! Order statistics the benchmark reports, and the seeded generator
//! its inputs come from.

/// A timing percentile is reported only when the sample has at least
/// this many values beyond it, so one outlier cannot set it.
pub const BEYOND: usize = 10;

/// The smallest sample for which percentile `q` (in `(0, 1)`) has
/// [`BEYOND`] values above it.
pub fn min_samples(q: f64) -> usize {
    // n - ceil(q n) >= BEYOND, searched upward from the bound n >= BEYOND / (1 - q).
    let mut n = (BEYOND as f64 / (1.0 - q)).floor() as usize;
    while n - nearest_rank(q, n) < BEYOND {
        n += 1;
    }
    n
}

/// 1-based nearest rank of percentile `q` in a sample of `n`.
fn nearest_rank(q: f64, n: usize) -> usize {
    // The epsilon keeps `0.95 * 200` at rank 190 despite rounding.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` of `values`, or `None` when fewer than
/// [`BEYOND`] values lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n < min_samples(q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(q, n) - 1])
}

/// Median (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// SplitMix64: a tiny, seedable generator. The same seed gives the same
/// sequence on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{geomean, median, min_samples, percentile, Rng};

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.99), 1000);
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            percentile(&values, 0.95),
            None,
            "199 samples leave 9 beyond p95"
        );
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&values, 0.95).expect("200 samples support p95");
        assert_eq!(p95, 190.0);
        assert_eq!(values.iter().filter(|v| **v > p95).count(), 10);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values[..999], 0.99), None);
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
