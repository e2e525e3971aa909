//! Sample statistics: the median and quartiles the benchmark reports.

/// Median and quartiles of a sample, by the same "exclusive" method as
/// Python's `statistics.quantiles(values, n=4)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (`None` when empty). NaN values are not expected.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let len = data.len();
        match len {
            0 => None,
            1 => Some(Summary {
                q1: data[0],
                median: data[0],
                q3: data[0],
                n: 1,
            }),
            _ => {
                let [q1, median, q3] = [1, 2, 3].map(|i| exclusive_quartile(&data, i));
                Some(Summary {
                    q1,
                    median,
                    q3,
                    n: len,
                })
            }
        }
    }

    /// The interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Quartile `i` (1..=3) of sorted `data` (`len >= 2`), exclusive method.
fn exclusive_quartile(data: &[f64], i: usize) -> f64 {
    let len = data.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
}

/// The median of `values`, or 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile `p` (0–100) of sorted `data` (non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&data).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 90.0), 90.0);
        assert_eq!(percentile(&data, 99.0), 99.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
