//! Order statistics over repeated measurements.

/// Minimum, quartiles and median of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `values` (any order; must be non-empty and finite).
    ///
    /// The median is the usual middle value (mean of the two middle values
    /// for an even count). The quartiles use the "exclusive" method of
    /// Python's `statistics.quantiles(values, n=4)`, so spreads computed
    /// here match ones computed from the printed values with Python.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Summary {
                n,
                min: v[0],
                q1: v[0],
                median,
                q3: v[0],
            };
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: quartile(1),
            median,
            q3: quartile(3),
        }
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0 and the sample is constant).
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 1.5, 3.0, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let s = Summary::of(&[0.0, 0.0, 0.0]);
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::of(&[2.0; 4]).spread(), 0.0);
    }
}
