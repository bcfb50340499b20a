//! The statistics helper used when aggregating per-benchmark results into the
//! geometric means the paper reports (every speedup figure is a geomean over
//! benchmarks).

/// Geometric mean of a slice of positive values.
///
/// Returns `None` for an empty slice or if any value is non-positive, mirroring
/// how the paper's geomeans are only defined over positive speedups.
///
/// ```
/// # use alecto_types::geomean;
/// assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
/// assert_eq!(geomean(&[]), None);
/// ```
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -1.0]), None);
    }
}
