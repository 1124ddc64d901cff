//! Number formatting shared by the paper experiment's tables.

/// Format a milliseconds value with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a ratio like `6.3x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.1}x")
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(ms(123.456), "123.5");
        assert_eq!(ms(12.345), "12.35");
        assert_eq!(ratio(6.31), "6.3x");
        assert_eq!(pct(0.805), "80.5%");
    }
}
