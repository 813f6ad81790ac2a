//! # chef-bench — timing and formatting helpers for the `repro` binary.
//!
//! `repro` regenerates the paper's tables and figures and runs the
//! functional smoke gates (`repro --smoke`). Performance is measured by
//! `perfbench/`, the repository's one timing harness, not here.

use std::time::Instant;

/// Times one invocation of `f` in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Times `f` by the median of `reps` runs (after one warmup), returning
/// `(last result, median ms)`.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut samples = Vec::with_capacity(reps);
    let mut out = None;
    let _ = f(); // warmup
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    (out.expect("reps >= 1"), samples[samples.len() / 2])
}

/// Pretty scientific formatting matching the paper's tables: two mantissa
/// decimals, explicit exponent sign, zero-padded two-digit exponent
/// (`3.24e-06`, `1.50e+05`). Rust's `{:.2e}` prints `3.24e-6`, so the
/// exponent is re-rendered here.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0.00e+00".to_string();
    }
    let raw = format!("{v:.2e}");
    match raw.split_once('e') {
        Some((mantissa, exp)) => {
            let exp: i32 = exp.parse().expect("{:.2e} produces a valid exponent");
            format!(
                "{mantissa}e{}{:02}",
                if exp < 0 { '-' } else { '+' },
                exp.abs()
            )
        }
        None => raw,
    }
}

/// Formats bytes as a human-readable MB value.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Relative deviation of an estimate from a measurement, as a percentage
/// in the same zero-padded exponent style as [`sci`] (`|est − meas| /
/// |meas| · 100`, e.g. `1.00e+01%`). A zero measurement against a
/// non-zero estimate prints `inf%` (the deviation is unbounded, not an
/// astronomically scaled number). Used by the estimated-vs-measured
/// columns of `repro --oracle`.
pub fn rel_dev_pct(estimated: f64, measured: f64) -> String {
    if measured == 0.0 {
        return if estimated == 0.0 {
            format!("{}%", sci(0.0))
        } else {
            "inf%".to_string()
        };
    }
    let dev = (estimated - measured).abs() / measured.abs() * 100.0;
    format!("{}%", sci(dev))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_returns_result() {
        let (v, ms) = time_ms(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn median_timing_runs_all_reps() {
        let mut count = 0;
        let (_, _) = time_median(5, || count += 1);
        assert_eq!(count, 6); // warmup + 5
    }

    #[test]
    fn formatting() {
        // Paper style: zero-padded two-digit exponent with explicit sign.
        assert_eq!(sci(3.24e-6), "3.24e-06");
        assert_eq!(sci(1.5e5), "1.50e+05");
        assert_eq!(sci(-2.5e-3), "-2.50e-03");
        assert_eq!(sci(7.0), "7.00e+00");
        assert_eq!(sci(1.234e-123), "1.23e-123");
        assert_eq!(sci(0.0), "0.00e+00");
        assert_eq!(mb(1024 * 1024), "1.00");
    }

    #[test]
    fn relative_deviation_keeps_the_pinned_exponent_style() {
        // 1.1e-6 estimated vs 1.0e-6 measured: 10% deviation.
        assert_eq!(rel_dev_pct(1.1e-6, 1.0e-6), "1.00e+01%");
        // Estimate an order of magnitude high: 900%.
        assert_eq!(rel_dev_pct(1e-5, 1e-6), "9.00e+02%");
        // Exact agreement (including the both-zero case) is 0%.
        assert_eq!(rel_dev_pct(3.0e-7, 3.0e-7), "0.00e+00%");
        assert_eq!(rel_dev_pct(0.0, 0.0), "0.00e+00%");
        // A zero measurement against a non-zero estimate is unbounded.
        assert_eq!(rel_dev_pct(1e-11, 0.0), "inf%");
        // The exponent stays zero-padded and sign-explicit like `sci`.
        assert_eq!(rel_dev_pct(2.0e-6, 1.0e-6), "1.00e+02%");
    }
}
