//! Property tests: accuracy envelopes of the FastApprox ports hold across
//! their whole documented domains (not just the unit tests' spot checks).

use fastapprox::*;
use proptest::prelude::*;

fn rel_err(approx: f32, exact: f64) -> f64 {
    if exact == 0.0 {
        approx.abs() as f64
    } else {
        ((approx as f64 - exact) / exact).abs()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fastlog2_envelope(x in 1e-30f32..1e30) {
        prop_assert!(rel_err(fastlog2(x), (x as f64).log2()).min(
            (fastlog2(x) as f64 - (x as f64).log2()).abs()) < 3e-4);
    }

    #[test]
    fn fastpow2_envelope(p in -80f32..80.0) {
        prop_assert!(rel_err(fastpow2(p), (p as f64).exp2()) < 4e-4, "p={p}");
    }

    #[test]
    fn fastexp_envelope(p in -60f32..60.0) {
        prop_assert!(rel_err(fastexp(p), (p as f64).exp()) < 4e-4, "p={p}");
    }

    #[test]
    fn fasterexp_envelope(p in -40f32..40.0) {
        // The coarse grade stays within a few percent.
        prop_assert!(rel_err(fasterexp(p), (p as f64).exp()) < 6e-2, "p={p}");
    }

    #[test]
    fn fastsqrt_envelope(x in 1e-20f32..1e20) {
        prop_assert!(rel_err(fastsqrt(x), (x as f64).sqrt()) < 2e-3, "x={x}");
    }

    #[test]
    fn fastpow_envelope(x in 0.01f32..100.0, p in -4f32..4.0) {
        prop_assert!(rel_err(fastpow(x, p), (x as f64).powf(p as f64)) < 5e-3,
            "x={x} p={p}");
    }

    #[test]
    fn exp_log_inverse(x in 0.01f32..1e4) {
        let rt = fastexp(fastlog(x));
        prop_assert!(rel_err(rt, x as f64) < 2e-3, "x={x} rt={rt}");
    }

    #[test]
    fn exp_is_positive_and_monotone(a in -50f32..50.0, b in -50f32..50.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(fastexp(lo) > 0.0);
        // Allow equality: nearby inputs may round to the same bit pattern.
        prop_assert!(fastexp(lo) <= fastexp(hi) * (1.0 + 1e-3), "{lo} {hi}");
    }

    #[test]
    fn normcdf_envelope(x in -6f32..6.0) {
        let exact = erf::normcdf64(x as f64);
        prop_assert!((fastnormcdf(x) as f64 - exact).abs() < 2.5e-2, "x={x}");
        prop_assert!((0.0..=1.0).contains(&fastnormcdf(x)));
    }

    #[test]
    fn erf64_is_odd_and_bounded(x in -5f64..5.0) {
        prop_assert!((erf::erf64(x) + erf::erf64(-x)).abs() < 1e-12);
        prop_assert!(erf::erf64(x).abs() <= 1.0);
    }

    #[test]
    fn erfc64_complement(x in -5f64..5.0) {
        prop_assert!((erf::erf64(x) + erf::erfc64(x) - 1.0).abs() < 1e-11, "x={x}");
    }
}
