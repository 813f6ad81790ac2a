//! `f64`-in/out wrappers over the `f32` approximations.
//!
//! The KernelC VM stores every float as `f64` and simulates narrower
//! precisions by rounding on assignment, so each of its approximate
//! intrinsics (`fastexp`, `fasterexp`, `fastlog`, `fastsqrt`,
//! `fastnormcdf`) evaluates one of these `fn(f64) -> f64` wrappers,
//! and so do the native FastApprox prices of the Black-Scholes study.
//! Each wrapper narrows the
//! argument to `f32` (exactly what calling the C library from a double
//! context does), applies the `f32` approximation and widens the result.

use crate::{exp::fasterexp, fastexp, fastlog, fastnormcdf, fastsqrt};

/// `fastexp` on doubles.
pub fn fastexp64(x: f64) -> f64 {
    fastexp(x as f32) as f64
}

/// `fasterexp` on doubles (the Table IV "Fast exp" configuration).
pub fn fasterexp64(x: f64) -> f64 {
    fasterexp(x as f32) as f64
}

/// `fastlog` on doubles.
pub fn fastlog64(x: f64) -> f64 {
    fastlog(x as f32) as f64
}

/// `fastsqrt` on doubles.
pub fn fastsqrt64(x: f64) -> f64 {
    fastsqrt(x as f32) as f64
}

/// `fastnormcdf` on doubles.
pub fn fastnormcdf64(x: f64) -> f64 {
    fastnormcdf(x as f32) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_agree_with_f32_versions() {
        assert_eq!(fastexp64(1.25), fastexp(1.25) as f64);
        assert_eq!(fastlog64(7.5), fastlog(7.5) as f64);
        assert_eq!(fastsqrt64(3.0), fastsqrt(3.0) as f64);
        assert_eq!(fasterexp64(1.25), fasterexp(1.25) as f64);
        assert_eq!(fastnormcdf64(0.5), fastnormcdf(0.5) as f64);
    }

    #[test]
    fn wrappers_are_close_to_std() {
        assert!((fastexp64(2.0) - 2.0f64.exp()).abs() / 2.0f64.exp() < 1e-3);
        assert!((fastlog64(10.0) - 10.0f64.ln()).abs() < 1e-3);
        assert!((fastnormcdf64(0.5) - crate::erf::normcdf64(0.5)).abs() < 2e-2);
    }
}
