//! # fastapprox — approximate transcendental functions
//!
//! A Rust port of Paul Mineiro's *FastApprox* library (2011), the
//! approximate math library the CHEF-FP paper substitutes for the standard
//! C math library in its Black-Scholes case study (paper §IV-5, Table IV).
//!
//! The functions come in two accuracy grades, following the original:
//!
//! * **`fast*`** — a bit-twiddling decomposition plus a small rational
//!   correction; relative error around `1e-5`..`1e-4`.
//! * **`faster*`** — the raw bit-twiddling trick only; relative error
//!   around `1e-2`. These are the "Fast exp" configurations of Table IV
//!   that trade much more accuracy for speed.
//!
//! All functions operate on `f32` like the C originals; `f64`-in/out
//! wrappers live in the [`wide`] module. The KernelC VM, which stores
//! all floats as `f64`, evaluates its `fast*` intrinsics through them.
//! The approximation-error model of `chef-core` (paper Algorithm 2)
//! emits `f(x) − f̃(x)` as KernelC source, with `f̃` one of those
//! intrinsics.

pub mod erf;
pub mod exp;
pub mod hyperbolic;
pub mod log;
pub mod pow;
pub mod sqrt;
pub mod wide;

pub use erf::{fasterf, fasterfc, fastnormcdf};
pub use exp::{fasterexp, fasterpow2, fastexp, fastpow2};
pub use hyperbolic::{fastsigmoid, fasttanh};
pub use log::{fasterlog, fasterlog2, fastlog, fastlog2};
pub use pow::fastpow;
pub use sqrt::{fasterrsqrt, fastsqrt};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_reexports_work() {
        assert!((fastexp(1.0) - std::f32::consts::E).abs() < 1e-3);
        assert!((fastlog(std::f32::consts::E) - 1.0).abs() < 1e-3);
        assert!((fastsqrt(4.0) - 2.0).abs() < 1e-2);
    }
}
