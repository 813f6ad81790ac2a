//! Evaluation of KernelC math intrinsics.
//!
//! The VM evaluates every intrinsic in `f64`. The paper's FastApprox
//! substitution study (§IV-5) is written in the source: a kernel calls
//! `fastexp`, `fasterexp`, `fastlog`, `fastsqrt` or `fastnormcdf`, and
//! those intrinsics evaluate the `fastapprox` functions.

use chef_ir::ast::Intrinsic;

/// Evaluates a unary intrinsic in `f64`.
#[inline]
pub fn eval1(i: Intrinsic, a: f64) -> f64 {
    match i {
        Intrinsic::Sin => a.sin(),
        Intrinsic::Cos => a.cos(),
        Intrinsic::Tan => a.tan(),
        Intrinsic::Exp => a.exp(),
        Intrinsic::Log => a.ln(),
        Intrinsic::Exp2 => a.exp2(),
        Intrinsic::Log2 => a.log2(),
        Intrinsic::Sqrt => a.sqrt(),
        Intrinsic::Fabs => a.abs(),
        Intrinsic::Floor => a.floor(),
        Intrinsic::Ceil => a.ceil(),
        Intrinsic::Erf => fastapprox::erf::erf64(a),
        Intrinsic::Erfc => fastapprox::erf::erfc64(a),
        Intrinsic::NormCdf => fastapprox::erf::normcdf64(a),
        Intrinsic::Tanh => a.tanh(),
        Intrinsic::Sinh => a.sinh(),
        Intrinsic::Cosh => a.cosh(),
        Intrinsic::Atan => a.atan(),
        // The FastApprox family *is* the approximate semantics — these are
        // exact evaluations of the approximate functions.
        Intrinsic::FastExp => fastapprox::wide::fastexp64(a),
        Intrinsic::FasterExp => fastapprox::wide::fasterexp64(a),
        Intrinsic::FastLog => fastapprox::wide::fastlog64(a),
        Intrinsic::FastSqrt => fastapprox::wide::fastsqrt64(a),
        Intrinsic::FastNormCdf => fastapprox::wide::fastnormcdf64(a),
        Intrinsic::Pow | Intrinsic::Fmin | Intrinsic::Fmax => {
            panic!("{} is binary", i.name())
        }
    }
}

/// Evaluates a binary intrinsic in `f64`.
#[inline]
pub fn eval2(i: Intrinsic, a: f64, b: f64) -> f64 {
    match i {
        Intrinsic::Pow => a.powf(b),
        Intrinsic::Fmin => a.min(b),
        Intrinsic::Fmax => a.max(b),
        other => panic!("{} is unary", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_std() {
        assert_eq!(eval1(Intrinsic::Sin, 1.2), 1.2f64.sin());
        assert_eq!(eval1(Intrinsic::Sqrt, 2.0), 2.0f64.sqrt());
        assert_eq!(eval2(Intrinsic::Pow, 2.0, 10.0), 1024.0);
        assert_eq!(eval2(Intrinsic::Fmin, 1.0, -1.0), -1.0);
    }

    #[test]
    fn normcdf_exact_sane() {
        assert!((eval1(Intrinsic::NormCdf, 0.0) - 0.5).abs() < 1e-12);
    }
}
