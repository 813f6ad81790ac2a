//! Symbolic derivative rules for KernelC intrinsics.
//!
//! Given the argument expressions of an intrinsic call, these builders
//! produce the KernelC expression for the partial derivative with respect
//! to each argument. They are shared by the reverse transformation (which
//! multiplies them into seeds) and the forward transformation (which
//! multiplies them into tangents).
//!
//! Non-differentiable points follow the almost-everywhere convention used
//! by AD tools: `fabs' = sign` (0 chosen at 0 via the `x >= 0` branch),
//! `floor' = ceil' = 0`, and `fmin`/`fmax` differentiate into the selected
//! branch (handled with an `if` in the caller, see
//! [`min_max_select`]).

use chef_ir::ast::{BinOp, Expr, Intrinsic};
use chef_ir::types::{FloatTy, Type};

/// `2/sqrt(pi)`, the prefactor of `erf'`.
const TWO_OVER_SQRT_PI: f64 = 1.128_379_167_095_512_6;
/// `1/sqrt(2*pi)`, the standard normal density prefactor.
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// `ln 2`.
const LN_2: f64 = std::f64::consts::LN_2;

fn f64ty() -> Type {
    Type::Float(FloatTy::F64)
}

/// Derivative of a unary intrinsic at `a` (an expression that reads the
/// argument value in the current program state).
///
/// Returns `None` for intrinsics with zero derivative almost everywhere
/// (`floor`, `ceil`) so callers can skip the adjoint update entirely.
pub fn unary_derivative(i: Intrinsic, a: &Expr) -> Option<Expr> {
    let a = || {
        let mut e = a.clone();
        // Derivative arithmetic happens in f64 regardless of the primal's
        // storage precision; adjoints are full precision.
        e.ty = Some(f64ty());
        e
    };
    Some(match i {
        Intrinsic::Sin => Expr::call(Intrinsic::Cos, vec![a()]),
        Intrinsic::Cos => Expr::neg(Expr::call(Intrinsic::Sin, vec![a()])),
        Intrinsic::Tan => {
            // 1 / cos(a)^2
            let c = Expr::call(Intrinsic::Cos, vec![a()]);
            Expr::div(Expr::flit(1.0), Expr::mul(c.clone(), c))
        }
        Intrinsic::Exp => Expr::call(Intrinsic::Exp, vec![a()]),
        Intrinsic::Log => Expr::div(Expr::flit(1.0), a()),
        Intrinsic::Exp2 => Expr::mul(Expr::call(Intrinsic::Exp2, vec![a()]), Expr::flit(LN_2)),
        Intrinsic::Log2 => Expr::div(Expr::flit(1.0), Expr::mul(a(), Expr::flit(LN_2))),
        Intrinsic::Sqrt => Expr::div(Expr::flit(0.5), Expr::call(Intrinsic::Sqrt, vec![a()])),
        Intrinsic::Erf => {
            // 2/sqrt(pi) * exp(-a^2)
            let sq = Expr::mul(a(), a());
            Expr::mul(
                Expr::flit(TWO_OVER_SQRT_PI),
                Expr::call(Intrinsic::Exp, vec![Expr::neg(sq)]),
            )
        }
        Intrinsic::Erfc => {
            let sq = Expr::mul(a(), a());
            Expr::neg(Expr::mul(
                Expr::flit(TWO_OVER_SQRT_PI),
                Expr::call(Intrinsic::Exp, vec![Expr::neg(sq)]),
            ))
        }
        Intrinsic::NormCdf => {
            // φ(a) = exp(-a²/2)/√(2π)
            let half_sq = Expr::mul(Expr::flit(0.5), Expr::mul(a(), a()));
            Expr::mul(
                Expr::flit(INV_SQRT_2PI),
                Expr::call(Intrinsic::Exp, vec![Expr::neg(half_sq)]),
            )
        }
        Intrinsic::Tanh => {
            // 1 - tanh(a)^2
            let t = Expr::call(Intrinsic::Tanh, vec![a()]);
            Expr::sub(Expr::flit(1.0), Expr::mul(t.clone(), t))
        }
        Intrinsic::Sinh => Expr::call(Intrinsic::Cosh, vec![a()]),
        Intrinsic::Cosh => Expr::call(Intrinsic::Sinh, vec![a()]),
        Intrinsic::Atan => {
            // 1 / (1 + a^2)
            Expr::div(
                Expr::flit(1.0),
                Expr::add(Expr::flit(1.0), Expr::mul(a(), a())),
            )
        }
        Intrinsic::Fabs => {
            // sign(a): handled by callers as a branch would be cleaner,
            // but an expression form keeps single-statement updates:
            // a >= 0 ? 1 : -1 has no ternary in KernelC, so we use
            // the smooth-free trick  fabs(a)/a  is invalid at 0; instead
            // callers should use `fabs_sign` below. For the generic path
            // we return `a / fabs(a)` guarded by callers for a != 0 being
            // almost-everywhere.
            Expr::div(a(), Expr::call(Intrinsic::Fabs, vec![a()]))
        }
        Intrinsic::Floor | Intrinsic::Ceil => return None,
        // FastApprox functions differentiate through their exact
        // counterparts (the approximation error is treated as a
        // perturbation, not as part of the derivative — same convention
        // ADAPT uses for approximate library calls).
        Intrinsic::FastExp | Intrinsic::FasterExp => Expr::call(Intrinsic::Exp, vec![a()]),
        Intrinsic::FastLog => Expr::div(Expr::flit(1.0), a()),
        Intrinsic::FastSqrt => Expr::div(Expr::flit(0.5), Expr::call(Intrinsic::Sqrt, vec![a()])),
        Intrinsic::FastNormCdf => {
            let half_sq = Expr::mul(Expr::flit(0.5), Expr::mul(a(), a()));
            Expr::mul(
                Expr::flit(INV_SQRT_2PI),
                Expr::call(Intrinsic::Exp, vec![Expr::neg(half_sq)]),
            )
        }
        Intrinsic::Pow | Intrinsic::Fmin | Intrinsic::Fmax => {
            panic!("{} is binary; use binary_derivatives", i.name())
        }
    })
}

/// Partial derivatives `(∂/∂a, ∂/∂b)` of `pow(a, b)`:
/// `(b·a^(b−1), a^b·ln a)`.
pub fn pow_derivatives(a: &Expr, b: &Expr) -> (Expr, Expr) {
    let mut af = a.clone();
    af.ty = Some(f64ty());
    let mut bf = b.clone();
    bf.ty = Some(f64ty());
    let da = Expr::mul(
        bf.clone(),
        Expr::call(
            Intrinsic::Pow,
            vec![af.clone(), Expr::sub(bf.clone(), Expr::flit(1.0))],
        ),
    );
    let db = Expr::mul(
        Expr::call(Intrinsic::Pow, vec![af.clone(), bf]),
        Expr::call(Intrinsic::Log, vec![af]),
    );
    (da, db)
}

/// The select condition for `fmin`/`fmax` reverse flow: returns the
/// boolean expression that is `true` when the *first* argument is the one
/// selected (ties go to the first argument, matching
/// `f64::min`/`f64::max` adjoint conventions closely enough a.e.).
pub fn min_max_select(i: Intrinsic, a: &Expr, b: &Expr) -> Expr {
    let op = match i {
        Intrinsic::Fmin => BinOp::Le,
        Intrinsic::Fmax => BinOp::Ge,
        other => panic!("{} is not fmin/fmax", other.name()),
    };
    Expr::binary(op, a.clone(), b.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_ir::ast::VarId;
    use chef_ir::printer::print_expr;

    fn x() -> Expr {
        Expr::var("x", VarId(0), f64ty())
    }

    #[test]
    fn simple_rules_print_correctly() {
        assert_eq!(
            print_expr(&unary_derivative(Intrinsic::Sin, &x()).unwrap()),
            "cos(x)"
        );
        assert_eq!(
            print_expr(&unary_derivative(Intrinsic::Exp, &x()).unwrap()),
            "exp(x)"
        );
        assert_eq!(
            print_expr(&unary_derivative(Intrinsic::Log, &x()).unwrap()),
            "1.0 / x"
        );
        assert_eq!(
            print_expr(&unary_derivative(Intrinsic::Sqrt, &x()).unwrap()),
            "0.5 / sqrt(x)"
        );
    }

    #[test]
    fn floor_ceil_have_zero_derivative() {
        assert!(unary_derivative(Intrinsic::Floor, &x()).is_none());
        assert!(unary_derivative(Intrinsic::Ceil, &x()).is_none());
    }

    #[test]
    fn pow_rule() {
        let (da, db) = pow_derivatives(&x(), &Expr::flit(3.0));
        assert_eq!(print_expr(&da), "3.0 * pow(x, 3.0 - 1.0)");
        assert_eq!(print_expr(&db), "pow(x, 3.0) * log(x)");
    }

    #[test]
    fn minmax_select_conditions() {
        let s = min_max_select(Intrinsic::Fmin, &x(), &Expr::flit(2.0));
        assert_eq!(print_expr(&s), "x <= 2.0");
        let s = min_max_select(Intrinsic::Fmax, &x(), &Expr::flit(2.0));
        assert_eq!(print_expr(&s), "x >= 2.0");
    }

    #[test]
    fn every_unary_intrinsic_has_a_rule_or_zero() {
        for i in Intrinsic::ALL {
            if i.arity() == 1 {
                // Must not panic.
                let _ = unary_derivative(i, &x());
            }
        }
    }
}
