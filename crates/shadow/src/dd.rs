//! Double-double ("DD") arithmetic: an unevaluated sum `hi + lo` of two
//! `f64`s carrying ~106 significand bits.
//!
//! This is the classic Dekker/Knuth error-free-transformation kit
//! (`two_sum`, `two_prod` via FMA) as used by QD/Herbgrind-style shadow
//! values. The representation is kept *normalized*: `|lo| ≤ ulp(hi)/2`,
//! so `hi` alone is the correctly rounded `f64` of the full value.
//!
//! DD is the shadow type for measuring an **f64 program's own rounding
//! error**: with `S = DD` every `f64` add/sub/mul/div in the primal
//! stream shows its ~`ulp/2` local error, which the plain `f64` shadow
//! (exact for those ops) cannot see.
//!
//! Intrinsics (`sin`, `exp`, …) evaluate through `f64` — a documented
//! precision floor: their local error reads as zero in DD mode. `sqrt`
//! is refined to full DD precision with one Newton step, and
//! `fabs`/`fmin`/`fmax` are exact. The approximate `fast*` intrinsics
//! (`fastsqrt` included) evaluate their `fastapprox` function, like the
//! primal.

use chef_exec::shadow::ShadowNum;
use chef_ir::ast::Intrinsic;

/// A double-double value (`hi + lo`, normalized).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DD {
    /// Leading component: the value rounded to `f64`.
    pub hi: f64,
    /// Trailing error term, `|lo| ≤ ulp(hi)/2`.
    pub lo: f64,
}

/// Knuth two-sum: `a + b = s + err` exactly, no magnitude precondition.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// Dekker fast two-sum: requires `|a| ≥ |b|` (or a == 0).
#[inline]
fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let err = b - (s - a);
    (s, err)
}

/// `a · b = p + err` exactly, via FMA.
#[inline]
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let err = a.mul_add(b, -p);
    (p, err)
}

impl DD {
    /// The exact DD for an `f64`.
    #[inline]
    pub fn new(hi: f64) -> Self {
        DD { hi, lo: 0.0 }
    }

    /// Builds a normalized DD from an unevaluated pair.
    #[inline]
    fn norm(hi: f64, lo: f64) -> Self {
        if !hi.is_finite() {
            // ±∞ / NaN absorb the tail (keeps comparisons and to_f64 sane).
            return DD { hi, lo: 0.0 };
        }
        let (hi, lo) = quick_two_sum(hi, lo);
        DD { hi, lo }
    }

    /// DD addition (accurate to ~106 bits).
    #[inline]
    pub fn add(a: DD, b: DD) -> DD {
        let (s, e) = two_sum(a.hi, b.hi);
        DD::norm(s, e + a.lo + b.lo)
    }

    /// DD subtraction.
    #[inline]
    pub fn sub(a: DD, b: DD) -> DD {
        DD::add(
            a,
            DD {
                hi: -b.hi,
                lo: -b.lo,
            },
        )
    }

    /// DD multiplication.
    #[inline]
    pub fn mul(a: DD, b: DD) -> DD {
        let (p, e) = two_prod(a.hi, b.hi);
        DD::norm(p, e + a.hi * b.lo + a.lo * b.hi)
    }

    /// DD division (one refinement step: ~full DD accuracy).
    #[inline]
    pub fn div(a: DD, b: DD) -> DD {
        let q1 = a.hi / b.hi;
        if !q1.is_finite() || b.hi == 0.0 {
            return DD { hi: q1, lo: 0.0 };
        }
        let r = DD::sub(a, DD::mul(b, DD::new(q1)));
        let q2 = (r.hi + r.lo) / b.hi;
        DD::norm(q1, q2)
    }

    /// DD square root (Newton step on the `f64` seed).
    #[inline]
    pub fn sqrt(a: DD) -> DD {
        let x = a.hi.sqrt();
        if x == 0.0 || !x.is_finite() || a.hi < 0.0 {
            return DD::new(x);
        }
        let r = DD::sub(a, DD::mul(DD::new(x), DD::new(x)));
        DD::norm(x, (r.hi + r.lo) / (2.0 * x))
    }
}

impl ShadowNum for DD {
    #[inline]
    fn from_f64(x: f64) -> Self {
        DD::new(x)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self.hi
    }

    #[inline]
    fn add(a: Self, b: Self) -> Self {
        DD::add(a, b)
    }

    #[inline]
    fn sub(a: Self, b: Self) -> Self {
        DD::sub(a, b)
    }

    #[inline]
    fn mul(a: Self, b: Self) -> Self {
        DD::mul(a, b)
    }

    #[inline]
    fn div(a: Self, b: Self) -> Self {
        DD::div(a, b)
    }

    #[inline]
    fn neg(a: Self) -> Self {
        DD {
            hi: -a.hi,
            lo: -a.lo,
        }
    }

    fn intr1(i: Intrinsic, a: Self) -> Self {
        match i {
            // Exact at DD precision.
            Intrinsic::Fabs => {
                if a.hi < 0.0 || (a.hi == 0.0 && a.lo < 0.0) {
                    <DD as ShadowNum>::neg(a)
                } else {
                    a
                }
            }
            // Full-DD sqrt (one Newton step).
            Intrinsic::Sqrt => DD::sqrt(a),
            // Everything else, `fastsqrt` included: f64 evaluation
            // (documented precision floor).
            _ => DD::new(chef_exec::intrinsics::eval1(i, a.hi)),
        }
    }

    fn intr2(i: Intrinsic, a: Self, b: Self) -> Self {
        match i {
            // Selection intrinsics are exact: compare at DD precision.
            // IEEE fmin/fmax semantics like the primal's `f64::min/max`:
            // a NaN operand is discarded, not propagated.
            Intrinsic::Fmin => {
                if a.hi.is_nan() {
                    b
                } else if b.hi.is_nan() || (a.hi, a.lo) < (b.hi, b.lo) {
                    a
                } else {
                    b
                }
            }
            Intrinsic::Fmax => {
                if a.hi.is_nan() {
                    b
                } else if b.hi.is_nan() || (a.hi, a.lo) > (b.hi, b.lo) {
                    a
                } else {
                    b
                }
            }
            _ => DD::new(chef_exec::intrinsics::eval2(i, a.hi, b.hi)),
        }
    }

    fn cmp(op: chef_exec::bytecode::CmpOp, a: Self, b: Self) -> bool {
        use chef_exec::bytecode::CmpOp;
        use std::cmp::Ordering;
        // Exact comparison of normalized DDs: `hi` decides, `lo` breaks
        // ties — this is what lets divergence detection see a branch knot
        // the default `to_f64` rounding would quantize away. NaN follows
        // IEEE semantics (false except `!=`), matching the primal.
        let ord = match a.hi.partial_cmp(&b.hi) {
            Some(Ordering::Equal) => a.lo.partial_cmp(&b.lo),
            o => o,
        };
        match ord {
            None => matches!(op, CmpOp::Ne),
            Some(o) => match op {
                CmpOp::Eq => o == Ordering::Equal,
                CmpOp::Ne => o != Ordering::Equal,
                CmpOp::Lt => o == Ordering::Less,
                CmpOp::Le => o != Ordering::Greater,
                CmpOp::Gt => o == Ordering::Greater,
                CmpOp::Ge => o != Ordering::Less,
            },
        }
    }

    fn trunc_i64(a: Self) -> i64 {
        // Exact trunc-toward-zero of `hi + lo`: the default (`hi as
        // i64`) is wrong when the tail crosses an integer boundary the
        // head sits on — DD {hi: 100.0, lo: -1e-14} is 99.99…, which
        // truncates to 99, not 100. `hi - hi.trunc()` is exact, so
        // `rest` is the true fractional part plus the tail.
        let t = a.hi.trunc();
        let rest = (a.hi - t) + a.lo;
        let mut v = t;
        if rest >= 1.0 {
            v += 1.0;
        } else if rest <= -1.0 {
            v -= 1.0;
        } else if v > 0.0 && rest < 0.0 {
            // Positive head, the true value dips below it: 99.99… .
            v -= 1.0;
        } else if v < 0.0 && rest > 0.0 {
            // Negative mirror: −99.99… truncates toward zero to −99.
            v += 1.0;
        }
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representation_is_normalized_and_exact_on_f64s() {
        for &x in &[0.0, 1.0, -3.75, 1e300, 1e-300, f64::MIN_POSITIVE] {
            let d = DD::new(x);
            assert_eq!(d.hi, x);
            assert_eq!(d.lo, 0.0);
        }
    }

    #[test]
    fn add_captures_the_f64_rounding_error() {
        // 1 + 2^-60 is inexact in f64 but exact in DD.
        let tiny = 2f64.powi(-60);
        let s = DD::add(DD::new(1.0), DD::new(tiny));
        assert_eq!(s.hi, 1.0);
        assert_eq!(s.lo, tiny);
        // Subtracting 1 recovers the tiny exactly.
        let r = DD::sub(s, DD::new(1.0));
        assert_eq!(r.hi, tiny);
        assert_eq!(r.lo, 0.0);
    }

    #[test]
    fn mul_is_error_free_for_the_leading_product() {
        let (a, b) = (1.0 + 2f64.powi(-30), 1.0 - 2f64.powi(-31));
        let p = DD::mul(DD::new(a), DD::new(b));
        // p.hi + p.lo reproduces the exact product a·b: check against the
        // FMA residual.
        let exact_err = a.mul_add(b, -(a * b));
        assert_eq!(p.hi, a * b);
        assert_eq!(p.lo, exact_err);
    }

    #[test]
    fn div_and_sqrt_refine_past_f64() {
        // 1/3 in DD: hi is the f64 quotient, lo the residual correction.
        let q = DD::div(DD::new(1.0), DD::new(3.0));
        assert_eq!(q.hi, 1.0 / 3.0);
        assert!(q.lo != 0.0 && q.lo.abs() < f64::EPSILON);
        // sqrt(2) in DD squared returns to 2 within DD accuracy.
        let s = DD::sqrt(DD::new(2.0));
        let back = DD::mul(s, s);
        let err = DD::sub(back, DD::new(2.0));
        assert!(err.hi.abs() < 1e-30, "{err:?}");
    }

    #[test]
    fn fmin_fmax_discard_nan_like_the_primal() {
        use chef_exec::shadow::ShadowNum;
        use chef_ir::ast::Intrinsic;
        let nan = DD::new(f64::NAN);
        let five = DD::new(5.0);
        for i in [Intrinsic::Fmin, Intrinsic::Fmax] {
            assert_eq!(<DD as ShadowNum>::intr2(i, nan, five).hi, 5.0);
            assert_eq!(<DD as ShadowNum>::intr2(i, five, nan).hi, 5.0);
        }
        // Ordinary ordering still compares at DD precision.
        let lo = DD::add(DD::new(1.0), DD::new(2f64.powi(-70)));
        let hi = DD::add(DD::new(1.0), DD::new(2f64.powi(-60)));
        assert_eq!(<DD as ShadowNum>::intr2(Intrinsic::Fmin, lo, hi), lo);
        assert_eq!(<DD as ShadowNum>::intr2(Intrinsic::Fmax, lo, hi), hi);
    }

    #[test]
    fn special_values_do_not_poison() {
        assert!(DD::div(DD::new(1.0), DD::new(0.0)).hi.is_infinite());
        assert!(DD::sqrt(DD::new(-1.0)).hi.is_nan());
        let inf = DD::add(DD::new(f64::MAX), DD::new(f64::MAX));
        assert!(inf.hi.is_infinite());
        assert_eq!(inf.lo, 0.0);
    }

    #[test]
    fn nonfinite_inputs_propagate_through_the_efts() {
        // The raw EFTs compute garbage residuals on non-finite inputs
        // (∞ − ∞ = NaN inside `two_sum`/`two_prod`); `DD::norm` must
        // absorb that into a canonical {hi, lo: 0} so the shadow value
        // stays comparable and `to_f64` stays the primal's answer.
        let inf = DD::new(f64::INFINITY);
        let nan = DD::new(f64::NAN);
        for op in [DD::add, DD::sub, DD::mul, DD::div] {
            let a = op(inf, DD::new(2.0));
            assert!(!a.hi.is_finite(), "hi must mirror the f64 result");
            assert_eq!(a.lo, 0.0, "tail must be absorbed, not NaN");
            let b = op(nan, DD::new(2.0));
            assert!(b.hi.is_nan());
            assert_eq!(b.lo, 0.0);
        }
        // ∞ − ∞ and 0·∞: NaN head, clean tail — exactly like the primal.
        let knot = DD::sub(inf, inf);
        assert!(knot.hi.is_nan());
        assert_eq!(knot.lo, 0.0);
        let zi = DD::mul(DD::new(0.0), inf);
        assert!(zi.hi.is_nan());
        assert_eq!(zi.lo, 0.0);
        // DD overflow that f64 would also overflow: two_prod's FMA
        // residual is NaN (fma(max, max, -inf)), norm must still give
        // {+inf, 0}.
        let big = DD::mul(DD::new(f64::MAX), DD::new(f64::MAX));
        assert_eq!(big.hi, f64::INFINITY);
        assert_eq!(big.lo, 0.0);
        // sqrt(∞) refines through the Newton-step guard.
        assert_eq!(DD::sqrt(inf).hi, f64::INFINITY);
        assert_eq!(DD::sqrt(inf).lo, 0.0);
        assert!(DD::sqrt(nan).hi.is_nan());
    }

    #[test]
    fn exact_comparison_sees_sub_ulp_gaps() {
        use chef_exec::bytecode::CmpOp;
        let half = DD::new(0.5);
        let above = DD::add(half, DD::new(1e-20)); // hi = 0.5, lo = 1e-20
        assert_eq!(above.hi, 0.5, "gap is below one ulp");
        assert!(<DD as ShadowNum>::cmp(CmpOp::Gt, above, half));
        assert!(!<DD as ShadowNum>::cmp(CmpOp::Le, above, half));
        assert!(<DD as ShadowNum>::cmp(CmpOp::Eq, half, DD::new(0.5)));
    }

    #[test]
    fn trunc_i64_is_exact_across_integer_boundaries() {
        let t = <DD as ShadowNum>::trunc_i64;
        // Sub-ulp below an integer head: 100 − 5e-15 is 99.99…, trunc 99
        // (the f64 default would say 100).
        assert_eq!(
            t(DD {
                hi: 100.0,
                lo: -5e-15
            }),
            99
        );
        // Sub-ulp above: still 100.
        assert_eq!(
            t(DD {
                hi: 100.0,
                lo: 5e-15
            }),
            100
        );
        // Tail carries the fraction across: one-ulp-below-100 head plus
        // a tail that pushes the true value past the boundary.
        let near = 100.0 - 2f64.powi(-46); // previous f64 before 100.0
        assert_eq!(
            t(DD {
                hi: near,
                lo: 2e-14
            }),
            100
        );
        assert_eq!(t(DD::new(near)), 99);
        // The same value normalized (head rounds up, tail goes negative)
        // agrees.
        let norm = DD::add(DD::new(near), DD::new(2e-14));
        assert_eq!(norm.hi, 100.0);
        assert_eq!(t(norm), 100);
        // Negative mirror (trunc toward zero).
        assert_eq!(
            t(DD {
                hi: -100.0,
                lo: 5e-15
            }),
            -99
        );
        assert_eq!(
            t(DD {
                hi: -100.0,
                lo: -5e-15
            }),
            -100
        );
        // Plain cases agree with the f64 cast.
        for x in [0.0, 0.75, -0.75, 42.9, -42.9, 1e9 + 0.5] {
            assert_eq!(t(DD::new(x)), x as i64, "{x}");
        }
    }
}
