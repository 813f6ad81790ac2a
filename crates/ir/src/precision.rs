//! KernelC's precision semantics, stated once.
//!
//! Every component that decides the format of an intermediate asks this
//! module — the type checker, the AST builders, the constant folder and
//! the bytecode compiler (whose VM also runs the ADAPT baseline's
//! forward pass) — so the estimated, the optimized and the executed
//! program agree on every rounding:
//!
//! * two float operands of arithmetic compute at their [`FloatTy::join`],
//!   the least format that holds both ([`arith`]);
//! * an integer operand of arithmetic counts as `double`;
//! * an intrinsic call computes at the join of its float arguments, or
//!   `double` when it has none ([`intrinsic`]). Under this `<cmath>`
//!   overload rule `sin` of a `float` is computed and rounded as `float`;
//! * a cast, like an assignment, yields its target precision and rounds
//!   only when the operand does not [`FloatTy::fits_in`] it.
//!
//! A result below `double` is rounded to its format with [`round_to`].
//! Values are carried as `f64` and narrow formats are simulated by
//! *rounding on assignment* and after each narrow operation: the value
//! set of each narrow format is a subset of `f64`'s, so "store into an
//! `f32` variable" is exactly "round to the nearest `f32` and keep the
//! result as `f64`". `f32` rounding uses the hardware conversion.
//! `binary16` and `bfloat16` are rounded in software, once, straight from
//! the `f64` bits, with IEEE 754 round-to-nearest-even, including
//! overflow-to-infinity and subnormal handling. (Going through `f32`
//! first would round twice: an `f64` just above a half-way point can
//! land exactly on it in `f32` and then tie to even, the wrong way.)

use crate::types::{FloatTy, Type};

impl FloatTy {
    /// The least format that both `self` and `other` [`FloatTy::fits_in`]:
    /// `half` joined with `bfloat` is `float`.
    pub fn join(self, other: FloatTy) -> FloatTy {
        FloatTy::ALL
            .into_iter()
            .find(|&t| self.fits_in(t) && other.fits_in(t))
            .expect("every format fits in double")
    }
}

/// The type of arithmetic on operands of types `a` and `b`: `int` for two
/// ints, otherwise the join of the float operands with an int counting
/// as `double`. `None` when an operand is not a numeric scalar.
pub fn arith(a: Type, b: Type) -> Option<Type> {
    let prec = |t| match t {
        Type::Float(ft) => Some(ft),
        Type::Int => Some(FloatTy::F64),
        _ => None,
    };
    match (a, b) {
        (Type::Int, Type::Int) => Some(Type::Int),
        _ => Some(Type::Float(prec(a)?.join(prec(b)?))),
    }
}

/// The precision an intrinsic call on arguments of types `args` computes
/// and rounds its result at: the join of the float arguments, or
/// `double` when there are none. Integer arguments do not count.
pub fn intrinsic(args: impl IntoIterator<Item = Type>) -> FloatTy {
    args.into_iter()
        .filter_map(|t| match t {
            Type::Float(ft) => Some(ft),
            _ => None,
        })
        .reduce(FloatTy::join)
        .unwrap_or(FloatTy::F64)
}

/// Rounds `x` to the value set of `ty`, returning the result as `f64`.
///
/// This is the `fl_p(x)` operation of rounding-error analysis: the nearest
/// representable number in precision `p` (ties to even), with overflow
/// going to ±∞ like the hardware conversion would. NaN and ±∞ pass
/// through.
#[inline]
pub fn round_to(x: f64, ty: FloatTy) -> f64 {
    match ty {
        FloatTy::F64 => x,
        FloatTy::F32 => x as f32 as f64,
        FloatTy::F16 => round_narrow(x, 10, -14, 15),
        FloatTy::BF16 => round_narrow(x, 7, -126, 127),
    }
}

/// The representation (demotion) error `x − fl_p(x)`.
///
/// This is the per-variable quantity the ADAPT error model weighs with the
/// adjoint: `x̄ · (x − (float)x)` (paper eq. 2, generalized to any target
/// precision).
#[inline]
pub fn demotion_error(x: f64, ty: FloatTy) -> f64 {
    x - round_to(x, ty)
}

/// `2^e`, for `e` in the normal `f64` exponent range.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Rounds `x` to the nearest number with `man_bits` fraction bits and
/// normal exponents `emin..=emax` (ties to even, gradual underflow,
/// overflow to ±∞), in one step from its `f64` bits.
fn round_narrow(x: f64, man_bits: i32, emin: i32, emax: i32) -> f64 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let sign = bits & (1 << 63);
    let biased = ((bits >> 52) & 0x7FF) as i32;
    if biased == 0 {
        // Zero, or an `f64` subnormal: far below half the narrow format's
        // smallest subnormal.
        return f64::from_bits(sign);
    }
    let e = biased - 1023;
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    // The result's spacing is 2^q: `man_bits` below the leading bit, but
    // never finer than the subnormal spacing 2^(emin - man_bits).
    let q = e.max(emin) - man_bits;
    // Bits of `m` below that spacing; at least 52 - man_bits. Past 63,
    // `m` is below half the spacing and rounds to zero just the same.
    let shift = (q - (e - 52)).min(63) as u32;
    let kept = m >> shift;
    let rest = m & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    let kept = kept + u64::from(rest > half || (rest == half && kept & 1 == 1));
    let max = ((1u64 << (man_bits + 1)) - 1) as f64 * pow2(emax - man_bits);
    let mag = kept as f64 * pow2(q);
    let mag = if mag > max { f64::INFINITY } else { mag };
    f64::from_bits(mag.to_bits() | sign)
}

/// Unit-in-the-last-place of `x` in precision `ty` — the spacing of
/// representable numbers around `x`. Used by error models that bound the
/// rounding error of an operation by `ulp/2`.
pub fn ulp(x: f64, ty: FloatTy) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return 0.0;
    }
    let e = x.abs().log2().floor() as i32;
    2f64.powi(e - ty.mantissa_bits() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use FloatTy::*;

    /// IEEE 754 binary16 bits as `f64` (exact).
    fn f16_to_f64(h: u16) -> f64 {
        let sign = if h & 0x8000 != 0 { -1.0 } else { 1.0 };
        let exp = ((h >> 10) & 0x1F) as i32;
        let man = (h & 0x03FF) as f64;
        match exp {
            0 => sign * man * 2f64.powi(-24), // subnormal (or zero)
            0x1F if man == 0.0 => sign * f64::INFINITY,
            0x1F => f64::NAN,
            _ => sign * (1.0 + man / 1024.0) * 2f64.powi(exp - 15),
        }
    }

    /// bfloat16 bits as `f64` (exact: widen to f32 then f64).
    fn bf16_to_f64(b: u16) -> f64 {
        f32::from_bits((b as u32) << 16) as f64
    }

    #[test]
    fn f64_rounding_is_identity() {
        for &x in &[0.0, 1.0, -3.7, 1e300, f64::MIN_POSITIVE] {
            assert_eq!(round_to(x, F64), x);
        }
    }

    #[test]
    fn f32_rounding_matches_hardware() {
        for &x in &[0.1, 1.0 / 3.0, 1e-40, 1e40, -2.5] {
            assert_eq!(round_to(x, F32), x as f32 as f64);
        }
    }

    #[test]
    fn f16_exact_values_round_trip() {
        // All f16-representable values must round to themselves.
        for h in 0u16..=0xFFFF {
            let x = f16_to_f64(h);
            if x.is_nan() {
                continue;
            }
            assert_eq!(round_to(x, F16), x, "h={h:#06x} x={x}");
        }
    }

    #[test]
    fn f16_rounding_known_values() {
        assert_eq!(round_to(1.0, F16), 1.0);
        assert_eq!(round_to(0.5, F16), 0.5);
        // 1/3 rounds to 0.333251953125 in binary16 (0x3555).
        assert_eq!(round_to(1.0 / 3.0, F16), f16_to_f64(0x3555));
        // Largest finite f16 = 65504.
        assert_eq!(round_to(65504.0, F16), 65504.0);
        // 65520 rounds up to infinity.
        assert_eq!(round_to(65520.0, F16), f64::INFINITY);
        // Just below halfway stays finite.
        assert_eq!(round_to(65519.9, F16), 65504.0);
    }

    #[test]
    fn f16_subnormals() {
        let min_sub = 2f64.powi(-24);
        assert_eq!(round_to(min_sub, F16), min_sub);
        assert_eq!(round_to(min_sub * 0.49, F16), 0.0);
        assert_eq!(round_to(min_sub * 0.51, F16), min_sub);
        let min_normal = 2f64.powi(-14);
        assert_eq!(round_to(min_normal, F16), min_normal);
    }

    #[test]
    fn f16_signs_preserved() {
        assert_eq!(round_to(-1.5, F16), -1.5);
        assert!(round_to(-0.0, F16).is_sign_negative());
        assert_eq!(round_to(-70000.0, F16), f64::NEG_INFINITY);
    }

    #[test]
    fn bf16_exact_values_round_trip() {
        for hi in 0u16..=0xFFFF {
            let x = bf16_to_f64(hi);
            if x.is_nan() {
                continue;
            }
            assert_eq!(round_to(x, BF16), x, "hi={hi:#06x}");
        }
    }

    #[test]
    fn half_and_bfloat_round_once() {
        // Through f32, the 2^-40 is lost first and the f32 value is then
        // a tie that goes to even, down to 1.0.
        let x = 1.0 + 2f64.powi(-11) + 2f64.powi(-40);
        assert_eq!(round_to(x, F16), 1.0 + 2f64.powi(-10));
        let x = 1.0 + 2f64.powi(-8) + 2f64.powi(-40);
        assert_eq!(round_to(x, BF16), 1.0 + 2f64.powi(-7));
    }

    /// Checks every midpoint between adjacent finite values of a 16-bit
    /// format (`decode` maps its bits to `f64`; `inf` is the bits of +∞),
    /// and the `f64` values one ulp either side: the midpoint ties to the
    /// even neighbour, the others round to the nearer one. Above the
    /// largest finite value the next value is 2^(emax+1), which rounds to
    /// ∞.
    fn check_midpoints(ty: FloatTy, decode: fn(u16) -> f64, inf: u16, top: f64) {
        for h in 0..inf {
            let lo = decode(h);
            let hi = if h + 1 == inf { top } else { decode(h + 1) };
            let hi_rounded = decode(h + 1);
            let mid = (lo + hi) / 2.0; // exact: both have few bits
            let even = if h % 2 == 0 { lo } else { hi_rounded };
            let below = f64::from_bits(mid.to_bits() - 1);
            let above = f64::from_bits(mid.to_bits() + 1);
            for (x, want) in [(mid, even), (below, lo), (above, hi_rounded)] {
                for sign in [1.0, -1.0] {
                    let got = round_to(sign * x, ty);
                    assert_eq!(
                        got.to_bits(),
                        (sign * want).to_bits(),
                        "{ty} bits {h:#06x}: round({:e}) = {got:e}, want {:e}",
                        sign * x,
                        sign * want
                    );
                }
            }
        }
    }

    #[test]
    fn every_half_and_bfloat_midpoint_rounds_to_nearest_even() {
        check_midpoints(F16, f16_to_f64, 0x7C00, 65536.0);
        check_midpoints(BF16, bf16_to_f64, 0x7F80, 2f64.powi(128));
    }

    #[test]
    fn bf16_keeps_f32_range() {
        // bf16 has f32's exponent range: 1e38 stays finite.
        assert!(round_to(1e38, BF16).is_finite());
        assert_eq!(round_to(1e39, BF16), f64::INFINITY);
    }

    #[test]
    fn bf16_coarser_than_f16_in_mantissa() {
        let x = 1.0 + 1.0 / 512.0; // needs 9 mantissa bits
        assert_eq!(round_to(x, F16), x); // f16 has 10, exact
        assert_ne!(round_to(x, BF16), x); // bf16 has 7, rounds
    }

    #[test]
    fn demotion_error_magnitudes() {
        let x = 1.0 / 3.0;
        let e32 = demotion_error(x, F32).abs();
        let e16 = demotion_error(x, F16).abs();
        assert!(e32 > 0.0 && e16 > e32);
        assert!(e32 < F32.epsilon() * x * 1.01);
        assert!(e16 < F16.epsilon() * x * 1.01);
        assert_eq!(demotion_error(0.5, F16), 0.0);
    }

    #[test]
    fn rounding_is_monotone_f16() {
        let mut prev = f64::NEG_INFINITY;
        for i in -1000..=1000 {
            let x = i as f64 * 0.037;
            let r = round_to(x, F16);
            assert!(r >= prev, "x={x}");
            prev = r;
        }
    }

    #[test]
    fn rounding_is_idempotent() {
        for ty in FloatTy::ALL {
            for i in -100..=100 {
                let x = i as f64 * 0.317;
                let once = round_to(x, ty);
                assert_eq!(round_to(once, ty), once, "ty={ty} x={x}");
            }
        }
    }

    #[test]
    fn ulp_values() {
        assert_eq!(ulp(1.0, F64), f64::EPSILON);
        assert_eq!(ulp(1.0, F32), (f32::EPSILON) as f64);
        assert_eq!(ulp(1.5, F32), (f32::EPSILON) as f64);
        assert_eq!(ulp(2.0, F32), 2.0 * f32::EPSILON as f64);
        assert_eq!(ulp(0.0, F16), 0.0);
    }
}
