//! The KernelC type system.
//!
//! KernelC models exactly the data HPC kernels manipulate: scalar floats at
//! one of four IEEE-style precisions, 64-bit integers, booleans, and 1-D
//! arrays of scalars. The [`FloatTy`] precision lattice is the heart of the
//! mixed-precision analysis: demoting a variable means lowering its
//! [`FloatTy`], and the error models quantify what that costs.

use std::fmt;

/// Floating-point precision of a scalar or array element.
///
/// The formats are only partially ordered, by [`FloatTy::fits_in`]; the
/// format two precisions compute at is their [`FloatTy::join`]
/// ([`crate::precision`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FloatTy {
    /// IEEE 754 binary16 (`half`): 11-bit significand.
    F16,
    /// bfloat16 (`bfloat`): 8-bit significand, f32 exponent range.
    BF16,
    /// IEEE 754 binary32 (`float`): 24-bit significand.
    F32,
    /// IEEE 754 binary64 (`double`): 53-bit significand.
    F64,
}

impl FloatTy {
    /// Machine epsilon: the maximum relative representation error due to
    /// rounding, `2^-(p)` where `p` is the number of stored significand
    /// bits. This is the `ε_m` of the paper's default error model
    /// `A_f = |ε_m · x · f'(x)|` (eq. 1).
    pub fn epsilon(self) -> f64 {
        match self {
            // binary16: 10 stored bits -> ulp 2^-10, eps = 2^-11 (round-to-nearest)
            FloatTy::F16 => (2.0f64).powi(-11),
            // bfloat16: 7 stored bits -> eps = 2^-8
            FloatTy::BF16 => (2.0f64).powi(-8),
            // binary32: 23 stored bits -> eps = 2^-24
            FloatTy::F32 => (2.0f64).powi(-24),
            // binary64: 52 stored bits -> eps = 2^-53
            FloatTy::F64 => (2.0f64).powi(-53),
        }
    }

    /// Number of stored significand bits (excluding the implicit leading 1).
    pub fn mantissa_bits(self) -> u32 {
        match self {
            FloatTy::F16 => 10,
            FloatTy::BF16 => 7,
            FloatTy::F32 => 23,
            FloatTy::F64 => 52,
        }
    }

    /// The KernelC keyword for this precision.
    pub fn keyword(self) -> &'static str {
        match self {
            FloatTy::F16 => "half",
            FloatTy::BF16 => "bfloat",
            FloatTy::F32 => "float",
            FloatTy::F64 => "double",
        }
    }

    /// The next precision *below* this one (demotion target), or `None`
    /// for the lowest.
    pub fn demoted(self) -> Option<FloatTy> {
        match self {
            FloatTy::F64 => Some(FloatTy::F32),
            FloatTy::F32 => Some(FloatTy::F16),
            FloatTy::BF16 | FloatTy::F16 => None,
        }
    }

    /// `true` when every value of `self` is a value of `wider`, so a
    /// conversion from `self` to `wider` is exact. `half` has the longer
    /// significand and `bfloat` the wider exponent range, so neither holds
    /// the other.
    pub fn fits_in(self, wider: FloatTy) -> bool {
        match (self, wider) {
            (a, b) if a == b => true,
            (_, FloatTy::F64) | (FloatTy::F16 | FloatTy::BF16, FloatTy::F32) => true,
            _ => false,
        }
    }

    /// All precisions, each listed after every format that fits in it, so
    /// the first one that holds two formats is their [`FloatTy::join`].
    pub const ALL: [FloatTy; 4] = [FloatTy::F16, FloatTy::BF16, FloatTy::F32, FloatTy::F64];
}

impl fmt::Display for FloatTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Element type of an array (floats or integers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElemTy {
    /// Floating-point elements at the given precision.
    Float(FloatTy),
    /// 64-bit signed integer elements (index arrays, row pointers, …).
    Int,
}

impl fmt::Display for ElemTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemTy::Float(ft) => write!(f, "{ft}"),
            ElemTy::Int => f.write_str("int"),
        }
    }
}

/// A KernelC type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// A floating-point scalar.
    Float(FloatTy),
    /// A 64-bit signed integer.
    Int,
    /// A boolean.
    Bool,
    /// A 1-D array with the given element type; length is a runtime
    /// property of the value, not the type.
    Array(ElemTy),
    /// The unit/void type (function returns only).
    Void,
}

impl Type {
    /// `true` for `Float(_)` scalars.
    pub fn is_float(self) -> bool {
        matches!(self, Type::Float(_))
    }

    /// `true` for scalar numeric types (float or int).
    pub fn is_numeric_scalar(self) -> bool {
        matches!(self, Type::Float(_) | Type::Int)
    }

    /// `true` if values of this type participate in differentiation
    /// (the `isDiff` notion of the paper's rule S2 applies to locations of
    /// these types).
    pub fn is_differentiable(self) -> bool {
        matches!(self, Type::Float(_) | Type::Array(ElemTy::Float(_)))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Float(ft) => write!(f, "{ft}"),
            Type::Int => f.write_str("int"),
            Type::Bool => f.write_str("bool"),
            Type::Array(e) => write!(f, "{e}[]"),
            Type::Void => f.write_str("void"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_values_match_ieee() {
        assert_eq!(FloatTy::F64.epsilon(), f64::EPSILON / 2.0);
        assert_eq!(FloatTy::F32.epsilon(), (f32::EPSILON / 2.0) as f64);
        assert_eq!(FloatTy::F16.epsilon(), 2.0f64.powi(-11));
        assert_eq!(FloatTy::BF16.epsilon(), 2.0f64.powi(-8));
    }

    #[test]
    fn join_is_the_least_format_holding_both() {
        use FloatTy::*;
        let want = |a, b| match (a, b) {
            (F64, _) | (_, F64) => F64,
            (F32, _) | (_, F32) | (F16, BF16) | (BF16, F16) => F32,
            _ => a,
        };
        for a in FloatTy::ALL {
            for b in FloatTy::ALL {
                let j = a.join(b);
                assert_eq!(j, want(a, b), "{a} join {b}");
                assert_eq!(j, b.join(a), "{a} join {b} is not commutative");
                assert!(a.fits_in(j) && b.fits_in(j), "{a} join {b} = {j}");
                // Every format that holds both holds the join.
                for t in FloatTy::ALL {
                    if a.fits_in(t) && b.fits_in(t) {
                        assert!(j.fits_in(t), "{a} join {b} = {j}, but {t} holds both");
                    }
                }
            }
        }
    }

    #[test]
    fn fits_in_is_value_inclusion_not_order() {
        use FloatTy::*;
        for t in FloatTy::ALL {
            assert!(t.fits_in(t) && t.fits_in(F64));
        }
        assert!(F16.fits_in(F32) && BF16.fits_in(F32));
        // Half has more significand bits, bfloat more exponent range.
        assert!(!F16.fits_in(BF16) && !BF16.fits_in(F16));
        assert!(!F32.fits_in(F16) && !F64.fits_in(F32));
    }

    #[test]
    fn demotion_chain() {
        assert_eq!(FloatTy::F64.demoted(), Some(FloatTy::F32));
        assert_eq!(FloatTy::F32.demoted(), Some(FloatTy::F16));
        assert_eq!(FloatTy::F16.demoted(), None);
    }

    #[test]
    fn promotion_rules() {
        use crate::precision::{arith, intrinsic};
        use FloatTy::*;
        use Type::*;
        assert_eq!(arith(Float(F32), Float(F64)), Some(Float(F64)));
        assert_eq!(arith(Float(F16), Float(BF16)), Some(Float(F32)));
        // An int operand of arithmetic counts as double.
        assert_eq!(arith(Int, Float(F32)), Some(Float(F64)));
        assert_eq!(arith(Int, Int), Some(Int));
        assert_eq!(arith(Bool, Int), None);
        // An int argument of an intrinsic does not count.
        assert_eq!(intrinsic([Float(F32), Int]), F32);
        assert_eq!(intrinsic([Float(BF16), Float(F16)]), F32);
        assert_eq!(intrinsic([Float(F16)]), F16);
        assert_eq!(intrinsic([Int]), F64);
    }

    #[test]
    fn differentiability() {
        assert!(Type::Float(FloatTy::F64).is_differentiable());
        assert!(Type::Array(ElemTy::Float(FloatTy::F32)).is_differentiable());
        assert!(!Type::Int.is_differentiable());
        assert!(!Type::Array(ElemTy::Int).is_differentiable());
        assert!(!Type::Bool.is_differentiable());
    }
}
