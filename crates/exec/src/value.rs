//! Runtime values passed into and out of compiled KernelC functions.

use std::fmt;

/// A scalar runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A floating-point value (all precisions are stored as `f64`; narrow
    /// precisions are simulated by rounding — see
    /// [`crate::precision::round_to`]).
    F(f64),
    /// A 64-bit integer.
    I(i64),
    /// A boolean.
    B(bool),
}

impl Value {
    /// The float payload; panics on non-floats.
    pub fn as_f(self) -> f64 {
        match self {
            Value::F(v) => v,
            other => panic!("expected float value, got {other:?}"),
        }
    }

    /// The integer payload; panics on non-integers.
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            other => panic!("expected int value, got {other:?}"),
        }
    }

    /// The boolean payload; panics on non-booleans.
    pub fn as_b(self) -> bool {
        match self {
            Value::B(v) => v,
            other => panic!("expected bool value, got {other:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F(v) => write!(f, "{v}"),
            Value::I(v) => write!(f, "{v}"),
            Value::B(v) => write!(f, "{v}"),
        }
    }
}

/// An argument to a compiled function call.
///
/// Scalars are passed by value (by-ref scalars are copied in and the
/// updated value is copied back out in [`crate::vm::CallOutcome`]); arrays
/// are moved in and moved back out to avoid cloning megabyte buffers.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Scalar float.
    F(f64),
    /// Scalar int.
    I(i64),
    /// Scalar bool.
    B(bool),
    /// Float array (any declared element precision; stored as `f64`).
    FArr(Vec<f64>),
    /// Int array.
    IArr(Vec<i64>),
}

impl ArgValue {
    /// The float payload; panics otherwise.
    pub fn as_f(&self) -> f64 {
        match self {
            ArgValue::F(v) => *v,
            other => panic!("expected float argument, got {other:?}"),
        }
    }

    /// The int payload; panics otherwise.
    pub fn as_i(&self) -> i64 {
        match self {
            ArgValue::I(v) => *v,
            other => panic!("expected int argument, got {other:?}"),
        }
    }

    /// Borrows the float-array payload; panics otherwise.
    pub fn as_farr(&self) -> &[f64] {
        match self {
            ArgValue::FArr(v) => v,
            other => panic!("expected float-array argument, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::F(2.5).as_f(), 2.5);
        assert_eq!(Value::I(-3).as_i(), -3);
        assert!(Value::B(true).as_b());
        assert_eq!(ArgValue::FArr(vec![1.0, 2.0]).as_farr(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "expected float value")]
    fn wrong_accessor_panics() {
        Value::I(1).as_f();
    }
}
