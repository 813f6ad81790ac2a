//! # chef-ir — the KernelC language
//!
//! KernelC is a small, typed, C-like language covering exactly the
//! constructs HPC numeric kernels are written in: scalar floats at four
//! precisions (`half`, `bfloat`, `float`, `double`), 64-bit `int`s,
//! `bool`s, 1-D arrays, assignments (plain and compound), `if`/`for`/
//! `while` control flow, and calls to math intrinsics or other KernelC
//! functions.
//!
//! This crate plays the role that **Clang's AST** plays for Clad in the
//! CHEF-FP paper: it is the typed, source-located program representation
//! that the AD transformation (`chef-ad`), the optimizer (`chef-passes`),
//! the error-estimation module (`chef-core`) and the execution engine
//! (`chef-exec`) all share.
//!
//! ## Quick tour
//!
//! ```
//! use chef_ir::prelude::*;
//!
//! let src = "
//!     float func(float x, float y) {
//!         float z;
//!         z = x + y;
//!         return z;
//!     }";
//! let mut program = parse_program(src).unwrap();
//! check_program(&mut program).unwrap();
//! let f = program.function("func").unwrap();
//! assert_eq!(f.arity(), 2);
//! println!("{}", print_function(f));
//! ```

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod precision;
pub mod printer;
pub mod span;
pub mod token;
pub mod typeck;
pub mod types;
pub mod visit;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::ast::{
        AssignOp, BinOp, Block, Callee, Expr, ExprKind, Function, Intrinsic, LValue, Param,
        Program, Stmt, StmtKind, Symbol, UnOp, VarId, VarInfo, VarRef,
    };
    pub use crate::diag::{Diagnostic, Diagnostics, Severity};
    pub use crate::parser::{parse_expr, parse_program};
    pub use crate::printer::{print_expr, print_function, print_program, print_stmt};
    pub use crate::span::{SourceMap, Span};
    pub use crate::typeck::{check_function, check_program, Signature};
    pub use crate::types::{ElemTy, FloatTy, Type};
}

pub use prelude::*;
