//! # chef-ad — source-transformation automatic differentiation for KernelC
//!
//! This crate is the **Clad substrate** of the CHEF-FP reproduction: a
//! compile-time (source transformation) AD engine over the KernelC AST,
//! implementing the adjoint-accumulation transformation of the paper's
//! Fig. 2 together with the extension (callback) mechanism of §III-D that
//! CHEF-FP's error-estimation module plugs into.
//!
//! * [`reverse`] — the adjoint mode: forward sweep with TBR-pruned tape
//!   pushes, backward sweep with pops, per-assignment extension hooks
//!   (`AssignError`, rule S2) and a finalize hook (`FinalizeEE`, rule S1);
//! * [`forward`] — the pushforward (tangent) mode, used as an oracle;
//! * [`activity`] — `isDiff` and the to-be-recorded analysis;
//! * [`derivatives`] — symbolic derivative rules for intrinsics.
//!
//! ```
//! use chef_ir::prelude::*;
//! use chef_ad::reverse::reverse_diff;
//!
//! let mut p = parse_program(
//!     "double f(double x, double y) { double z = x * y; return z; }").unwrap();
//! check_program(&mut p).unwrap();
//! let grad = reverse_diff(p.function("f").unwrap()).unwrap();
//! // void f_grad(double x, double y, double &_d_x, double &_d_y)
//! assert_eq!(grad.name, "f_grad");
//! assert_eq!(grad.params.len(), 4);
//! ```

pub mod activity;
pub mod derivatives;
pub mod forward;
pub mod reverse;
mod zeroed;

pub use forward::forward_diff;
pub use reverse::{
    reverse_diff, reverse_diff_with, AdError, AdjointExtension, AssignCtx, FinalizeCtx, InputInfo,
    NoExtension, ReverseConfig,
};
