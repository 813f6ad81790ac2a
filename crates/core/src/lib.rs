//! # chef-core — CHEF-FP: AD-based floating-point error estimation
//!
//! The paper's primary contribution: a source-transformation framework
//! that injects **error-estimation code into generated adjoints**. The
//! pipeline (paper Fig. 3):
//!
//! ```text
//! KernelC ──chef-ad──▶ adjoint AST ◀─ callbacks ─ EstimationModule ── ErrorModel
//!             adjoint+EE AST ──chef-passes──▶ optimized ──chef-exec──▶
//!                         gradient + fp_error + per-variable attribution
//! ```
//!
//! * [`model`] — the `AssignError` formulas: Taylor (eq. 1), ADAPT
//!   (eq. 2), approximate-function (Algorithm 2), and user models;
//! * [`module`] — the Error Estimation Module that synthesizes
//!   accumulation code through `chef-ad`'s callback system;
//! * [`api`] — `estimate_error` / `ErrorEstimator::execute`, mirroring
//!   the paper's Listing 1;
//! * [`sensitivity`] — per-iteration sensitivity profiles and the
//!   loop-split discovery (Fig. 9).
//!
//! ```
//! use chef_core::prelude::*;
//! use chef_exec::prelude::ArgValue;
//!
//! let est = estimate_error_src(
//!     "float func(float x, float y) { float z; z = x + y; return z; }",
//!     "func",
//!     &EstimateOptions::default(),
//! ).unwrap();
//! let out = est.execute(&[ArgValue::F(1.95e-5), ArgValue::F(1.37e-7)]).unwrap();
//! println!("Error in func: {}", out.fp_error);
//! ```

pub mod api;
pub mod json;
pub mod model;
pub mod module;
pub mod report;
pub mod sensitivity;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::api::{
        estimate_error, estimate_error_src, estimate_error_src_with, estimate_error_with,
        ChefError, ErrorEstimator, EstimateOptions, EstimateOutcome,
    };
    pub use crate::model::{AdaptModel, ApproxModel, ErrorModel, ModelCtx, SumModel, TaylorModel};
    pub use crate::module::{EstimationModule, ModuleConfig, VarSlots};
    pub use crate::sensitivity::{profile_sensitivity, SensitivityConfig, SensitivityProfile};
}

pub use prelude::*;
