//! The user-facing `estimate_error` API (paper Listing 1).
//!
//! ```
//! use chef_core::prelude::*;
//! use chef_exec::prelude::ArgValue;
//!
//! let src = "
//!     float func(float x, float y) {
//!         float z;
//!         z = x + y;
//!         return z;
//!     }";
//! // Call estimate_error on the target function.
//! let est = estimate_error_src(src, "func", &EstimateOptions::default()).unwrap();
//! // Execute the generated code.
//! let out = est.execute(&[ArgValue::F(1.95e-5), ArgValue::F(1.37e-7)]).unwrap();
//! // out.fp_error now contains the error of func.
//! assert!(out.fp_error > 0.0);
//! assert_eq!(out.gradient_f("x"), 1.0);
//! ```

use crate::model::{ErrorModel, TaylorModel};
use crate::module::{EstimationModule, ModuleConfig, VarSlots};
use chef_ad::reverse::{reverse_diff_with, AdError, ReverseConfig};
use chef_exec::prelude::*;
use chef_ir::ast::{Function, Program};
use chef_ir::diag::{Diagnostic, Diagnostics};
use chef_ir::types::Type;
use chef_passes::inline::InlineError;
use chef_passes::pipeline::OptLevel;
use std::collections::HashMap;

/// Everything that can go wrong while building an estimator.
#[derive(Debug)]
pub enum ChefError {
    /// Lexical/syntax error.
    Parse(Diagnostic),
    /// Type errors.
    Typeck(Diagnostics),
    /// Inlining failure.
    Inline(InlineError),
    /// Differentiation failure.
    Ad(AdError),
    /// Bytecode compilation failure.
    Compile(CompileError),
    /// The generated code trapped at runtime (OOB index, div-by-zero,
    /// tape out-of-memory, …).
    Trap(Trap),
    /// No such function in the program.
    UnknownFunction(String),
    /// The request is outside what the pipeline supports (e.g. the
    /// shadow oracle on a function that does not return a float).
    Unsupported(String),
}

impl From<Trap> for ChefError {
    fn from(t: Trap) -> Self {
        ChefError::Trap(t)
    }
}

impl std::fmt::Display for ChefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChefError::Parse(d) => write!(f, "parse error: {d}"),
            ChefError::Typeck(d) => write!(f, "type error: {d}"),
            ChefError::Inline(e) => write!(f, "inline error: {e}"),
            ChefError::Ad(e) => write!(f, "AD error: {e}"),
            ChefError::Compile(e) => write!(f, "compile error: {e}"),
            ChefError::Trap(t) => write!(f, "runtime trap: {t}"),
            ChefError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ChefError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for ChefError {}

/// Options for [`estimate_error`].
pub struct EstimateOptions {
    /// Optimization level applied to the generated adjoint+EE code.
    pub opt_level: OptLevel,
    /// Run the TBR analysis (fewer tape pushes).
    pub tbr: bool,
    /// Array parameter name → length parameter name (enables input-error
    /// loops over array inputs).
    pub array_lens: HashMap<String, String>,
    /// VM options for execution (tape limits, budgets, faults…).
    pub exec: ExecOptions,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        EstimateOptions {
            opt_level: OptLevel::O2,
            tbr: true,
            array_lens: HashMap::new(),
            exec: ExecOptions::default(),
        }
    }
}

impl EstimateOptions {
    /// Registers an array-length pairing (builder style).
    pub fn with_array_len(mut self, array: impl Into<String>, len: impl Into<String>) -> Self {
        self.array_lens.insert(array.into(), len.into());
        self
    }
}

/// Where each adjoint output lives in the generated signature.
#[derive(Clone, Debug)]
struct AdjointSlot {
    /// Primal parameter name.
    name: String,
    /// Index of the corresponding primal argument.
    primal_idx: usize,
    /// `true` if this is an array adjoint.
    is_array: bool,
}

/// A ready-to-run error-estimating gradient (the `df` of Listing 1).
pub struct ErrorEstimator {
    /// The generated adjoint + EE function (KernelC AST) — inspect with
    /// [`ErrorEstimator::generated_source`].
    pub grad: Function,
    compiled: CompiledFunction,
    slots: VarSlots,
    adjoints: Vec<AdjointSlot>,
    n_primal: usize,
    exec: ExecOptions,
    /// Number of assignments the model instrumented.
    pub instrumented_assignments: usize,
}

/// The result of one estimator execution.
#[derive(Clone, Debug)]
pub struct EstimateOutcome {
    /// The primal function value.
    pub value: f64,
    /// Total estimated FP error (the `fp_error` of Listing 1).
    pub fp_error: f64,
    /// Gradient of each differentiable input: name → adjoint value(s).
    pub gradient: Vec<(String, ArgValue)>,
    /// Per-variable error attribution: every float variable of the
    /// primal, by name.
    pub per_variable: HashMap<String, f64>,
    /// VM statistics (analysis time proxies: instructions, tape peak…).
    pub stats: ExecStats,
}

impl EstimateOutcome {
    /// Scalar gradient component by parameter name (panics when absent).
    pub fn gradient_f(&self, name: &str) -> f64 {
        match self.gradient.iter().find(|(n, _)| n == name) {
            Some((_, ArgValue::F(v))) => *v,
            other => panic!("no scalar gradient for `{name}`: {other:?}"),
        }
    }

    /// Array gradient component by parameter name (panics when absent).
    pub fn gradient_arr(&self, name: &str) -> &[f64] {
        match self.gradient.iter().find(|(n, _)| n == name) {
            Some((_, ArgValue::FArr(v))) => v,
            other => panic!("no array gradient for `{name}`: {other:?}"),
        }
    }

    /// Attribution for one variable (0.0 when untracked).
    pub fn error_of(&self, var: &str) -> f64 {
        self.per_variable.get(var).copied().unwrap_or(0.0)
    }
}

/// Builds an error estimator for `func` in `program` using the default
/// Taylor model (paper eq. 1).
pub fn estimate_error(
    program: &Program,
    func: &str,
    opts: &EstimateOptions,
) -> Result<ErrorEstimator, ChefError> {
    estimate_error_with(program, func, &mut TaylorModel::declared(), opts)
}

/// Builds an error estimator with a custom [`ErrorModel`] (paper §III-E).
pub fn estimate_error_with(
    program: &Program,
    func: &str,
    model: &mut dyn ErrorModel,
    opts: &EstimateOptions,
) -> Result<ErrorEstimator, ChefError> {
    let inlined = chef_passes::inline_program(program).map_err(ChefError::Inline)?;
    let primal = inlined
        .function(func)
        .ok_or_else(|| ChefError::UnknownFunction(func.to_string()))?;

    let cfg = ModuleConfig {
        attribution: true,
        array_lens: opts.array_lens.clone(),
    };
    let mut module = EstimationModule::new(model, primal, cfg);
    let rcfg = ReverseConfig {
        tbr: opts.tbr,
        ..Default::default()
    };
    let mut grad = reverse_diff_with(primal, &rcfg, &mut module).map_err(ChefError::Ad)?;
    let slots = module.slots().clone();
    let instrumented = module.instrumented;
    chef_passes::optimize_function(&mut grad, opts.opt_level);
    let compiled = chef_exec::compile::compile_default(&grad).map_err(ChefError::Compile)?;

    let mut adjoints = Vec::new();
    for (i, p) in primal.params.iter().enumerate() {
        match p.ty {
            Type::Float(_) => adjoints.push(AdjointSlot {
                name: p.name.clone(),
                primal_idx: i,
                is_array: false,
            }),
            Type::Array(chef_ir::types::ElemTy::Float(_)) => adjoints.push(AdjointSlot {
                name: p.name.clone(),
                primal_idx: i,
                is_array: true,
            }),
            _ => {}
        }
    }
    Ok(ErrorEstimator {
        grad,
        compiled,
        slots,
        adjoints,
        n_primal: primal.params.len(),
        exec: opts.exec.clone(),
        instrumented_assignments: instrumented,
    })
}

/// Convenience: parse + typecheck + [`estimate_error`] in one call.
pub fn estimate_error_src(
    src: &str,
    func: &str,
    opts: &EstimateOptions,
) -> Result<ErrorEstimator, ChefError> {
    let mut program = chef_ir::parser::parse_program(src).map_err(ChefError::Parse)?;
    chef_ir::typeck::check_program(&mut program).map_err(ChefError::Typeck)?;
    estimate_error(&program, func, opts)
}

/// Convenience: parse + typecheck + custom-model estimator.
pub fn estimate_error_src_with(
    src: &str,
    func: &str,
    model: &mut dyn ErrorModel,
    opts: &EstimateOptions,
) -> Result<ErrorEstimator, ChefError> {
    let mut program = chef_ir::parser::parse_program(src).map_err(ChefError::Parse)?;
    chef_ir::typeck::check_program(&mut program).map_err(ChefError::Typeck)?;
    estimate_error_with(&program, func, model, opts)
}

impl ErrorEstimator {
    /// The generated adjoint + error-estimation code, as readable KernelC
    /// (the equivalent of dumping Clad's generated derivative).
    pub fn generated_source(&self) -> String {
        chef_ir::printer::print_function(&self.grad)
    }

    /// The attribution slot table.
    pub fn slots(&self) -> &VarSlots {
        &self.slots
    }

    /// Executes the estimator on the primal arguments (Listing 1's
    /// `df.execute(...)`): adjoint seeds and EE outputs are appended
    /// automatically.
    pub fn execute(&self, primal_args: &[ArgValue]) -> Result<EstimateOutcome, Trap> {
        self.execute_with(primal_args, &self.exec)
    }

    /// Executes with explicit VM options (tape limits, budgets, faults).
    pub fn execute_with(
        &self,
        primal_args: &[ArgValue],
        exec: &ExecOptions,
    ) -> Result<EstimateOutcome, Trap> {
        let args = self.build_vm_args(primal_args);
        let out = chef_exec::vm::run_with(&self.compiled, args, exec)?;
        Ok(self.decode_outcome(out))
    }

    /// Executes the estimator on every argument set, in parallel across
    /// threads (each with its own reusable VM), preserving input order.
    ///
    /// This is the analysis-loop fast path: the generated code is
    /// compiled once, and independent estimates (tuner candidates, the
    /// per-option study of Table IV) fan out over the process's machine
    /// pool ([`chef_exec::vm::run_batch_parallel`]).
    pub fn execute_batch(&self, arg_sets: &[Vec<ArgValue>]) -> Vec<Result<EstimateOutcome, Trap>> {
        self.execute_batch_with(arg_sets, &self.exec, None)
    }

    /// [`ErrorEstimator::execute_batch`] with explicit VM options and an
    /// optional thread cap (`Some(1)` forces the serial machine-reuse
    /// path).
    pub fn execute_batch_with(
        &self,
        arg_sets: &[Vec<ArgValue>],
        exec: &ExecOptions,
        max_threads: Option<usize>,
    ) -> Vec<Result<EstimateOutcome, Trap>> {
        let vm_args: Vec<Vec<ArgValue>> =
            arg_sets.iter().map(|set| self.build_vm_args(set)).collect();
        chef_exec::vm::run_batch_parallel(&self.compiled, vm_args, exec, max_threads)
            .into_iter()
            .map(|r| r.map(|out| self.decode_outcome(out)))
            .collect()
    }

    /// Appends adjoint seeds and EE output slots to the primal arguments.
    fn build_vm_args(&self, primal_args: &[ArgValue]) -> Vec<ArgValue> {
        let mut args: Vec<ArgValue> = primal_args.to_vec();
        for adj in &self.adjoints {
            if adj.is_array {
                let len = primal_args[adj.primal_idx].as_farr().len();
                args.push(ArgValue::FArr(vec![0.0; len]));
            } else {
                args.push(ArgValue::F(0.0));
            }
        }
        args.push(ArgValue::F(0.0)); // _fp_error
        args.push(ArgValue::F(0.0)); // _primal_out
        args.push(ArgValue::FArr(vec![0.0; self.slots.len()])); // _var_err
        args
    }

    /// Unpacks a VM outcome into the estimate structure.
    fn decode_outcome(&self, out: chef_exec::vm::CallOutcome) -> EstimateOutcome {
        let extras_at = self.n_primal + self.adjoints.len();
        let fp_error = out.args[extras_at].as_f();
        let value = out.args[extras_at + 1].as_f();
        let table = out.args[extras_at + 2].as_farr();
        let mut per_variable = HashMap::new();
        for (slot, name) in self.slots.names.iter().enumerate() {
            per_variable.insert(name.clone(), table[slot]);
        }
        let gradient = self
            .adjoints
            .iter()
            .enumerate()
            .map(|(k, adj)| (adj.name.clone(), out.args[self.n_primal + k].clone()))
            .collect();
        EstimateOutcome {
            value,
            fp_error,
            gradient,
            per_variable,
            stats: out.stats,
        }
    }
}
