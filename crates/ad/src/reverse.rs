//! Reverse-mode (adjoint) source transformation — the Clad substrate.
//!
//! Implements the transformation of the paper's Fig. 2 with the
//! operational-semantics rules S1–S4 (§III-C): the generated function
//! contains a **forward sweep** (the primal computation, with
//! `Push(out(Li))` tape records for every to-be-restored location) and a
//! **backward sweep** (adjoint accumulation in reverse statement order,
//! restoring state with `Pop(out(Li))`).
//!
//! The extension mechanism mirrors Clad's callback system (paper §III-D):
//! an [`AdjointExtension`] can append parameters to the generated
//! signature, hoist declarations, and receives an [`AssignCtx`] for every
//! differentiable assignment — exactly the `AssignError` hook of rule S2 —
//! plus a [`FinalizeCtx`] at the end (rule S1's `FinalizeEE`). CHEF-FP's
//! error-estimation module (`chef-core`) is implemented as such an
//! extension; the AD machinery itself knows nothing about FP errors.
//!
//! Generated functions follow the Clad signature convention of Listing 1:
//! `void f_grad(<primal params>, <adjoint outs>, <extension params>)`,
//! where each float scalar parameter `x` gains `double &_d_x` and each
//! float array parameter `a` gains `double _d_a[]`.
//!
//! ## The backward form of an assignment
//!
//! The general form of `v = rhs` captures the adjoint, zeroes it,
//! restores `v` and redistributes the capture:
//!
//! ```text
//! _r = _d_v; _d_v = 0.0; pop(v); <rhs's contributions seeded with _r>
//! ```
//!
//! Array elements keep it. A scalar `v` takes one of three shorter forms
//! instead, after the extension's hook:
//!
//! | assignment | backward sweep |
//! |---|---|
//! | `v = v ± e`, `v = e + v`; `e` does not read `v` | `pop(v); <e's contributions seeded with ±_d_v>` |
//! | `v = v * c`, `v = c * v`; `c` reads no float | `pop(v); _d_v = _d_v * c` |
//! | `rhs` does not read `v` | `pop(v); <rhs's contributions seeded with _d_v>; _d_v = 0.0` |
//!
//! The third is exact: no contribution of `rhs` writes `_d_v`, so the
//! contributions read the same seed from `_d_v` as from its capture, and
//! zeroing it after them leaves the same state. The first two leave out
//! `_d_v = 0.0; _d_v += _r` (resp. `_d_v += _r * c`): `0.0 + x` equals
//! `x` except that it turns `x = −0.0` into `+0.0`, so they can differ
//! from the general form only in the sign of a zero adjoint, which the
//! error term's `|x·x̄|` does not see. `pop(v)` still comes before any
//! contribution, so each reads the value `v` had before the assignment.
//!
//! ## The backward form of a loop
//!
//! A loop runs backward in one of two forms (`Rev::xform_loop` has both
//! in full):
//!
//! * **reversible**, with TBR on, when its step (the `for` step, or the
//!   last top-level statement of a `while` body) is `v = v ± c` with `v`
//!   an `int`, `c` an odd integer literal and `v` written nowhere else in
//!   the body. The backward loop inverts the step, `while (v != entry)
//!   { v = v - c; … }`, where `entry` is the init's literal or the entry
//!   value, pushed once per loop execution. Neither the step nor a
//!   counter touches the tape. An odd step is invertible modulo 2⁶⁴, so
//!   the wrapping walk back meets the entry value after exactly the
//!   forward trip count;
//! * **counted**, otherwise and whenever TBR is off: an iteration counter
//!   `_cnt` is pushed after the loop and drives a `for` loop backward,
//!   with every step assignment pushed and popped like any other.
//!
//! ## Negated contributions and zeroed adjoints
//!
//! With TBR on, two more rules shorten the backward sweep; TBR off keeps
//! the plain emission as the baseline they are checked against.
//!
//! * A subtrahend, a negated operand and a divisor receive a negated
//!   seed. The negation stays outermost through products and quotients
//!   (`-(s * c)`, not `(-s) * c`: rounding is symmetric in sign), two
//!   negations cancel, and a negated seed `-s` ends as `x -= s` instead
//!   of `x += -s`, which IEEE defines as the same sum. Only the sign of
//!   a NaN can differ.
//! * Once the sweep is assembled, an accumulation into a local adjoint
//!   known to be `+0.0` on every path becomes a store, and a zeroing
//!   that every path overwrites before reading goes (`crate::zeroed`).
//!   Only the sign of a zero adjoint can differ.

use crate::activity::{assigned_in, is_diff, reads_of, UsageInfo};
use crate::derivatives::{min_max_select, pow_derivatives, unary_derivative};
use crate::zeroed::zeroed_adjoints;
use chef_ir::ast::*;
use chef_ir::precision;
use chef_ir::span::Span;
use chef_ir::types::{ElemTy, FloatTy, Type};
use chef_ir::visit::{walk_expr, walk_expr_mut, MutVisitor, Visitor};
use std::collections::{HashMap, HashSet};

/// Configuration of the reverse transformation.
#[derive(Clone, Debug)]
pub struct ReverseConfig {
    /// Run the to-be-recorded analysis; `false` pushes every assignment
    /// (the ablation baseline for the tape-size experiments).
    pub tbr: bool,
    /// Suffix appended to the primal name (default `_grad`).
    pub suffix: String,
}

impl Default for ReverseConfig {
    fn default() -> Self {
        ReverseConfig {
            tbr: true,
            suffix: "_grad".into(),
        }
    }
}

/// Errors the transformation can report.
#[derive(Clone, Debug, PartialEq)]
pub enum AdError {
    /// The primal must return a float scalar.
    NonFloatReturn,
    /// The primal must end with a single trailing `return expr;`.
    MissingTrailingReturn,
    /// `return` in a non-trailing position.
    EarlyReturn {
        /// Where.
        span: Span,
    },
    /// User calls must be inlined first.
    UserCall {
        /// Callee name.
        name: String,
        /// Call site.
        span: Span,
    },
    /// Local arrays must be declared at the top level of the body.
    NestedArrayDecl {
        /// Where.
        span: Span,
    },
    /// Anything else.
    Unsupported {
        /// Description.
        msg: String,
        /// Where.
        span: Span,
    },
}

impl std::fmt::Display for AdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdError::NonFloatReturn => write!(f, "function must return a float scalar"),
            AdError::MissingTrailingReturn => {
                write!(f, "function must end with `return <expr>;`")
            }
            AdError::EarlyReturn { .. } => write!(f, "early returns are not supported"),
            AdError::UserCall { name, .. } => {
                write!(f, "call to `{name}` must be inlined before differentiation")
            }
            AdError::NestedArrayDecl { .. } => {
                write!(f, "local arrays must be declared at the top level")
            }
            AdError::Unsupported { msg, .. } => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for AdError {}

/// Context handed to [`AdjointExtension::on_assign`] — one differentiable
/// assignment in the backward sweep, with everything an error model needs
/// (paper Listing 2/3: the name, the value, and its adjoint).
pub struct AssignCtx<'a> {
    /// The function being generated; use [`Function::add_var`] for fresh
    /// temporaries.
    pub grad: &'a mut Function,
    /// Statements to emit once at the top of the generated body
    /// (accumulator declarations etc.).
    pub hoisted: &'a mut Vec<Stmt>,
    /// Source-level name of the assigned variable.
    pub var_name: String,
    /// Id (in the generated function) of the assigned variable.
    pub var: VarId,
    /// Reads the just-assigned value (valid at the emission point in the
    /// backward sweep — the pop discipline guarantees the post-assignment
    /// value).
    pub value: Expr,
    /// Reads the adjoint of this assignment's result (before it is zeroed
    /// and redistributed).
    pub adjoint: Expr,
    /// Declared precision of the assigned location.
    pub target_prec: FloatTy,
    /// `true` for array-element stores.
    pub is_element: bool,
    /// `true` when the assignment sits inside at least one loop.
    pub in_loop: bool,
    /// Source span of the assignment.
    pub span: Span,
}

/// One differentiable input in [`FinalizeCtx`].
pub struct InputInfo {
    /// Parameter name.
    pub name: String,
    /// Parameter id in the generated function.
    pub var: VarId,
    /// Adjoint (gradient) parameter id in the generated function.
    pub d_var: VarId,
    /// Declared precision.
    pub prec: FloatTy,
    /// `true` for array parameters (`var`/`d_var` are arrays then).
    pub is_array: bool,
}

/// Context handed to [`AdjointExtension::on_finalize`] (rule S1's
/// `FinalizeEE`).
pub struct FinalizeCtx<'a> {
    /// The function being generated.
    pub grad: &'a mut Function,
    /// Statements hoisted to the top of the body.
    pub hoisted: &'a mut Vec<Stmt>,
    /// All differentiable inputs with their adjoints.
    pub inputs: Vec<InputInfo>,
    /// Reads the primal result value.
    pub result: Expr,
}

/// Clad-style extension: subscribes to events of the adjoint generation.
pub trait AdjointExtension {
    /// Extra parameters appended to the generated signature (e.g. the
    /// `double &_fp_error` output of CHEF-FP).
    fn extra_params(&self) -> Vec<Param> {
        Vec::new()
    }

    /// Called for every differentiable assignment during the backward
    /// sweep; returned statements are inserted *before* the adjoint of the
    /// assignment is redistributed (rule S2's `AssignError`).
    fn on_assign(&mut self, _ctx: &mut AssignCtx<'_>) -> Vec<Stmt> {
        Vec::new()
    }

    /// Called once at the end of the backward sweep (rule S1's
    /// `FinalizeEE`).
    fn on_finalize(&mut self, _ctx: &mut FinalizeCtx<'_>) -> Vec<Stmt> {
        Vec::new()
    }
}

/// The do-nothing extension: plain gradient generation.
pub struct NoExtension;

impl AdjointExtension for NoExtension {}

/// Differentiates `primal` in reverse mode with default configuration and
/// no extension.
pub fn reverse_diff(primal: &Function) -> Result<Function, AdError> {
    reverse_diff_with(primal, &ReverseConfig::default(), &mut NoExtension)
}

/// Differentiates `primal` in reverse mode.
///
/// The primal must be checked, inlined (no user calls), return a float
/// scalar, and end with a single trailing `return`.
pub fn reverse_diff_with(
    primal: &Function,
    cfg: &ReverseConfig,
    ext: &mut dyn AdjointExtension,
) -> Result<Function, AdError> {
    // ---- validation ----
    if !matches!(primal.ret, Type::Float(_)) {
        return Err(AdError::NonFloatReturn);
    }
    validate_no_user_calls(&primal.body)?;
    let Some(Stmt {
        kind: StmtKind::Return(Some(ret_expr)),
        ..
    }) = primal.body.stmts.last()
    else {
        return Err(AdError::MissingTrailingReturn);
    };
    for s in &primal.body.stmts[..primal.body.stmts.len() - 1] {
        if let Some(span) = find_return(s) {
            return Err(AdError::EarlyReturn { span });
        }
    }

    // ---- build the shell ----
    let mut grad = Function {
        name: format!("{}{}", primal.name, cfg.suffix),
        params: Vec::new(),
        ret: Type::Void,
        body: Block::empty(),
        span: Span::DUMMY,
        vars: Vec::new(),
    };
    let mut used_names: HashSet<String> = primal.vars.iter().map(|v| v.name.clone()).collect();
    let mut fresh_name = move |base: String| -> String {
        if used_names.insert(base.clone()) {
            return base;
        }
        for k in 1.. {
            let cand = format!("{base}@{k}");
            if used_names.insert(cand.clone()) {
                return cand;
            }
        }
        unreachable!()
    };

    // Original parameters keep their ids 0..n.
    let mut primal_map: Vec<VarId> = Vec::with_capacity(primal.vars.len());
    for p in &primal.params {
        let id = grad.add_var(p.name.clone(), p.ty);
        grad.vars[id.index()].is_param = true;
        grad.params.push(Param {
            name: p.name.clone(),
            id: Some(id),
            ..p.clone()
        });
        primal_map.push(id);
    }
    // Adjoint parameters for differentiable inputs.
    let mut adjoint_of: HashMap<VarId, AdjTarget> = HashMap::new();
    let mut inputs: Vec<InputInfo> = Vec::new();
    for (i, p) in primal.params.iter().enumerate() {
        match p.ty {
            Type::Float(ft) => {
                let name = fresh_name(format!("_d_{}", p.name));
                let id = grad.add_var(name.clone(), Type::Float(FloatTy::F64));
                grad.vars[id.index()].is_param = true;
                grad.params
                    .push(Param::by_ref(name.clone(), Type::Float(FloatTy::F64)));
                grad.params.last_mut().unwrap().id = Some(id);
                adjoint_of.insert(primal_map[i], AdjTarget::Scalar(id, name.clone()));
                inputs.push(InputInfo {
                    name: p.name.clone(),
                    var: primal_map[i],
                    d_var: id,
                    prec: ft,
                    is_array: false,
                });
            }
            Type::Array(ElemTy::Float(ft)) => {
                let name = fresh_name(format!("_d_{}", p.name));
                let id = grad.add_var(name.clone(), Type::Array(ElemTy::Float(FloatTy::F64)));
                grad.vars[id.index()].is_param = true;
                grad.params
                    .push(Param::array(name.clone(), ElemTy::Float(FloatTy::F64)));
                grad.params.last_mut().unwrap().id = Some(id);
                adjoint_of.insert(primal_map[i], AdjTarget::Array(id, name.clone()));
                inputs.push(InputInfo {
                    name: p.name.clone(),
                    var: primal_map[i],
                    d_var: id,
                    prec: ft,
                    is_array: true,
                });
            }
            _ => {}
        }
    }
    // Extension parameters.
    for mut p in ext.extra_params() {
        let name = fresh_name(p.name.clone());
        let id = grad.add_var(name.clone(), p.ty);
        grad.vars[id.index()].is_param = true;
        p.name = name;
        p.id = Some(id);
        grad.params.push(p);
    }
    // Primal locals become locals of the gradient (hoisted), plus adjoint
    // shadows for differentiable ones.
    let mut hoisted: Vec<Stmt> = Vec::new();
    let mut local_adjoints: HashSet<VarId> = HashSet::new();
    let mut local_array_sizes: HashMap<VarId, ()> = HashMap::new();
    for (vid, info) in primal.vars_iter() {
        if info.is_param {
            continue;
        }
        let id = grad.add_var(info.name.clone(), info.ty);
        primal_map.push(id);
        debug_assert_eq!(primal_map.len() - 1, vid.index());
        match info.ty {
            Type::Float(_) | Type::Int | Type::Bool => {
                hoisted.push(decl_stmt(&grad, id, None));
            }
            Type::Array(_) => {
                // Allocated at its original (top-level) site in the
                // forward sweep.
                local_array_sizes.insert(id, ());
            }
            Type::Void => unreachable!(),
        }
        if is_diff(info.ty) {
            let name = fresh_name(format!("_d_{}", info.name));
            match info.ty {
                Type::Float(_) => {
                    let did = grad.add_var(name.clone(), Type::Float(FloatTy::F64));
                    hoisted.push(decl_stmt_init(&grad, did, Expr::flit(0.0)));
                    local_adjoints.insert(did);
                    adjoint_of.insert(id, AdjTarget::Scalar(did, name));
                }
                Type::Array(_) => {
                    let did = grad.add_var(name.clone(), Type::Array(ElemTy::Float(FloatTy::F64)));
                    adjoint_of.insert(id, AdjTarget::Array(did, name));
                }
                _ => unreachable!(),
            }
        }
    }

    // ---- prepare the remapped, canonicalized body ----
    let mut body = primal.body.clone();
    body.stmts.pop(); // the trailing return (validated above)
    let mut ret_expr = ret_expr.clone();
    let mut remap = Remap {
        map: &primal_map,
        grad: &grad,
    };
    for s in &mut body.stmts {
        remap.visit_stmt_mut(s);
    }
    remap.visit_expr_mut(&mut ret_expr);
    canonicalize_block(&mut body);

    let usage = UsageInfo::analyze(&body);

    // ---- transform ----
    let mut rev = Rev {
        grad,
        usage,
        cfg,
        ext,
        adjoint_of,
        hoisted,
        fresh: 0,
        loop_depth: 0,
        top_level: true,
    };
    let (fwd, bwd) = rev.xform_block(&body)?;

    // Seed and return handling.
    let ret_name = {
        let f = |b: String| {
            // fresh name against grad's current var table
            let mut k = 0usize;
            loop {
                let cand = if k == 0 {
                    b.clone()
                } else {
                    format!("{b}@{k}")
                };
                if !rev.grad.vars.iter().any(|v| v.name == cand) {
                    return cand;
                }
                k += 1;
            }
        };
        f("_result".to_string())
    };
    let ret_id = rev
        .grad
        .add_var(ret_name.clone(), Type::Float(FloatTy::F64));
    let seed_name = {
        let mut k = 0usize;
        loop {
            let cand = if k == 0 {
                "_d_result".to_string()
            } else {
                format!("_d_result@{k}")
            };
            if !rev.grad.vars.iter().any(|v| v.name == cand) {
                break cand;
            }
            k += 1;
        }
    };
    let seed_id = rev
        .grad
        .add_var(seed_name.clone(), Type::Float(FloatTy::F64));

    let tail_fwd: Vec<Stmt> = vec![
        decl_stmt_init_named(ret_id, &ret_name, ret_expr.clone()),
        decl_stmt_init_named(seed_id, &seed_name, Expr::flit(1.0)),
    ];

    let mut head_bwd: Vec<Stmt> = Vec::new();
    // The return is itself an assignment (`_result = e`): give the
    // extension its AssignError hook unless it is a plain variable copy
    // (no new rounding happens on an exact copy at equal-or-wider
    // precision).
    let seed_read = Expr::var(&seed_name, seed_id, Type::Float(FloatTy::F64));
    let is_plain_copy = matches!(ret_expr.kind, ExprKind::Var(_));
    if !is_plain_copy {
        let ret_prec = match primal.ret {
            Type::Float(ft) => ft,
            _ => FloatTy::F64,
        };
        let mut ctx = AssignCtx {
            grad: &mut rev.grad,
            hoisted: &mut rev.hoisted,
            var_name: ret_name.clone(),
            var: ret_id,
            value: Expr::var(&ret_name, ret_id, Type::Float(FloatTy::F64)),
            adjoint: seed_read.clone(),
            target_prec: ret_prec,
            is_element: false,
            in_loop: false,
            span: Span::DUMMY,
        };
        head_bwd.extend(rev.ext.on_assign(&mut ctx));
    }
    rev.rev_expr(&ret_expr, seed_read, &mut head_bwd)?;

    // Finalize (rule S1).
    let mut fin_stmts = {
        let mut ctx = FinalizeCtx {
            grad: &mut rev.grad,
            hoisted: &mut rev.hoisted,
            inputs,
            result: Expr::var(&ret_name, ret_id, Type::Float(FloatTy::F64)),
        };
        rev.ext.on_finalize(&mut ctx)
    };

    // ---- assemble ----
    let mut stmts = Vec::new();
    stmts.append(&mut rev.hoisted);
    stmts.extend(fwd);
    stmts.extend(tail_fwd);
    stmts.extend(head_bwd);
    stmts.extend(bwd);
    stmts.append(&mut fin_stmts);
    if cfg.tbr {
        zeroed_adjoints(&mut stmts, &local_adjoints);
    }
    let mut grad = rev.grad;
    grad.body = Block::of(stmts);
    Ok(grad)
}

/// Where a variable's adjoint lives.
#[derive(Clone, Debug)]
enum AdjTarget {
    Scalar(VarId, Symbol),
    Array(VarId, Symbol),
}

fn decl_stmt(grad: &Function, id: VarId, init: Option<Expr>) -> Stmt {
    let info = grad.var(id);
    Stmt::synth(StmtKind::Decl {
        name: info.name.clone(),
        id: Some(id),
        ty: info.ty,
        size: None,
        init,
    })
}

fn decl_stmt_init(grad: &Function, id: VarId, init: Expr) -> Stmt {
    decl_stmt(grad, id, Some(init))
}

fn decl_stmt_init_named(id: VarId, name: &str, init: Expr) -> Stmt {
    Stmt::synth(StmtKind::Decl {
        name: name.to_string(),
        id: Some(id),
        ty: Type::Float(FloatTy::F64),
        size: None,
        init: Some(init),
    })
}

fn validate_no_user_calls(b: &Block) -> Result<(), AdError> {
    struct V(Option<(String, Span)>);
    impl Visitor for V {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Call {
                callee: Callee::Func(n),
                ..
            } = &e.kind
            {
                if self.0.is_none() {
                    self.0 = Some((n.clone(), e.span));
                }
            }
            walk_expr(self, e);
        }
    }
    let mut v = V(None);
    v.visit_block(b);
    match v.0 {
        Some((name, span)) => Err(AdError::UserCall { name, span }),
        None => Ok(()),
    }
}

fn find_return(s: &Stmt) -> Option<Span> {
    struct V(Option<Span>);
    impl Visitor for V {
        fn visit_stmt(&mut self, s: &Stmt) {
            if matches!(s.kind, StmtKind::Return(_)) && self.0.is_none() {
                self.0 = Some(s.span);
            }
            chef_ir::visit::walk_stmt(self, s);
        }
    }
    let mut v = V(None);
    v.visit_stmt(s);
    v.0
}

/// Rewrites primal [`VarId`]s into the gradient function's ids.
struct Remap<'a> {
    map: &'a [VarId],
    grad: &'a Function,
}

impl Remap<'_> {
    fn remap_ref(&self, v: &mut VarRef) {
        if let Some(id) = v.id {
            let nid = self.map[id.index()];
            v.id = Some(nid);
            v.name = self.grad.var(nid).name.clone();
        }
    }
}

impl MutVisitor for Remap<'_> {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        match &mut e.kind {
            ExprKind::Var(v) => self.remap_ref(v),
            ExprKind::Index { base, index } => {
                self.remap_ref(base);
                self.visit_expr_mut(index);
            }
            _ => walk_expr_mut(self, e),
        }
    }

    fn visit_lvalue_mut(&mut self, lv: &mut LValue) {
        match lv {
            LValue::Var(v) => self.remap_ref(v),
            LValue::Index { base, index } => {
                self.remap_ref(base);
                self.visit_expr_mut(index);
            }
        }
    }

    fn visit_stmt_mut(&mut self, s: &mut Stmt) {
        if let StmtKind::Decl {
            id: Some(id), name, ..
        } = &mut s.kind
        {
            let nid = self.map[id.index()];
            *id = nid;
            *name = self.grad.var(nid).name.clone();
        }
        chef_ir::visit::walk_stmt_mut(self, s);
    }
}

/// Rewrites compound assignments `v op= e` into `v = v op (e)` so the
/// transformation only sees plain assignments.
pub(crate) fn canonicalize_block(b: &mut Block) {
    struct C;
    impl MutVisitor for C {
        fn visit_stmt_mut(&mut self, s: &mut Stmt) {
            chef_ir::visit::walk_stmt_mut(self, s);
            if let StmtKind::Assign { lhs, op, rhs } = &mut s.kind {
                if let Some(bop) = op.binop() {
                    let lty = rhs
                        .ty
                        .and_then(|rty| lhs_type(lhs).and_then(|l| precision::arith(l, rty)))
                        .or_else(|| lhs_type(lhs));
                    let read = lhs.to_expr(lhs_type(lhs).unwrap_or(Type::Float(FloatTy::F64)));
                    let mut new_rhs = Expr::new(
                        ExprKind::Binary {
                            op: bop,
                            lhs: Box::new(read),
                            rhs: Box::new(rhs.clone()),
                        },
                        rhs.span,
                    );
                    new_rhs.ty = lty;
                    *op = AssignOp::Assign;
                    *rhs = new_rhs;
                }
            }
        }
    }
    fn lhs_type(lv: &LValue) -> Option<Type> {
        // The lvalue type is recoverable from the stored expression types
        // only indirectly; the remapped refs carry no type. We rely on the
        // rhs/promotion fallback above; reading with F64 is sound for the
        // adjoint math (values are exact reads).
        match lv {
            LValue::Var(_) | LValue::Index { .. } => None,
        }
    }
    C.visit_block_mut(b);
}

struct Rev<'a> {
    grad: Function,
    usage: UsageInfo,
    cfg: &'a ReverseConfig,
    ext: &'a mut dyn AdjointExtension,
    adjoint_of: HashMap<VarId, AdjTarget>,
    hoisted: Vec<Stmt>,
    fresh: usize,
    loop_depth: usize,
    top_level: bool,
}

impl Rev<'_> {
    fn fresh_local(&mut self, base: &str, ty: Type) -> (VarId, String) {
        let name = format!("{base}{}", self.fresh);
        self.fresh += 1;
        let id = self.grad.add_var(name.clone(), ty);
        (id, name)
    }

    fn adjoint_lvalue(&self, lhs: &LValue) -> Option<LValue> {
        let base = lhs.var().id?;
        match (self.adjoint_of.get(&base)?, lhs) {
            (AdjTarget::Scalar(id, name), LValue::Var(_)) => {
                Some(LValue::Var(VarRef::resolved(name.clone(), *id)))
            }
            (AdjTarget::Array(id, name), LValue::Index { index, .. }) => Some(LValue::Index {
                base: VarRef::resolved(name.clone(), *id),
                index: index.clone(),
            }),
            _ => None,
        }
    }

    fn var_type(&self, id: VarId) -> Type {
        self.grad.var(id).ty
    }

    fn lhs_scalar_type(&self, lhs: &LValue) -> Type {
        match lhs {
            LValue::Var(v) => self.var_type(v.vid()),
            LValue::Index { base, .. } => match self.var_type(base.vid()) {
                Type::Array(ElemTy::Float(ft)) => Type::Float(ft),
                Type::Array(ElemTy::Int) => Type::Int,
                other => other,
            },
        }
    }

    fn xform_block(&mut self, b: &Block) -> Result<(Vec<Stmt>, Vec<Stmt>), AdError> {
        let mut fwd = Vec::new();
        let mut per_stmt_bwd: Vec<Vec<Stmt>> = Vec::new();
        for s in &b.stmts {
            let (f, bw) = self.xform_stmt(s)?;
            fwd.extend(f);
            per_stmt_bwd.push(bw);
        }
        let mut bwd = Vec::new();
        for bw in per_stmt_bwd.into_iter().rev() {
            bwd.extend(bw);
        }
        Ok((fwd, bwd))
    }

    fn xform_stmt(&mut self, s: &Stmt) -> Result<(Vec<Stmt>, Vec<Stmt>), AdError> {
        match &s.kind {
            StmtKind::Decl {
                id,
                size: Some(size),
                ty,
                name,
                ..
            } => {
                if !self.top_level || self.loop_depth > 0 {
                    return Err(AdError::NestedArrayDecl { span: s.span });
                }
                let id = id.expect("remapped");
                let mut fwd = vec![Stmt::synth(StmtKind::Decl {
                    name: name.clone(),
                    id: Some(id),
                    ty: *ty,
                    size: Some(size.clone()),
                    init: None,
                })];
                if let Some(AdjTarget::Array(did, dname)) = self.adjoint_of.get(&id).cloned() {
                    fwd.push(Stmt::synth(StmtKind::Decl {
                        name: dname,
                        id: Some(did),
                        ty: Type::Array(ElemTy::Float(FloatTy::F64)),
                        size: Some(size.clone()),
                        init: None,
                    }));
                }
                Ok((fwd, vec![]))
            }
            StmtKind::Decl { id, init, .. } => {
                // Scalar decl: the variable is hoisted; an initializer
                // becomes a plain assignment.
                match init {
                    Some(e) => {
                        let id = id.expect("remapped");
                        let lhs = LValue::Var(VarRef::resolved(self.grad.var(id).name.clone(), id));
                        self.xform_assign(&lhs, e, s.span)
                    }
                    None => Ok((vec![], vec![])),
                }
            }
            StmtKind::Assign { lhs, op, rhs } => {
                debug_assert_eq!(*op, AssignOp::Assign, "canonicalized");
                self.xform_assign(lhs, rhs, s.span)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let (cid, cname) = self.fresh_local("_cond", Type::Bool);
                self.hoisted.push(decl_stmt(&self.grad, cid, None));
                let saved_top = self.top_level;
                self.top_level = false;
                let (tf, tb) = self.xform_block(then_branch)?;
                let (ef, eb) = match else_branch {
                    Some(eb) => self.xform_block(eb)?,
                    None => (vec![], vec![]),
                };
                self.top_level = saved_top;
                let cvar = |ty| Expr::var(&cname, cid, ty);
                // The condition is pushed *after* the taken branch has
                // executed so it sits above the branch body's own pushes —
                // the backward sweep must pop it first to know which
                // branch to unwind (LIFO discipline of Fig. 2).
                let fwd = vec![
                    Stmt::synth(StmtKind::Assign {
                        lhs: LValue::Var(VarRef::resolved(cname.clone(), cid)),
                        op: AssignOp::Assign,
                        rhs: cond.clone(),
                    }),
                    Stmt::synth(StmtKind::If {
                        cond: cvar(Type::Bool),
                        then_branch: Block::of(tf),
                        else_branch: Some(Block::of(ef)),
                    }),
                    Stmt::synth(StmtKind::TapePush(cvar(Type::Bool))),
                ];
                let bwd = vec![
                    Stmt::synth(StmtKind::TapePop(LValue::Var(VarRef::resolved(
                        cname.clone(),
                        cid,
                    )))),
                    Stmt::synth(StmtKind::If {
                        cond: cvar(Type::Bool),
                        then_branch: Block::of(tb),
                        else_branch: Some(Block::of(eb)),
                    }),
                ];
                Ok((fwd, bwd))
            }
            StmtKind::While { cond, body } => {
                self.xform_loop(None, cond.clone(), None, body, s.span)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let cond = cond
                    .clone()
                    .unwrap_or_else(|| Expr::typed(ExprKind::BoolLit(true), Type::Bool));
                self.xform_loop(init.as_deref(), cond, step.as_deref(), body, s.span)
            }
            StmtKind::Block(b) => {
                let saved_top = self.top_level;
                self.top_level = false;
                let r = self.xform_block(b);
                self.top_level = saved_top;
                r
            }
            StmtKind::ExprStmt(e) => {
                // Pure expression statement: keep in the forward sweep for
                // fidelity; contributes nothing to the adjoint.
                Ok((vec![Stmt::synth(StmtKind::ExprStmt(e.clone()))], vec![]))
            }
            StmtKind::Return(_) => Err(AdError::EarlyReturn { span: s.span }),
            StmtKind::TapePush(_) | StmtKind::TapePop(_) => Err(AdError::Unsupported {
                msg: "tape ops in primal".into(),
                span: s.span,
            }),
        }
    }

    /// Transforms a loop into one of two forms.
    ///
    /// **Reversible** — when `tbr` is on and the step (the `for` step, or
    /// the last top-level statement of a `while` body) is an induction
    /// step `v = v ± c` with `v` an `int`, `c` an odd integer literal and
    /// `v` written nowhere else in the body (see [`Rev::induction`]), the
    /// backward sweep runs the loop backward by inverting the step:
    ///
    /// ```text
    /// fwd:  fwd(init); _e = v;
    ///       while (cond) { fwd(body); v = v + c; }
    ///       __tape_push(_e);
    /// bwd:  __tape_pop(_e);
    ///       while (v != _e) { v = v - c; bwd(body) }
    ///       bwd(init);
    /// ```
    ///
    /// An `init` that sets `v` to an integer literal `L` leaves out `_e`,
    /// its push and its pop, and the backward test reads `v != L`.
    /// Neither the step nor an iteration counter touches the tape.
    ///
    /// *Sound:* `v` is assigned in a loop, so TBR pushes every other
    /// write to `v` (`UsageInfo::needs_push`), and the backward sweep pops
    /// all of them that follow the loop before it reaches the loop: `v`
    /// holds its forward exit value `e + k·c` (wrapping) when the backward
    /// loop starts, after `k` iterations from entry value `e`. Each
    /// backward iteration first restores the value `v` had in the body of
    /// that forward iteration.
    ///
    /// *Exact count:* the backward loop stops at the first `j` with
    /// `(k − j)·c ≡ 0 (mod 2⁶⁴)`. An odd `c` is a unit modulo 2⁶⁴, so that
    /// is `j = k` for every trip count the forward loop can run.
    ///
    /// **Counted** — every other loop, and every loop when `tbr` is off
    /// (the ablation baseline):
    ///
    /// ```text
    /// fwd:  fwd(init); _cnt = 0;
    ///       while (cond) { fwd(body); fwd(step); _cnt = _cnt + 1; }
    ///       __tape_push(_cnt);
    /// bwd:  __tape_pop(_cnt);
    ///       for (_j = 0; _j < _cnt; _j = _j + 1) { bwd(step); bwd(body) }
    ///       bwd(init);
    /// ```
    ///
    /// Per-iteration state (including induction variables) is restored by
    /// the ordinary push/pop discipline of the body/step assignments —
    /// assignments inside loops always record (see `UsageInfo`).
    fn xform_loop(
        &mut self,
        init: Option<&Stmt>,
        cond: Expr,
        step: Option<&Stmt>,
        body: &Block,
        _span: Span,
    ) -> Result<(Vec<Stmt>, Vec<Stmt>), AdError> {
        // A `while` body's last top-level statement may be its step.
        let rest;
        let (step, body, induction) = match (step, body.stmts.split_last()) {
            (Some(st), _) => (Some(st), body, self.induction(st, &body.stmts)),
            (None, Some((last, others))) => match self.induction(last, others) {
                Some(ind) => {
                    rest = Block {
                        stmts: others.to_vec(),
                        span: body.span,
                    };
                    (Some(last), &rest, Some(ind))
                }
                None => (None, body, None),
            },
            (None, None) => (None, body, None),
        };
        let (init_fwd, init_bwd) = match init {
            Some(i) => self.xform_stmt(i)?,
            None => (vec![], vec![]),
        };
        self.loop_depth += 1;
        let saved_top = self.top_level;
        self.top_level = false;
        let (mut body_fwd, body_bwd) = self.xform_block(body)?;
        let (step_fwd, step_bwd) = match (step, &induction) {
            (Some(st), Some(ind)) => (vec![st.clone()], vec![ind.inverse()]),
            (Some(st), None) => self.xform_stmt(st)?,
            (None, _) => (vec![], vec![]),
        };
        self.top_level = saved_top;
        self.loop_depth -= 1;
        body_fwd.extend(step_fwd);
        let mut rev_body = step_bwd;
        rev_body.extend(body_bwd);

        if let Some(ind) = induction {
            let v_rd = ind.read();
            let mut fwd = init_fwd;
            // The entry value: the init's literal, or `_e`, saved on entry
            // and taped after the loop.
            let (entry, saved) = match init.and_then(|i| literal_init(i, ind.var)) {
                Some(lit) => (Expr::ilit(lit), None),
                None => {
                    let (e_id, e_name) = self.fresh_local("_e", Type::Int);
                    self.hoisted.push(decl_stmt(&self.grad, e_id, None));
                    let e_lv = LValue::Var(VarRef::resolved(e_name.clone(), e_id));
                    fwd.push(Stmt::synth(StmtKind::Assign {
                        lhs: e_lv.clone(),
                        op: AssignOp::Assign,
                        rhs: v_rd.clone(),
                    }));
                    (Expr::var(&e_name, e_id, Type::Int), Some(e_lv))
                }
            };
            fwd.push(Stmt::synth(StmtKind::While {
                cond,
                body: Block::of(body_fwd),
            }));
            let mut bwd = Vec::new();
            if let Some(e_lv) = saved {
                fwd.push(Stmt::synth(StmtKind::TapePush(e_lv.to_expr(Type::Int))));
                bwd.push(Stmt::synth(StmtKind::TapePop(e_lv)));
            }
            bwd.push(Stmt::synth(StmtKind::While {
                cond: Expr::binary(BinOp::Ne, v_rd, entry),
                body: Block::of(rev_body),
            }));
            bwd.extend(init_bwd);
            return Ok((fwd, bwd));
        }

        let (cnt_id, cnt_name) = self.fresh_local("_cnt", Type::Int);
        self.hoisted.push(decl_stmt(&self.grad, cnt_id, None));
        let cnt_lv = || LValue::Var(VarRef::resolved(cnt_name.clone(), cnt_id));
        let cnt_rd = || Expr::var(&cnt_name, cnt_id, Type::Int);

        body_fwd.push(Stmt::synth(StmtKind::Assign {
            lhs: cnt_lv(),
            op: AssignOp::Assign,
            rhs: Expr::add(cnt_rd(), Expr::ilit(1)),
        }));

        let mut fwd = init_fwd;
        fwd.push(Stmt::synth(StmtKind::Assign {
            lhs: cnt_lv(),
            op: AssignOp::Assign,
            rhs: Expr::ilit(0),
        }));
        fwd.push(Stmt::synth(StmtKind::While {
            cond,
            body: Block::of(body_fwd),
        }));
        fwd.push(Stmt::synth(StmtKind::TapePush(cnt_rd())));

        let (j_id, j_name) = self.fresh_local("_j", Type::Int);
        let j_rd = || Expr::var(&j_name, j_id, Type::Int);
        let mut bwd = vec![Stmt::synth(StmtKind::TapePop(cnt_lv()))];
        bwd.push(Stmt::synth(StmtKind::For {
            init: Some(Box::new(Stmt::synth(StmtKind::Decl {
                name: j_name.clone(),
                id: Some(j_id),
                ty: Type::Int,
                size: None,
                init: Some(Expr::ilit(0)),
            }))),
            cond: Some(Expr::binary(BinOp::Lt, j_rd(), cnt_rd())),
            step: Some(Box::new(Stmt::synth(StmtKind::Assign {
                lhs: LValue::Var(VarRef::resolved(j_name.clone(), j_id)),
                op: AssignOp::Assign,
                rhs: Expr::add(j_rd(), Expr::ilit(1)),
            }))),
            body: Block::of(rev_body),
        }));
        bwd.extend(init_bwd);
        Ok((fwd, bwd))
    }

    /// The induction step `step` is, if the loop can run backward by
    /// inverting it: `tbr` is on, `step` is `v = v ± c` or `v = c + v`
    /// with `v` an `int` and `c` an odd integer literal, and no statement
    /// of `body` writes `v`.
    fn induction(&self, step: &Stmt, body: &[Stmt]) -> Option<Induction> {
        if !self.cfg.tbr {
            return None;
        }
        let StmtKind::Assign {
            lhs: LValue::Var(v),
            op: AssignOp::Assign,
            rhs,
        } = &step.kind
        else {
            return None;
        };
        let id = v.id?;
        if self.var_type(id) != Type::Int {
            return None;
        }
        let ExprKind::Binary { op, lhs, rhs } = &rhs.kind else {
            return None;
        };
        let is_v = |e: &Expr| matches!(&e.kind, ExprKind::Var(r) if r.id == Some(id));
        let step = match op {
            BinOp::Add if is_v(lhs) => int_literal(rhs)?,
            BinOp::Add if is_v(rhs) => int_literal(lhs)?,
            BinOp::Sub if is_v(lhs) => int_literal(rhs)?.wrapping_neg(),
            _ => return None,
        };
        (step % 2 != 0 && !assigned_in(body).contains(&id)).then(|| Induction {
            var: id,
            name: v.name.clone(),
            step,
        })
    }
    fn xform_assign(
        &mut self,
        lhs: &LValue,
        rhs: &Expr,
        span: Span,
    ) -> Result<(Vec<Stmt>, Vec<Stmt>), AdError> {
        let target = lhs.var().vid();
        let lhs_ty = self.lhs_scalar_type(lhs);
        let mut self_reads = reads_of(rhs);
        if let LValue::Index { index, .. } = lhs {
            self_reads.extend(reads_of(index));
        }
        let reads_self = self_reads.contains(&target) || matches!(lhs, LValue::Index { .. });
        let needs_push = if self.cfg.tbr {
            self.usage
                .needs_push(target, reads_self, self.loop_depth > 0)
        } else {
            true
        };

        let mut fwd = Vec::new();
        if needs_push {
            fwd.push(Stmt::synth(StmtKind::TapePush(lhs.to_expr(lhs_ty))));
        }
        fwd.push(Stmt::synth(StmtKind::Assign {
            lhs: lhs.clone(),
            op: AssignOp::Assign,
            rhs: rhs.clone(),
        }));

        let mut bwd = Vec::new();
        let diff = is_diff(lhs_ty) && self.adjoint_lvalue(lhs).is_some();
        if diff {
            let adj_lv = self.adjoint_lvalue(lhs).expect("checked above");
            let adj_read = adj_lv.to_expr(Type::Float(FloatTy::F64));
            // (a) extension hook — sees the post-assignment value and the
            //     un-redistributed adjoint.
            let prec = match lhs_ty {
                Type::Float(ft) => ft,
                _ => FloatTy::F64,
            };
            let mut ctx = AssignCtx {
                grad: &mut self.grad,
                hoisted: &mut self.hoisted,
                var_name: lhs.var().name.clone(),
                var: target,
                value: lhs.to_expr(lhs_ty),
                adjoint: adj_read.clone(),
                target_prec: prec,
                is_element: matches!(lhs, LValue::Index { .. }),
                in_loop: self.loop_depth > 0,
                span,
            };
            bwd.extend(self.ext.on_assign(&mut ctx));
            if let LValue::Var(_) = lhs {
                if let Some(fold) = fold_scalar_update(rhs, target, &self.grad) {
                    // (c) restore, then (d) without capturing and zeroing.
                    if needs_push {
                        bwd.push(Stmt::synth(StmtKind::TapePop(lhs.clone())));
                    }
                    match fold {
                        Fold::Keep { rest, negated } => {
                            let seed = if negated {
                                self.negate(adj_read)
                            } else {
                                adj_read
                            };
                            self.rev_expr(rest, seed, &mut bwd)?;
                        }
                        Fold::Scale(c) => bwd.push(Stmt::synth(StmtKind::Assign {
                            lhs: adj_lv,
                            op: AssignOp::Assign,
                            rhs: Expr::mul(adj_read, c.clone()),
                        })),
                        Fold::Reset => {
                            self.rev_expr(rhs, adj_read, &mut bwd)?;
                            bwd.push(Stmt::synth(StmtKind::Assign {
                                lhs: adj_lv,
                                op: AssignOp::Assign,
                                rhs: Expr::flit(0.0),
                            }));
                        }
                    }
                    return Ok((fwd, bwd));
                }
            }
            // (b) capture and reset the adjoint.
            let (t_id, t_name) = self.fresh_local("_r", Type::Float(FloatTy::F64));
            self.hoisted.push(decl_stmt(&self.grad, t_id, None));
            bwd.push(Stmt::synth(StmtKind::Assign {
                lhs: LValue::Var(VarRef::resolved(t_name.clone(), t_id)),
                op: AssignOp::Assign,
                rhs: adj_read,
            }));
            bwd.push(Stmt::synth(StmtKind::Assign {
                lhs: adj_lv,
                op: AssignOp::Assign,
                rhs: Expr::flit(0.0),
            }));
            // (c) restore the overwritten value.
            if needs_push {
                bwd.push(Stmt::synth(StmtKind::TapePop(lhs.clone())));
            }
            // (d) redistribute.
            let seed = Expr::var(&t_name, t_id, Type::Float(FloatTy::F64));
            self.rev_expr(rhs, seed, &mut bwd)?;
        } else if needs_push {
            bwd.push(Stmt::synth(StmtKind::TapePop(lhs.clone())));
        }
        Ok((fwd, bwd))
    }

    /// Emits adjoint updates for every differentiable read in `e`, seeded
    /// with `seed` (rule S2's `Expr` derivative emission).
    fn rev_expr(&mut self, e: &Expr, seed: Expr, out: &mut Vec<Stmt>) -> Result<(), AdError> {
        if !has_diff_reads(e, &self.grad) {
            return Ok(());
        }
        match &e.kind {
            ExprKind::FloatLit(_) | ExprKind::IntLit(_) | ExprKind::BoolLit(_) => Ok(()),
            ExprKind::Var(v) => {
                if let Some(AdjTarget::Scalar(id, name)) = self.adjoint_of.get(&v.vid()).cloned() {
                    out.push(self.accumulate(LValue::Var(VarRef::resolved(name, id)), seed));
                }
                Ok(())
            }
            ExprKind::Index { base, index } => {
                if let Some(AdjTarget::Array(id, name)) = self.adjoint_of.get(&base.vid()).cloned()
                {
                    let lhs = LValue::Index {
                        base: VarRef::resolved(name, id),
                        index: (**index).clone(),
                    };
                    out.push(self.accumulate(lhs, seed));
                }
                Ok(())
            }
            ExprKind::Unary {
                op: UnOp::Neg,
                operand,
            } => self.rev_expr(operand, self.negate(seed), out),
            ExprKind::Unary { op: UnOp::Not, .. } => Ok(()),
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::Add => {
                    self.rev_expr(lhs, seed.clone(), out)?;
                    self.rev_expr(rhs, seed, out)
                }
                BinOp::Sub => {
                    self.rev_expr(lhs, seed.clone(), out)?;
                    self.rev_expr(rhs, self.negate(seed), out)
                }
                BinOp::Mul => {
                    if has_diff_reads(lhs, &self.grad) {
                        let s = self.scale(seed.clone(), |s| Expr::mul(s, (**rhs).clone()));
                        self.rev_expr(lhs, s, out)?;
                    }
                    if has_diff_reads(rhs, &self.grad) {
                        self.rev_expr(
                            rhs,
                            self.scale(seed, |s| Expr::mul(s, (**lhs).clone())),
                            out,
                        )?;
                    }
                    Ok(())
                }
                BinOp::Div => {
                    if has_diff_reads(lhs, &self.grad) {
                        let s = self.scale(seed.clone(), |s| Expr::div(s, (**rhs).clone()));
                        self.rev_expr(lhs, s, out)?;
                    }
                    if has_diff_reads(rhs, &self.grad) {
                        // d/db (a/b) = -a/b²
                        let b2 = Expr::mul((**rhs).clone(), (**rhs).clone());
                        let s = self.scale(seed, |s| Expr::div(Expr::mul(s, (**lhs).clone()), b2));
                        self.rev_expr(rhs, self.negate(s), out)?;
                    }
                    Ok(())
                }
                // Comparisons/logic yield no float flow.
                _ => Ok(()),
            },
            ExprKind::Call {
                callee: Callee::Intrinsic(i),
                args,
            } => {
                match i {
                    Intrinsic::Fabs => {
                        // Branch on sign (a.e. derivative ±1).
                        let a = &args[0];
                        let mut pos = Vec::new();
                        self.rev_expr(a, seed.clone(), &mut pos)?;
                        let mut neg = Vec::new();
                        self.rev_expr(a, self.negate(seed), &mut neg)?;
                        out.push(Stmt::synth(StmtKind::If {
                            cond: Expr::binary(BinOp::Ge, a.clone(), Expr::flit(0.0)),
                            then_branch: Block::of(pos),
                            else_branch: Some(Block::of(neg)),
                        }));
                        Ok(())
                    }
                    Intrinsic::Fmin | Intrinsic::Fmax => {
                        let (a, b) = (&args[0], &args[1]);
                        let mut first = Vec::new();
                        self.rev_expr(a, seed.clone(), &mut first)?;
                        let mut second = Vec::new();
                        self.rev_expr(b, seed, &mut second)?;
                        out.push(Stmt::synth(StmtKind::If {
                            cond: min_max_select(*i, a, b),
                            then_branch: Block::of(first),
                            else_branch: Some(Block::of(second)),
                        }));
                        Ok(())
                    }
                    Intrinsic::Pow => {
                        let (da, db) = pow_derivatives(&args[0], &args[1]);
                        if has_diff_reads(&args[0], &self.grad) {
                            self.rev_expr(
                                &args[0],
                                self.scale(seed.clone(), |s| Expr::mul(s, da)),
                                out,
                            )?;
                        }
                        if has_diff_reads(&args[1], &self.grad) {
                            self.rev_expr(&args[1], self.scale(seed, |s| Expr::mul(s, db)), out)?;
                        }
                        Ok(())
                    }
                    _ => {
                        debug_assert_eq!(i.arity(), 1);
                        match unary_derivative(*i, &args[0]) {
                            Some(d) => {
                                self.rev_expr(&args[0], self.scale(seed, |s| Expr::mul(s, d)), out)
                            }
                            None => Ok(()), // floor/ceil: zero derivative
                        }
                    }
                }
            }
            ExprKind::Call {
                callee: Callee::Func(name),
                ..
            } => Err(AdError::UserCall {
                name: name.clone(),
                span: e.span,
            }),
            ExprKind::Cast { ty, expr } => match ty {
                Type::Float(_) => self.rev_expr(expr, seed, out),
                _ => Ok(()),
            },
        }
    }

    /// `-seed`. With TBR on, a double negation cancels (exact: negation
    /// only flips the sign bit).
    fn negate(&self, seed: Expr) -> Expr {
        match seed.kind {
            ExprKind::Unary {
                op: UnOp::Neg,
                operand,
            } if self.cfg.tbr => *operand,
            _ => Expr::neg(seed),
        }
    }

    /// `f(seed)` for a product or quotient `f`. With TBR on, a negation of
    /// `seed` moves outside: `(-s) * c` becomes `-(s * c)`. Rounding is
    /// symmetric in sign, so the two are the same number; only a NaN `c`
    /// can come out with the opposite sign. Negations kept outermost
    /// cancel, or end in [`Rev::accumulate`]'s subtraction, instead of
    /// costing a dispatch each.
    fn scale(&self, seed: Expr, f: impl FnOnce(Expr) -> Expr) -> Expr {
        match seed.kind {
            ExprKind::Unary {
                op: UnOp::Neg,
                operand,
            } if self.cfg.tbr => Expr::neg(f(*operand)),
            _ => f(seed),
        }
    }

    /// `lhs += seed`; with TBR on, `lhs -= s` for a negated seed `-s`:
    /// `x - s` is `x + (-s)` by IEEE definition, except that a NaN `s`
    /// keeps its sign.
    fn accumulate(&self, lhs: LValue, seed: Expr) -> Stmt {
        let (op, rhs) = match seed.kind {
            ExprKind::Unary {
                op: UnOp::Neg,
                operand,
            } if self.cfg.tbr => (AssignOp::SubAssign, *operand),
            _ => (AssignOp::AddAssign, seed),
        };
        Stmt::synth(StmtKind::Assign { lhs, op, rhs })
    }
}

/// How the backward sweep of a scalar assignment `v = rhs` skips
/// capturing `_d_v` into a temporary and zeroing it.
enum Fold<'e> {
    /// `v = v ± rest` or `v = rest + v`, `rest` not reading `v`: `_d_v`
    /// already holds its own contribution; `rest`'s contributions are
    /// seeded with `±_d_v`.
    Keep { rest: &'e Expr, negated: bool },
    /// `v = v * c` or `v = c * v`, `c` without differentiable reads:
    /// `_d_v = _d_v * c`.
    Scale(&'e Expr),
    /// `rhs` does not read `v`: its contributions are seeded with `_d_v`,
    /// which is zeroed afterwards.
    Reset,
}

/// The fold that applies to `target = rhs`, if any.
fn fold_scalar_update<'e>(rhs: &'e Expr, target: VarId, grad: &Function) -> Option<Fold<'e>> {
    let is_target = |e: &Expr| matches!(&e.kind, ExprKind::Var(v) if v.id == Some(target));
    let reads_target = |e: &Expr| reads_of(e).contains(&target);
    if let ExprKind::Binary { op, lhs, rhs: r } = &rhs.kind {
        match op {
            BinOp::Add | BinOp::Sub if is_target(lhs) && !reads_target(r) => {
                return Some(Fold::Keep {
                    rest: r,
                    negated: *op == BinOp::Sub,
                })
            }
            BinOp::Add if is_target(r) && !reads_target(lhs) => {
                return Some(Fold::Keep {
                    rest: lhs,
                    negated: false,
                })
            }
            BinOp::Mul if is_target(lhs) && !has_diff_reads(r, grad) => {
                return Some(Fold::Scale(r))
            }
            BinOp::Mul if is_target(r) && !has_diff_reads(lhs, grad) => {
                return Some(Fold::Scale(lhs))
            }
            _ => {}
        }
    }
    (!reads_target(rhs)).then_some(Fold::Reset)
}

/// A loop's induction step `var = var + step` (wrapping), which the
/// backward sweep inverts instead of taping.
struct Induction {
    var: VarId,
    name: Symbol,
    /// Odd, so the inverse walk meets the entry value after exactly as
    /// many steps as the forward loop took.
    step: i64,
}

impl Induction {
    fn read(&self) -> Expr {
        Expr::var(&self.name, self.var, Type::Int)
    }

    /// `var = var - step`, written with a non-negative literal.
    fn inverse(&self) -> Stmt {
        let rhs = if self.step > 0 {
            Expr::sub(self.read(), Expr::ilit(self.step))
        } else {
            Expr::add(self.read(), Expr::ilit(self.step.wrapping_neg()))
        };
        Stmt::synth(StmtKind::Assign {
            lhs: LValue::Var(VarRef::resolved(self.name.clone(), self.var)),
            op: AssignOp::Assign,
            rhs,
        })
    }
}

/// The value of an integer literal, negated or not.
fn int_literal(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::Unary {
            op: UnOp::Neg,
            operand,
        } => int_literal(operand).map(i64::wrapping_neg),
        _ => None,
    }
}

/// The literal a loop's `init` sets `var` to, if it is one.
fn literal_init(init: &Stmt, var: VarId) -> Option<i64> {
    match &init.kind {
        StmtKind::Decl {
            id: Some(id),
            init: Some(e),
            size: None,
            ..
        } if *id == var => int_literal(e),
        StmtKind::Assign {
            lhs: LValue::Var(v),
            op: AssignOp::Assign,
            rhs,
        } if v.id == Some(var) => int_literal(rhs),
        _ => None,
    }
}

/// `true` if the expression reads any float variable or element.
fn has_diff_reads(e: &Expr, grad: &Function) -> bool {
    struct V<'a> {
        grad: &'a Function,
        found: bool,
    }
    impl Visitor for V<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            match &e.kind {
                ExprKind::Var(v) => {
                    if let Some(id) = v.id {
                        if is_diff(self.grad.var(id).ty) {
                            self.found = true;
                        }
                    }
                }
                ExprKind::Index { base, index } => {
                    if let Some(id) = base.id {
                        if is_diff(self.grad.var(id).ty) {
                            self.found = true;
                        }
                    }
                    self.visit_expr(index);
                }
                ExprKind::Cast { ty: Type::Int, .. } => {
                    // Float reads truncated to int carry no derivative.
                }
                _ => walk_expr(self, e),
            }
        }
    }
    let mut v = V { grad, found: false };
    v.visit_expr(e);
    v.found
}
