//! AST → bytecode compilation with precision simulation.
//!
//! The compiler assigns every variable a register, then lowers statements
//! to the flat [`Instr`] stream. Floating-point precision is handled
//! **bottom-up at compile time**: every expression has the *effective
//! precision* that [`chef_ir::precision`] states for its operands, and
//! any operation whose effective precision is below `f64` gets an
//! explicit [`Instr::FRound`] after it. The index of a compound
//! `a[e] op= v` is evaluated once, as in C.
//!
//! "Effective" matters because of [`PrecisionMap`]: a mixed-precision
//! configuration demotes chosen variables without touching the source,
//! which is this reproduction's stand-in for the paper's manual
//! mixed-precision rewriting. Compiling the same function under different
//! precision maps yields the original and the tuned program variants.
//!
//! User-function calls must be inlined first (`chef-passes`' inliner);
//! compiling a remaining call reports [`CompileError::UserCallNotInlined`].

use crate::bytecode::*;
use chef_ir::ast::*;
use chef_ir::precision;
use chef_ir::span::Span;
use chef_ir::types::{ElemTy, FloatTy, Type};
use std::collections::HashMap;

/// Per-variable precision overrides: the mixed-precision configuration.
#[derive(Clone, Debug, Default)]
pub struct PrecisionMap {
    map: HashMap<VarId, FloatTy>,
}

impl PrecisionMap {
    /// No overrides: every variable at its declared precision.
    pub fn empty() -> Self {
        PrecisionMap::default()
    }

    /// Demotes (or promotes) variable `id` to `ty`.
    pub fn set(&mut self, id: VarId, ty: FloatTy) {
        self.map.insert(id, ty);
    }

    /// Builder-style [`PrecisionMap::set`].
    pub fn with(mut self, id: VarId, ty: FloatTy) -> Self {
        self.set(id, ty);
        self
    }

    /// The override for `id`, if any.
    pub fn get(&self, id: VarId) -> Option<FloatTy> {
        self.map.get(&id).copied()
    }

    /// Number of overridden variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no variable is overridden.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The overrides as an id-sorted list — a canonical form usable as a
    /// cache key for compiled variants (two maps with the same overrides
    /// produce the same list).
    pub fn sorted_entries(&self) -> Vec<(VarId, FloatTy)> {
        let mut v: Vec<_> = self.map.iter().map(|(&id, &ty)| (id, ty)).collect();
        v.sort_by_key(|&(id, _)| id);
        v
    }
}

/// Compilation options.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Mixed-precision variable overrides.
    pub precisions: PrecisionMap,
    /// Run the bytecode fusion peephole ([`crate::fuse`]) after codegen.
    /// On by default; turn off to inspect or benchmark the raw
    /// instruction stream (results are bit-identical either way).
    pub fuse: bool,
    /// Run the final stage, packing the instruction stream into the
    /// `u64` word format ([`crate::pack`]) the VM executes. On by
    /// default. Off stops compilation just before that stage, leaving
    /// `packed` empty for a caller that times or inspects the stages one
    /// by one; such a function must go through
    /// [`crate::pack::pack_function`] before it can run.
    pub pack: bool,
    /// Run register-file compaction ([`crate::cfg`]) between fusion and
    /// packing: unused register slots are dropped, so pooled machines
    /// allocate smaller register files. On by default; it moves no
    /// instruction, so results, traps, dispatch counts and shadow
    /// measurements are identical either way.
    pub cfg: bool,
}

impl Default for CompileOptions {
    /// Every stage defaults to **on**. Fusion is overridable
    /// process-wide by the environment: `CHEF_EXEC_FUSE=0` (also
    /// `false`/`off`/`no`) forces its default off. This is how CI runs
    /// the whole tier-1 suite on the raw codegen stream without a
    /// recompile; code that sets the flag explicitly is unaffected. Read
    /// once per process. Compaction and packing have no override:
    /// compaction is unobservable, and the VM runs only packed code.
    fn default() -> Self {
        CompileOptions {
            precisions: PrecisionMap::default(),
            fuse: fuse_default(),
            pack: true,
            cfg: true,
        }
    }
}

/// `true` unless `CHEF_EXEC_FUSE` is set to a falsy value
/// (`0`/`false`/`off`/`no`, case-insensitive); cached per process.
fn fuse_default() -> bool {
    static FUSE_DEFAULT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FUSE_DEFAULT.get_or_init(|| match std::env::var("CHEF_EXEC_FUSE") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    })
}

/// Errors the compiler can report.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// A user-function call survived to compilation; run the inliner first.
    UserCallNotInlined {
        /// Callee name.
        name: String,
        /// Call site.
        span: Span,
    },
    /// A variable reference was not resolved by typeck.
    UnresolvedVar {
        /// Variable name.
        name: String,
    },
    /// Any other unsupported construct.
    Unsupported {
        /// Description.
        msg: String,
        /// Location.
        span: Span,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UserCallNotInlined { name, .. } => {
                write!(f, "call to `{name}` must be inlined before compilation")
            }
            CompileError::UnresolvedVar { name } => {
                write!(f, "unresolved variable `{name}` (run the type checker)")
            }
            CompileError::Unsupported { msg, .. } => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles `func` with default options (declared precisions).
pub fn compile_default(func: &Function) -> Result<CompiledFunction, CompileError> {
    compile(func, &CompileOptions::default())
}

/// Compiles `func` under `opts`.
pub fn compile(func: &Function, opts: &CompileOptions) -> Result<CompiledFunction, CompileError> {
    let _span = chef_telemetry::span!("compile");
    let mut c = Compiler::new(func, opts);
    c.assign_var_slots();
    c.compile_body()?;
    let mut compiled = c.finish();
    if opts.fuse {
        let _span = chef_telemetry::span!("fuse");
        crate::fuse::fuse_to_fixpoint(&mut compiled);
    }
    if opts.cfg {
        crate::cfg::optimize(&mut compiled);
    }
    if opts.pack {
        let _span = chef_telemetry::span!("pack");
        let packed = crate::pack::try_pack(&compiled).map_err(|e| CompileError::Unsupported {
            msg: format!(
                "`{}` does not fit the packed format: {}",
                compiled.name, e.limit
            ),
            span: e.pc.map_or(func.span, |pc| compiled.spans[pc]),
        })?;
        compiled.packed = Some(packed);
    }
    Ok(compiled)
}

/// A variable's home: register plus effective precision.
#[derive(Clone, Copy, Debug)]
enum Slot {
    F(FReg, FloatTy),
    I(IReg),
    B(IReg),
    FA(AReg, FloatTy),
    IA(AReg),
}

/// The result of compiling an expression.
#[derive(Clone, Copy, Debug)]
enum Operand {
    F(FReg, FloatTy),
    I(IReg),
    B(IReg),
}

impl Operand {
    /// The KernelC type of the value, as the precision rule sees it.
    fn ty(self) -> Type {
        match self {
            Operand::F(_, p) => Type::Float(p),
            Operand::I(_) => Type::Int,
            Operand::B(_) => Type::Bool,
        }
    }
}

struct Compiler<'a> {
    func: &'a Function,
    opts: &'a CompileOptions,
    instrs: Vec<Instr>,
    spans: Vec<Span>,
    slots: Vec<Slot>,
    nf_vars: u32,
    ni_vars: u32,
    na: u32,
    tf: u32,
    ti: u32,
    max_f: u32,
    max_i: u32,
    cur_span: Span,
}

impl<'a> Compiler<'a> {
    fn new(func: &'a Function, opts: &'a CompileOptions) -> Self {
        Compiler {
            func,
            opts,
            instrs: Vec::new(),
            spans: Vec::new(),
            slots: Vec::new(),
            nf_vars: 0,
            ni_vars: 0,
            na: 0,
            tf: 0,
            ti: 0,
            max_f: 0,
            max_i: 0,
            cur_span: Span::DUMMY,
        }
    }

    /// Effective precision of a float variable under the precision map.
    fn effective_prec(&self, id: VarId, declared: FloatTy) -> FloatTy {
        self.opts.precisions.get(id).unwrap_or(declared)
    }

    fn assign_var_slots(&mut self) {
        for (id, info) in self.func.vars_iter() {
            let slot = match info.ty {
                Type::Float(ft) => {
                    let r = FReg(self.nf_vars);
                    self.nf_vars += 1;
                    Slot::F(r, self.effective_prec(id, ft))
                }
                Type::Int => {
                    let r = IReg(self.ni_vars);
                    self.ni_vars += 1;
                    Slot::I(r)
                }
                Type::Bool => {
                    let r = IReg(self.ni_vars);
                    self.ni_vars += 1;
                    Slot::B(r)
                }
                Type::Array(ElemTy::Float(ft)) => {
                    let r = AReg(self.na);
                    self.na += 1;
                    Slot::FA(r, self.effective_prec(id, ft))
                }
                Type::Array(ElemTy::Int) => {
                    let r = AReg(self.na);
                    self.na += 1;
                    Slot::IA(r)
                }
                Type::Void => unreachable!("void variables are rejected by typeck"),
            };
            self.slots.push(slot);
        }
        self.max_f = self.nf_vars;
        self.max_i = self.ni_vars;
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.spans.push(self.cur_span);
        self.instrs.len() - 1
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn patch_jump(&mut self, at: usize, target: u32) {
        match &mut self.instrs[at] {
            Instr::Jmp { target: t }
            | Instr::JmpIfFalse { target: t, .. }
            | Instr::JmpIfTrue { target: t, .. } => *t = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn temp_f(&mut self) -> FReg {
        let r = FReg(self.tf);
        self.tf += 1;
        self.max_f = self.max_f.max(self.tf);
        r
    }

    fn temp_i(&mut self) -> IReg {
        let r = IReg(self.ti);
        self.ti += 1;
        self.max_i = self.max_i.max(self.ti);
        r
    }

    /// Resets the per-statement temporary region.
    fn reset_temps(&mut self) {
        self.tf = self.nf_vars;
        self.ti = self.ni_vars;
    }

    fn slot(&self, v: &VarRef) -> Result<Slot, CompileError> {
        let id = v.id.ok_or_else(|| CompileError::UnresolvedVar {
            name: v.name.clone(),
        })?;
        Ok(self.slots[id.index()])
    }

    fn compile_body(&mut self) -> Result<(), CompileError> {
        self.reset_temps();
        let body = self.func.body.clone();
        self.block(&body)?;
        // Fall-off-the-end behaviour.
        match self.func.ret {
            Type::Void => {
                self.emit(Instr::RetVoid);
            }
            _ => {
                self.emit(Instr::TrapMissingReturn);
            }
        }
        Ok(())
    }

    fn block(&mut self, b: &Block) -> Result<(), CompileError> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        self.reset_temps();
        self.cur_span = s.span;
        match &s.kind {
            StmtKind::Decl { id, size, init, .. } => {
                let id = id.expect("typeck assigns decl ids");
                let slot = self.slots[id.index()];
                match (slot, size) {
                    (Slot::FA(arr, _), Some(sz)) => {
                        let len = self.expr_as_i(sz)?;
                        self.emit(Instr::AllocF { arr, len });
                    }
                    (Slot::IA(arr, ..), Some(sz)) => {
                        let len = self.expr_as_i(sz)?;
                        self.emit(Instr::AllocI { arr, len });
                    }
                    _ => {
                        if let Some(e) = init {
                            let op = self.expr(e)?;
                            self.store_to_slot(slot, op)?;
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Assign { lhs, op, rhs } => self.assign(lhs, *op, rhs),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.expr_as_b(cond)?;
                let jf = self.emit(Instr::JmpIfFalse { cond: c, target: 0 });
                self.block(then_branch)?;
                match else_branch {
                    Some(eb) => {
                        let jend = self.emit(Instr::Jmp { target: 0 });
                        let else_at = self.here();
                        self.patch_jump(jf, else_at);
                        self.block(eb)?;
                        let end = self.here();
                        self.patch_jump(jend, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch_jump(jf, end);
                    }
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let lcond = self.here();
                let jexit = match cond {
                    Some(c) => {
                        self.reset_temps();
                        self.cur_span = c.span;
                        let creg = self.expr_as_b(c)?;
                        Some(self.emit(Instr::JmpIfFalse {
                            cond: creg,
                            target: 0,
                        }))
                    }
                    None => None,
                };
                self.block(body)?;
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.emit(Instr::Jmp { target: lcond });
                let end = self.here();
                if let Some(j) = jexit {
                    self.patch_jump(j, end);
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let lcond = self.here();
                let creg = self.expr_as_b(cond)?;
                let jexit = self.emit(Instr::JmpIfFalse {
                    cond: creg,
                    target: 0,
                });
                self.block(body)?;
                self.emit(Instr::Jmp { target: lcond });
                let end = self.here();
                self.patch_jump(jexit, end);
                Ok(())
            }
            StmtKind::Return(e) => {
                match (e, self.func.ret) {
                    (None, _) => {
                        self.emit(Instr::RetVoid);
                    }
                    (Some(e), Type::Float(ft)) => {
                        let (r, prec) = self.expr_as_f(e)?;
                        // Round to the declared return precision, unless
                        // the value already fits in it.
                        let out = if !prec.fits_in(ft) {
                            let t = self.temp_f();
                            self.emit(Instr::FRound {
                                dst: t,
                                src: r,
                                ty: ft,
                            });
                            t
                        } else {
                            r
                        };
                        self.emit(Instr::RetF { src: out });
                    }
                    (Some(e), Type::Int) => {
                        let r = self.expr_as_i(e)?;
                        self.emit(Instr::RetI { src: r });
                    }
                    (Some(e), Type::Bool) => {
                        let r = self.expr_as_b(e)?;
                        self.emit(Instr::RetB { src: r });
                    }
                    (Some(_), other) => {
                        return Err(CompileError::Unsupported {
                            msg: format!("return of `{other}`"),
                            span: s.span,
                        })
                    }
                }
                Ok(())
            }
            StmtKind::Block(b) => self.block(b),
            StmtKind::ExprStmt(e) => {
                let _ = self.expr(e)?;
                Ok(())
            }
            StmtKind::TapePush(e) => {
                match self.expr(e)? {
                    Operand::F(r, _) => {
                        self.emit(Instr::TPushF { src: r });
                    }
                    Operand::I(r) | Operand::B(r) => {
                        self.emit(Instr::TPushI { src: r });
                    }
                }
                Ok(())
            }
            StmtKind::TapePop(lv) => match (self.slot(lv.var())?, lv) {
                (Slot::F(r, _), LValue::Var(_)) => {
                    self.emit(Instr::TPopF { dst: r });
                    Ok(())
                }
                (Slot::I(r) | Slot::B(r), LValue::Var(_)) => {
                    self.emit(Instr::TPopI { dst: r });
                    Ok(())
                }
                (Slot::FA(arr, _), LValue::Index { index, .. }) => {
                    let idx = self.expr_as_i(index)?;
                    let t = self.temp_f();
                    self.emit(Instr::TPopF { dst: t });
                    self.emit(Instr::FStore { arr, idx, src: t });
                    Ok(())
                }
                (Slot::IA(arr), LValue::Index { index, .. }) => {
                    let idx = self.expr_as_i(index)?;
                    let t = self.temp_i();
                    self.emit(Instr::TPopI { dst: t });
                    self.emit(Instr::IStore { arr, idx, src: t });
                    Ok(())
                }
                _ => Err(CompileError::Unsupported {
                    msg: "tape pop into this location".into(),
                    span: s.span,
                }),
            },
        }
    }

    fn assign(&mut self, lhs: &LValue, op: AssignOp, rhs: &Expr) -> Result<(), CompileError> {
        let rhs_op = self.expr(rhs)?;
        match lhs {
            LValue::Var(v) => {
                let value = match op.binop() {
                    None => rhs_op,
                    Some(bop) => {
                        let cur = self.var_operand(v)?;
                        self.binary_op(bop, cur, rhs_op)?
                    }
                };
                let slot = self.slot(v)?;
                self.store_to_slot(slot, value)
            }
            LValue::Index { base, index } => {
                let slot = self.slot(base)?;
                let (idx, src) = match op.binop() {
                    None => {
                        // Round before the index is computed, so the round
                        // stays next to the op that produced the value.
                        let src = self.elem_value(slot, rhs_op)?;
                        (self.expr_as_i(index)?, src)
                    }
                    Some(bop) => {
                        // C evaluates the index of `a[e] op= v` once.
                        let idx = self.expr_as_i(index)?;
                        let cur = self.load_elem(slot, idx, base.span)?;
                        let value = self.binary_op(bop, cur, rhs_op)?;
                        (idx, self.elem_value(slot, value)?)
                    }
                };
                self.store_elem(slot, idx, src, base.span)
            }
        }
    }

    /// The value of scalar variable `v`.
    fn var_operand(&self, v: &VarRef) -> Result<Operand, CompileError> {
        Ok(match self.slot(v)? {
            Slot::F(r, p) => Operand::F(r, p),
            Slot::I(r) => Operand::I(r),
            Slot::B(r) => Operand::B(r),
            Slot::FA(..) | Slot::IA(..) => {
                return Err(CompileError::Unsupported {
                    msg: format!("array `{}` used as a scalar", v.name),
                    span: v.span,
                })
            }
        })
    }

    /// Loads element `idx` of the array in `slot`.
    fn load_elem(&mut self, slot: Slot, idx: IReg, span: Span) -> Result<Operand, CompileError> {
        match slot {
            Slot::FA(arr, p) => {
                let dst = self.temp_f();
                self.emit(Instr::FLoad { dst, arr, idx });
                Ok(Operand::F(dst, p))
            }
            Slot::IA(arr) => {
                let dst = self.temp_i();
                self.emit(Instr::ILoad { dst, arr, idx });
                Ok(Operand::I(dst))
            }
            _ => Err(indexing_a_scalar(span)),
        }
    }

    /// `op` as an element of the array in `slot`: a float is rounded to
    /// the element precision unless its own precision fits in it
    /// ([`FloatTy::fits_in`]).
    fn elem_value(&mut self, slot: Slot, op: Operand) -> Result<Operand, CompileError> {
        let Slot::FA(_, prec) = slot else {
            return Ok(op);
        };
        let (src, sp) = self.operand_as_f(op)?;
        if !sp.fits_in(prec) {
            let t = self.temp_f();
            self.emit(Instr::FRound {
                dst: t,
                src,
                ty: prec,
            });
            Ok(Operand::F(t, prec))
        } else {
            Ok(Operand::F(src, sp))
        }
    }

    /// Stores `op` (see [`Compiler::elem_value`]) into element `idx` of
    /// the array in `slot`.
    fn store_elem(
        &mut self,
        slot: Slot,
        idx: IReg,
        op: Operand,
        span: Span,
    ) -> Result<(), CompileError> {
        match slot {
            Slot::FA(arr, _) => {
                let (src, _) = self.operand_as_f(op)?;
                self.emit(Instr::FStore { arr, idx, src });
                Ok(())
            }
            Slot::IA(arr) => {
                let src = self.operand_as_i(op)?;
                self.emit(Instr::IStore { arr, idx, src });
                Ok(())
            }
            _ => Err(indexing_a_scalar(span)),
        }
    }

    fn store_to_slot(&mut self, slot: Slot, op: Operand) -> Result<(), CompileError> {
        match slot {
            Slot::F(dst, prec) => {
                let (src, sp) = self.operand_as_f(op)?;
                if !sp.fits_in(prec) {
                    self.emit(Instr::FRound { dst, src, ty: prec });
                } else if src != dst {
                    self.emit(Instr::FMov { dst, src });
                }
                Ok(())
            }
            Slot::I(dst) => {
                let src = self.operand_as_i(op)?;
                if src != dst {
                    self.emit(Instr::IMov { dst, src });
                }
                Ok(())
            }
            Slot::B(dst) => {
                let src = match op {
                    Operand::B(r) | Operand::I(r) => r,
                    Operand::F(..) => {
                        return Err(CompileError::Unsupported {
                            msg: "float stored to bool".into(),
                            span: self.cur_span,
                        })
                    }
                };
                if src != dst {
                    self.emit(Instr::IMov { dst, src });
                }
                Ok(())
            }
            Slot::FA(..) | Slot::IA(..) => Err(CompileError::Unsupported {
                msg: "whole-array store".into(),
                span: self.cur_span,
            }),
        }
    }

    // ---- expression compilation ----

    fn expr(&mut self, e: &Expr) -> Result<Operand, CompileError> {
        match &e.kind {
            ExprKind::FloatLit(v) => {
                let dst = self.temp_f();
                self.emit(Instr::FConst { dst, v: *v });
                // Honor the type annotation: constant folding may replace
                // a `(float)`-cast subtree with a `float`-typed literal
                // whose value is exactly representable at that precision;
                // the surrounding operation must keep computing at it.
                let prec = match e.ty {
                    Some(Type::Float(ft)) => ft,
                    _ => FloatTy::F64,
                };
                Ok(Operand::F(dst, prec))
            }
            ExprKind::IntLit(v) => {
                let dst = self.temp_i();
                self.emit(Instr::IConst { dst, v: *v });
                Ok(Operand::I(dst))
            }
            ExprKind::BoolLit(b) => {
                let dst = self.temp_i();
                self.emit(Instr::IConst { dst, v: *b as i64 });
                Ok(Operand::B(dst))
            }
            ExprKind::Var(v) => self.var_operand(v),
            ExprKind::Index { base, index } => {
                let slot = self.slot(base)?;
                let idx = self.expr_as_i(index)?;
                self.load_elem(slot, idx, base.span)
            }
            ExprKind::Unary { op, operand } => {
                let inner = self.expr(operand)?;
                match op {
                    UnOp::Neg => match inner {
                        Operand::F(r, p) => {
                            let dst = self.temp_f();
                            self.emit(Instr::FNeg { dst, src: r });
                            Ok(Operand::F(dst, p))
                        }
                        Operand::I(r) => {
                            let dst = self.temp_i();
                            self.emit(Instr::INeg { dst, src: r });
                            Ok(Operand::I(dst))
                        }
                        Operand::B(_) => Err(CompileError::Unsupported {
                            msg: "negating bool".into(),
                            span: e.span,
                        }),
                    },
                    UnOp::Not => match inner {
                        Operand::B(r) => {
                            let dst = self.temp_i();
                            self.emit(Instr::BNot { dst, src: r });
                            Ok(Operand::B(dst))
                        }
                        _ => Err(CompileError::Unsupported {
                            msg: "`!` on non-bool".into(),
                            span: e.span,
                        }),
                    },
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                if op.is_logic() {
                    return self.logic_op(*op, lhs, rhs);
                }
                // A literal left operand is materialized after the right
                // one, next to its use, where the fuser folds it into a
                // constant-operand form. Literals cannot trap, so the
                // order is unobservable.
                let (a, b) = if matches!(lhs.kind, ExprKind::FloatLit(_)) {
                    let b = self.expr(rhs)?;
                    (self.expr(lhs)?, b)
                } else {
                    (self.expr(lhs)?, self.expr(rhs)?)
                };
                self.binary_op(*op, a, b)
            }
            ExprKind::Call { callee, args } => match callee {
                Callee::Intrinsic(i) => self.intrinsic_call(*i, args),
                Callee::Func(name) => Err(CompileError::UserCallNotInlined {
                    name: name.clone(),
                    span: e.span,
                }),
            },
            ExprKind::Cast { ty, expr } => {
                let inner = self.expr(expr)?;
                match ty {
                    Type::Float(ft) => {
                        let (r, p) = self.operand_as_f(inner)?;
                        if p.fits_in(*ft) {
                            return Ok(Operand::F(r, *ft));
                        }
                        let dst = self.temp_f();
                        self.emit(Instr::FRound {
                            dst,
                            src: r,
                            ty: *ft,
                        });
                        Ok(Operand::F(dst, *ft))
                    }
                    Type::Int => match inner {
                        Operand::I(r) => Ok(Operand::I(r)),
                        Operand::F(r, _) => {
                            let dst = self.temp_i();
                            self.emit(Instr::F2I { dst, src: r });
                            Ok(Operand::I(dst))
                        }
                        Operand::B(_) => Err(CompileError::Unsupported {
                            msg: "bool cast".into(),
                            span: e.span,
                        }),
                    },
                    other => Err(CompileError::Unsupported {
                        msg: format!("cast to `{other}`"),
                        span: e.span,
                    }),
                }
            }
        }
    }

    fn logic_op(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Operand, CompileError> {
        let a = self.expr_as_b(lhs)?;
        let dst = self.temp_i();
        self.emit(Instr::IMov { dst, src: a });
        let jshort = match op {
            BinOp::And => self.emit(Instr::JmpIfFalse {
                cond: dst,
                target: 0,
            }),
            BinOp::Or => self.emit(Instr::JmpIfTrue {
                cond: dst,
                target: 0,
            }),
            _ => unreachable!(),
        };
        let b = self.expr_as_b(rhs)?;
        self.emit(Instr::IMov { dst, src: b });
        let end = self.here();
        self.patch_jump(jshort, end);
        Ok(Operand::B(dst))
    }

    fn binary_op(&mut self, op: BinOp, a: Operand, b: Operand) -> Result<Operand, CompileError> {
        if op.is_cmp() {
            let cmp = cmp_of(op);
            let any_float = matches!(a, Operand::F(..)) || matches!(b, Operand::F(..));
            let dst = self.temp_i();
            if any_float {
                let (ra, _) = self.operand_as_f(a)?;
                let (rb, _) = self.operand_as_f(b)?;
                self.emit(Instr::FCmp {
                    dst,
                    op: cmp,
                    a: ra,
                    b: rb,
                });
            } else {
                let ra = self.operand_as_i(a)?;
                let rb = self.operand_as_i(b)?;
                self.emit(Instr::ICmp {
                    dst,
                    op: cmp,
                    a: ra,
                    b: rb,
                });
            }
            return Ok(Operand::B(dst));
        }
        // Arithmetic.
        if let Some(Type::Float(prec)) = precision::arith(a.ty(), b.ty()) {
            let (ra, _) = self.operand_as_f(a)?;
            let (rb, _) = self.operand_as_f(b)?;
            let dst = self.temp_f();
            let ins = match op {
                BinOp::Add => Instr::FAdd { dst, a: ra, b: rb },
                BinOp::Sub => Instr::FSub { dst, a: ra, b: rb },
                BinOp::Mul => Instr::FMul { dst, a: ra, b: rb },
                BinOp::Div => Instr::FDiv { dst, a: ra, b: rb },
                BinOp::Rem => {
                    return Err(CompileError::Unsupported {
                        msg: "`%` on floats".into(),
                        span: self.cur_span,
                    })
                }
                _ => unreachable!(),
            };
            self.emit(ins);
            if prec != FloatTy::F64 {
                self.emit(Instr::FRound {
                    dst,
                    src: dst,
                    ty: prec,
                });
            }
            Ok(Operand::F(dst, prec))
        } else {
            let ra = self.operand_as_i(a)?;
            let rb = self.operand_as_i(b)?;
            let dst = self.temp_i();
            let ins = match op {
                BinOp::Add => Instr::IAdd { dst, a: ra, b: rb },
                BinOp::Sub => Instr::ISub { dst, a: ra, b: rb },
                BinOp::Mul => Instr::IMul { dst, a: ra, b: rb },
                BinOp::Div => Instr::IDiv { dst, a: ra, b: rb },
                BinOp::Rem => Instr::IRem { dst, a: ra, b: rb },
                _ => unreachable!(),
            };
            self.emit(ins);
            Ok(Operand::I(dst))
        }
    }

    fn intrinsic_call(&mut self, i: Intrinsic, args: &[Expr]) -> Result<Operand, CompileError> {
        let mut regs = Vec::with_capacity(args.len());
        let mut tys = Vec::with_capacity(args.len());
        for a in args {
            let op = self.expr(a)?;
            tys.push(op.ty());
            regs.push(self.operand_as_f(op)?.0);
        }
        let prec = precision::intrinsic(tys);
        let dst = self.temp_f();
        match regs.len() {
            1 => {
                self.emit(Instr::FIntr1 {
                    dst,
                    intr: i,
                    a: regs[0],
                });
            }
            2 => {
                self.emit(Instr::FIntr2 {
                    dst,
                    intr: i,
                    a: regs[0],
                    b: regs[1],
                });
            }
            n => {
                return Err(CompileError::Unsupported {
                    msg: format!("{n}-ary intrinsic"),
                    span: self.cur_span,
                })
            }
        }
        if prec != FloatTy::F64 {
            self.emit(Instr::FRound {
                dst,
                src: dst,
                ty: prec,
            });
        }
        Ok(Operand::F(dst, prec))
    }

    // ---- operand coercions ----

    fn operand_as_f(&mut self, op: Operand) -> Result<(FReg, FloatTy), CompileError> {
        match op {
            Operand::F(r, p) => Ok((r, p)),
            Operand::I(r) => {
                let dst = self.temp_f();
                self.emit(Instr::I2F { dst, src: r });
                Ok((dst, FloatTy::F64))
            }
            Operand::B(_) => Err(CompileError::Unsupported {
                msg: "bool used as float".into(),
                span: self.cur_span,
            }),
        }
    }

    fn operand_as_i(&mut self, op: Operand) -> Result<IReg, CompileError> {
        match op {
            Operand::I(r) | Operand::B(r) => Ok(r),
            Operand::F(..) => Err(CompileError::Unsupported {
                msg: "float used as int (use an explicit cast)".into(),
                span: self.cur_span,
            }),
        }
    }

    fn expr_as_f(&mut self, e: &Expr) -> Result<(FReg, FloatTy), CompileError> {
        let op = self.expr(e)?;
        self.operand_as_f(op)
    }

    fn expr_as_i(&mut self, e: &Expr) -> Result<IReg, CompileError> {
        let op = self.expr(e)?;
        self.operand_as_i(op)
    }

    fn expr_as_b(&mut self, e: &Expr) -> Result<IReg, CompileError> {
        match self.expr(e)? {
            Operand::B(r) => Ok(r),
            _ => Err(CompileError::Unsupported {
                msg: "condition is not bool".into(),
                span: e.span,
            }),
        }
    }

    fn finish(self) -> CompiledFunction {
        let params = self
            .func
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let slot = self.slots[i];
                let (kind, reg) = match slot {
                    Slot::F(r, prec) => (ParamKind::F(prec), r.0),
                    Slot::I(r) => (ParamKind::I, r.0),
                    Slot::B(r) => (ParamKind::B, r.0),
                    Slot::FA(r, prec) => (ParamKind::FArr(prec), r.0),
                    Slot::IA(r) => (ParamKind::IArr, r.0),
                };
                ParamSpec {
                    name: p.name.clone(),
                    kind,
                    by_ref: p.by_ref,
                    reg,
                }
            })
            .collect();
        let ret = match self.func.ret {
            Type::Float(ft) => RetKind::F(ft),
            Type::Int => RetKind::I,
            Type::Bool => RetKind::B,
            _ => RetKind::Void,
        };
        // Name tables for attribution/diagnostics: every variable's home
        // register, in slot order (temps live above `nf_vars`/`na` and
        // stay unnamed).
        let mut fvar_names = Vec::new();
        let mut avar_names = Vec::new();
        for ((_, info), slot) in self.func.vars_iter().zip(&self.slots) {
            match slot {
                Slot::F(r, _) => fvar_names.push((r.0, info.name.clone())),
                Slot::FA(r, _) | Slot::IA(r) => avar_names.push((r.0, info.name.clone())),
                Slot::I(_) | Slot::B(_) => {}
            }
        }
        CompiledFunction {
            name: self.func.name.clone(),
            instrs: self.instrs,
            spans: self.spans,
            n_fregs: self.max_f,
            n_iregs: self.max_i,
            n_aregs: self.na,
            params,
            ret,
            fvar_names,
            avar_names,
            packed: None,
        }
    }
}

fn indexing_a_scalar(span: Span) -> CompileError {
    CompileError::Unsupported {
        msg: "indexing a scalar".into(),
        span,
    }
}

fn cmp_of(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        other => panic!("not a comparison: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_ir::parser::parse_program;
    use chef_ir::typeck::check_program;

    fn compile_src(src: &str) -> CompiledFunction {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        compile_default(&p.functions[0]).unwrap()
    }

    #[test]
    fn compiles_simple_function() {
        let f = compile_src("double f(double x, double y) { return x * y + 1.0; }");
        // Fusion (on by default) turns the mul+add into FMulAdd.
        assert!(
            f.instrs
                .iter()
                .any(|i| matches!(i, Instr::FMul { .. } | Instr::FMulAdd { .. })),
            "{}",
            f.disassemble()
        );
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::RetF { .. })));
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, RetKind::F(FloatTy::F64));
    }

    #[test]
    fn fuse_off_keeps_base_instructions() {
        let mut p = parse_program("double f(double x, double y) { return x * y + 1.0; }").unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            fuse: false,
            ..Default::default()
        };
        let f = compile(&p.functions[0], &opts).unwrap();
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::FMul { .. })));
        assert!(!f.instrs.iter().any(|i| matches!(i, Instr::FMulAdd { .. })));
    }

    #[test]
    fn f32_arithmetic_gets_rounds() {
        let f = compile_src("float f(float x, float y) { float z; z = x + y; return z; }");
        // x + y at f32 must be followed by a round to f32 (which the
        // fuser folds into the add).
        assert!(
            f.instrs.iter().any(|i| matches!(
                i,
                Instr::FRound {
                    ty: FloatTy::F32,
                    ..
                } | Instr::FAddRound {
                    ty: FloatTy::F32,
                    ..
                }
            )),
            "{}",
            f.disassemble()
        );
    }

    #[test]
    fn f64_arithmetic_has_no_rounds() {
        let f = compile_src("double f(double x, double y) { double z; z = x + y; return z; }");
        assert!(
            !f.instrs.iter().any(|i| matches!(i, Instr::FRound { .. })),
            "{}",
            f.disassemble()
        );
    }

    #[test]
    fn precision_override_demotes_variable() {
        let mut p = parse_program("double f(double x) { double z; z = x * x; return z; }").unwrap();
        check_program(&mut p).unwrap();
        let func = &p.functions[0];
        // Demote z (VarId 1) to f32.
        let opts = CompileOptions {
            precisions: PrecisionMap::empty().with(VarId(1), FloatTy::F32),
            ..Default::default()
        };
        let f = compile(func, &opts).unwrap();
        // The round may be fused into the arithmetic op.
        assert!(
            f.instrs.iter().any(|i| matches!(
                i,
                Instr::FRound {
                    ty: FloatTy::F32,
                    ..
                } | Instr::FAddRound {
                    ty: FloatTy::F32,
                    ..
                } | Instr::FSubRound {
                    ty: FloatTy::F32,
                    ..
                } | Instr::FMulRound {
                    ty: FloatTy::F32,
                    ..
                } | Instr::FDivRound {
                    ty: FloatTy::F32,
                    ..
                }
            )),
            "{}",
            f.disassemble()
        );
    }

    #[test]
    fn user_calls_rejected() {
        let src = "double g(double a) { return a; } double f(double x) { return g(x); }";
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let err = compile_default(p.function("f").unwrap()).unwrap_err();
        assert!(matches!(err, CompileError::UserCallNotInlined { .. }));
    }

    #[test]
    fn function_over_the_packed_length_limit_is_a_compile_error() {
        // Unfused, `s = s + 1.0;` is three instructions: 22 000 of them
        // exceed the packed format's 65 535.
        let mut src = String::from("double f(double s) {\n");
        for _ in 0..22_000 {
            src.push_str("s = s + 1.0;\n");
        }
        src.push_str("return s;\n}\n");
        let mut p = parse_program(&src).unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            fuse: false,
            cfg: false,
            ..Default::default()
        };
        let err = compile(&p.functions[0], &opts).unwrap_err();
        let CompileError::Unsupported { msg, .. } = &err else {
            panic!("expected Unsupported, got {err:?}");
        };
        assert!(msg.contains("65 535"), "{msg}");
        // Stopping before the pack stage still yields the stream.
        let unpacked = compile(
            &p.functions[0],
            &CompileOptions {
                pack: false,
                ..opts
            },
        )
        .unwrap();
        assert!(unpacked.instrs.len() > 65_535);
        assert!(unpacked.packed.is_none());
    }

    #[test]
    fn loop_compiles_with_backward_jump() {
        let f = compile_src(
            "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += 1.0; } return s; }",
        );
        let has_backjump = f.instrs.iter().enumerate().any(|(pc, i)| match i {
            Instr::Jmp { target } => (*target as usize) < pc,
            _ => false,
        });
        assert!(has_backjump, "{}", f.disassemble());
    }

    #[test]
    fn short_circuit_and_emits_branch() {
        let f = compile_src("bool f(double x) { return x > 0.0 && x < 1.0; }");
        assert!(f
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::JmpIfFalse { .. })));
    }

    #[test]
    fn missing_return_traps() {
        let f = compile_src("double f(double x) { x = x + 1.0; }");
        assert!(matches!(f.instrs.last(), Some(Instr::TrapMissingReturn)));
    }

    #[test]
    fn local_array_allocs() {
        let f = compile_src("void f(int n) { double r[n]; r[0] = 1.0; }");
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::AllocF { .. })));
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::FStore { .. })));
    }

    #[test]
    fn compound_array_assignment_evaluates_its_index_once() {
        let mut p =
            parse_program("void f(double a[], int idx[], int j, double v) { a[idx[j]] += v; }")
                .unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            fuse: false,
            cfg: false,
            ..Default::default()
        };
        let f = compile(&p.functions[0], &opts).unwrap();
        let iloads = f
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::ILoad { .. }))
            .count();
        assert_eq!(iloads, 1, "{}", f.disassemble());
    }

    #[test]
    fn literal_left_operand_folds_into_a_constant_operand_form() {
        // `2.5` is materialized after `sqrt(x)`, next to the multiply.
        let mut p = parse_program("double f(double x) { return 2.5 * sqrt(x); }").unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            fuse: true,
            ..Default::default()
        };
        let f = compile(&p.functions[0], &opts).unwrap();
        assert!(
            f.instrs
                .iter()
                .any(|i| matches!(i, Instr::FMulC { k, .. } if *k == 2.5)),
            "{}",
            f.disassemble()
        );
    }

    #[test]
    fn return_at_the_declared_precision_is_not_rounded_again() {
        // `a + b` is rounded to `float` once; `return z` has nothing left
        // to round, with fusion on or off.
        let mut p =
            parse_program("float f(float a, float b) { float z = a + b; return z; }").unwrap();
        check_program(&mut p).unwrap();
        let [unfused, fused] = [false, true].map(|fuse| {
            let opts = CompileOptions {
                fuse,
                ..Default::default()
            };
            compile(&p.functions[0], &opts).unwrap()
        });
        for f in [&unfused, &fused] {
            let rounds = f.instrs.iter().filter(|i| {
                matches!(
                    i,
                    Instr::FRound { .. }
                        | Instr::FAddRound { .. }
                        | Instr::FSubRound { .. }
                        | Instr::FMulRound { .. }
                        | Instr::FDivRound { .. }
                )
            });
            assert_eq!(rounds.count(), 1, "{}", f.disassemble());
        }
        // The result is the native `f32` sum.
        let pairs = [
            (0.1, 0.2),
            (1.0, f64::from(f32::EPSILON) / 2.0),
            (3.0e38, 3.0e38),
            (-1.5e-45, 1.0e-45),
            (16_777_216.0, 1.0),
        ];
        for (a, b) in pairs {
            let native = f64::from(a as f32 + b as f32);
            for f in [&unfused, &fused] {
                let args = vec![crate::value::ArgValue::F(a), crate::value::ArgValue::F(b)];
                let got = crate::vm::run(f, args).unwrap().ret_f();
                assert_eq!(got.to_bits(), native.to_bits(), "{a} + {b}");
            }
        }
    }

    #[test]
    fn cast_emits_round() {
        let f = compile_src("double f(double x) { return x - (float)x; }");
        assert!(f.instrs.iter().any(|i| matches!(
            i,
            Instr::FRound {
                ty: FloatTy::F32,
                ..
            }
        )));
    }
}
