//! Name resolution and type checking for KernelC.
//!
//! The checker resolves every [`VarRef`] to a [`VarId`], fills in the `ty`
//! field of every expression, builds the per-function variable table
//! ([`Function::vars`]), and enforces the (deliberately strict) typing
//! rules:
//!
//! * conditions are `bool` (comparisons/logical operators produce `bool`);
//! * `%` is integer-only; `&&`/`||`/`!` are bool-only;
//! * implicit numeric conversion widens only (`int → float`, narrower float
//!   → wider float at use sites); narrowing happens either at *assignment*
//!   (that is where rounding error enters — the paper's error models hook
//!   assignments) or through an explicit cast such as `(float)x`;
//! * arithmetic and intrinsic calls have the result precision
//!   [`crate::precision`] states;
//! * arrays are indexed by `int` and cannot be assigned wholesale;
//! * user calls must match the callee's signature; intrinsics their arity.
//!
//! Shadowing is legal; shadowed variables are renamed (`x`, `x@1`, …) so
//! that every [`VarInfo::name`] in a checked function is unique — the AD
//! transformation and the printer rely on this.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};
use crate::precision;
use crate::types::{ElemTy, Type};
use std::collections::HashMap;

/// Signature of a function: parameter types and return type.
#[derive(Clone, Debug, PartialEq)]
pub struct Signature {
    /// Parameter types in order (with by-ref flags).
    pub params: Vec<(Type, bool)>,
    /// Return type.
    pub ret: Type,
}

/// Type-checks a whole program in place.
///
/// On success every expression is typed and every variable resolved; on
/// failure the program is left partially annotated and all diagnostics are
/// returned.
pub fn check_program(program: &mut Program) -> Result<(), Diagnostics> {
    let mut diags = Diagnostics::new();
    // Pass 1: collect signatures (allows forward references, like C
    // prototypes).
    let mut sigs: HashMap<Symbol, Signature> = HashMap::new();
    for f in &program.functions {
        if Intrinsic::from_name(&f.name).is_some() {
            diags.push(Diagnostic::error(
                format!("function `{}` shadows a built-in intrinsic", f.name),
                f.span,
            ));
        }
        if sigs
            .insert(
                f.name.clone(),
                Signature {
                    params: f.params.iter().map(|p| (p.ty, p.by_ref)).collect(),
                    ret: f.ret,
                },
            )
            .is_some()
        {
            diags.push(Diagnostic::error(
                format!("duplicate function `{}`", f.name),
                f.span,
            ));
        }
    }
    // Pass 2: check each function body.
    for f in &mut program.functions {
        let mut ck = Checker::new(&sigs, f.ret, &mut diags);
        ck.check_function(f);
    }
    diags.into_result()
}

/// Type-checks a single function against an empty program context
/// (no user calls allowed). Convenience for tests and builders.
pub fn check_function(f: &mut Function) -> Result<(), Diagnostics> {
    let mut diags = Diagnostics::new();
    let sigs = HashMap::new();
    let mut ck = Checker::new(&sigs, f.ret, &mut diags);
    ck.check_function(f);
    diags.into_result()
}

struct Checker<'a> {
    sigs: &'a HashMap<Symbol, Signature>,
    ret: Type,
    diags: &'a mut Diagnostics,
    scopes: Vec<HashMap<Symbol, VarId>>,
    vars: Vec<VarInfo>,
    name_counts: HashMap<Symbol, u32>,
}

impl<'a> Checker<'a> {
    fn new(sigs: &'a HashMap<Symbol, Signature>, ret: Type, diags: &'a mut Diagnostics) -> Self {
        Checker {
            sigs,
            ret,
            diags,
            scopes: vec![HashMap::new()],
            vars: Vec::new(),
            name_counts: HashMap::new(),
        }
    }

    fn error(&mut self, msg: impl Into<String>, span: crate::span::Span) {
        self.diags.push(Diagnostic::error(msg, span));
    }

    fn declare(
        &mut self,
        name: &Symbol,
        ty: Type,
        is_param: bool,
        span: crate::span::Span,
    ) -> VarId {
        let count = self.name_counts.entry(name.clone()).or_insert(0);
        let unique = if *count == 0 {
            name.clone()
        } else {
            format!("{name}@{count}")
        };
        *count += 1;
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: unique,
            ty,
            is_param,
            span,
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.clone(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn resolve(&mut self, v: &mut VarRef) -> Option<VarId> {
        match self.lookup(&v.name) {
            Some(id) => {
                v.id = Some(id);
                Some(id)
            }
            None => {
                self.error(format!("unknown variable `{}`", v.name), v.span);
                None
            }
        }
    }

    fn check_function(&mut self, f: &mut Function) {
        for p in &mut f.params {
            if self.scopes[0].contains_key(&p.name) {
                self.error(format!("duplicate parameter `{}`", p.name), p.span);
            }
            p.id = Some(self.declare(&p.name.clone(), p.ty, true, p.span));
        }
        self.check_block(&mut f.body);
        f.vars = std::mem::take(&mut self.vars);
    }

    fn check_block(&mut self, b: &mut Block) {
        self.scopes.push(HashMap::new());
        for s in &mut b.stmts {
            self.check_stmt(s);
        }
        self.scopes.pop();
    }

    fn check_stmt(&mut self, s: &mut Stmt) {
        let span = s.span;
        match &mut s.kind {
            StmtKind::Decl {
                name,
                id,
                ty,
                size,
                init,
            } => {
                if let Some(sz) = size {
                    if let Some(t) = self.check_expr(sz) {
                        if t != Type::Int {
                            self.error(format!("array size must be `int`, found `{t}`"), sz.span);
                        }
                    }
                }
                if let Some(e) = init {
                    let t = self.check_expr(e);
                    if let Some(t) = t {
                        self.check_assignable(*ty, t, e.span);
                    }
                }
                *id = Some(self.declare(&name.clone(), *ty, false, span));
            }
            StmtKind::Assign { lhs, op, rhs } => {
                let lty = self.check_lvalue(lhs);
                let rty = self.check_expr(rhs);
                if let (Some(lty), Some(rty)) = (lty, rty) {
                    if let Type::Array(_) = lty {
                        self.error("cannot assign to a whole array; assign elements", span);
                        return;
                    }
                    if op.binop() == Some(BinOp::Rem) && lty != Type::Int {
                        self.error("`%=` requires integer operands", span);
                    }
                    self.check_assignable(lty, rty, rhs.span);
                    if *op != AssignOp::Assign && !lty.is_numeric_scalar() {
                        self.error(
                            format!("compound assignment requires a numeric target, found `{lty}`"),
                            span,
                        );
                    }
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_bool(cond);
                self.check_block(then_branch);
                if let Some(e) = else_branch {
                    self.check_block(e);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // The for-header introduces a scope for its init declaration.
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.check_stmt(i);
                }
                if let Some(c) = cond {
                    self.check_bool(c);
                }
                if let Some(st) = step {
                    self.check_stmt(st);
                }
                self.check_block(body);
                self.scopes.pop();
            }
            StmtKind::While { cond, body } => {
                self.check_bool(cond);
                self.check_block(body);
            }
            StmtKind::Return(e) => match (e, self.ret) {
                (None, Type::Void) => {}
                (None, other) => {
                    self.error(format!("function returns `{other}`, missing value"), span)
                }
                (Some(e), ret) => {
                    if ret == Type::Void {
                        self.error("void function cannot return a value", e.span);
                    } else if let Some(t) = self.check_expr(e) {
                        self.check_assignable(ret, t, e.span);
                    }
                }
            },
            StmtKind::Block(b) => self.check_block(b),
            StmtKind::ExprStmt(e) => {
                self.check_expr(e);
            }
            StmtKind::TapePush(_) | StmtKind::TapePop(_) => {
                self.error("tape operations cannot appear in source programs", span);
            }
        }
    }

    /// Narrowing at assignment is legal (that is where rounding occurs);
    /// only category mismatches are errors.
    fn check_assignable(&mut self, lhs: Type, rhs: Type, span: crate::span::Span) {
        let ok = matches!(
            (lhs, rhs),
            (Type::Float(_), Type::Float(_) | Type::Int)
                | (Type::Int, Type::Int)
                | (Type::Bool, Type::Bool)
        );
        if !ok {
            self.error(format!("cannot assign `{rhs}` to `{lhs}`"), span);
        }
    }

    fn check_bool(&mut self, e: &mut Expr) {
        if let Some(t) = self.check_expr(e) {
            if t != Type::Bool {
                self.error(format!("condition must be `bool`, found `{t}`"), e.span);
            }
        }
    }

    fn check_lvalue(&mut self, lv: &mut LValue) -> Option<Type> {
        match lv {
            LValue::Var(v) => {
                let id = self.resolve(v)?;
                Some(self.vars[id.index()].ty)
            }
            LValue::Index { base, index } => {
                let id = self.resolve(base)?;
                let bty = self.vars[id.index()].ty;
                if let Some(ity) = self.check_expr(index) {
                    if ity != Type::Int {
                        self.error(
                            format!("array index must be `int`, found `{ity}`"),
                            index.span,
                        );
                    }
                }
                match bty {
                    Type::Array(ElemTy::Float(ft)) => Some(Type::Float(ft)),
                    Type::Array(ElemTy::Int) => Some(Type::Int),
                    other => {
                        self.error(format!("cannot index into `{other}`"), base.span);
                        None
                    }
                }
            }
        }
    }

    fn check_expr(&mut self, e: &mut Expr) -> Option<Type> {
        let ty = self.check_expr_inner(e)?;
        e.ty = Some(ty);
        Some(ty)
    }

    fn check_expr_inner(&mut self, e: &mut Expr) -> Option<Type> {
        let span = e.span;
        match &mut e.kind {
            ExprKind::FloatLit(_) => Some(Type::Float(crate::types::FloatTy::F64)),
            ExprKind::IntLit(_) => Some(Type::Int),
            ExprKind::BoolLit(_) => Some(Type::Bool),
            ExprKind::Var(v) => {
                let id = self.resolve(v)?;
                Some(self.vars[id.index()].ty)
            }
            ExprKind::Index { base, index } => {
                let id = self.resolve(base)?;
                let bty = self.vars[id.index()].ty;
                if let Some(ity) = self.check_expr(index) {
                    if ity != Type::Int {
                        self.error(
                            format!("array index must be `int`, found `{ity}`"),
                            index.span,
                        );
                    }
                }
                match bty {
                    Type::Array(ElemTy::Float(ft)) => Some(Type::Float(ft)),
                    Type::Array(ElemTy::Int) => Some(Type::Int),
                    other => {
                        self.error(format!("cannot index into `{other}`"), base.span);
                        None
                    }
                }
            }
            ExprKind::Unary { op, operand } => {
                let t = self.check_expr(operand)?;
                match op {
                    UnOp::Neg => {
                        if t.is_numeric_scalar() {
                            Some(t)
                        } else {
                            self.error(format!("cannot negate `{t}`"), span);
                            None
                        }
                    }
                    UnOp::Not => {
                        if t == Type::Bool {
                            Some(Type::Bool)
                        } else {
                            self.error(format!("`!` requires `bool`, found `{t}`"), span);
                            None
                        }
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs);
                let rt = self.check_expr(rhs);
                let (lt, rt) = (lt?, rt?);
                if op.is_logic() {
                    if lt != Type::Bool || rt != Type::Bool {
                        self.error(
                            format!(
                                "`{}` requires `bool` operands, found `{lt}` and `{rt}`",
                                op.as_str()
                            ),
                            span,
                        );
                        return None;
                    }
                    return Some(Type::Bool);
                }
                if *op == BinOp::Rem {
                    if lt != Type::Int || rt != Type::Int {
                        self.error(
                            format!("`%` requires `int` operands, found `{lt}` and `{rt}`"),
                            span,
                        );
                        return None;
                    }
                    return Some(Type::Int);
                }
                match precision::arith(lt, rt) {
                    Some(t) => {
                        if op.is_cmp() {
                            Some(Type::Bool)
                        } else {
                            Some(t)
                        }
                    }
                    None => {
                        self.error(
                            format!("invalid operands to `{}`: `{lt}` and `{rt}`", op.as_str()),
                            span,
                        );
                        None
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                let arg_tys: Vec<Option<Type>> =
                    args.iter_mut().map(|a| self.check_expr(a)).collect();
                match callee {
                    Callee::Intrinsic(i) => {
                        if args.len() != i.arity() {
                            self.error(
                                format!(
                                    "`{}` expects {} argument(s), found {}",
                                    i.name(),
                                    i.arity(),
                                    args.len()
                                ),
                                span,
                            );
                            return None;
                        }
                        for t in arg_tys.iter().flatten() {
                            if !t.is_numeric_scalar() {
                                self.error(
                                    format!(
                                        "`{}` requires numeric arguments, found `{t}`",
                                        i.name()
                                    ),
                                    span,
                                );
                                return None;
                            }
                        }
                        let result = precision::intrinsic(arg_tys.iter().flatten().copied());
                        Some(Type::Float(result))
                    }
                    Callee::Func(name) => {
                        let sig = match self.sigs.get(name.as_str()) {
                            Some(s) => s.clone(),
                            None => {
                                self.error(format!("unknown function `{name}`"), span);
                                return None;
                            }
                        };
                        if args.len() != sig.params.len() {
                            self.error(
                                format!(
                                    "`{name}` expects {} argument(s), found {}",
                                    sig.params.len(),
                                    args.len()
                                ),
                                span,
                            );
                            return None;
                        }
                        for ((pty, by_ref), (arg, aty)) in
                            sig.params.iter().zip(args.iter().zip(arg_tys.iter()))
                        {
                            let Some(aty) = aty else { continue };
                            if *by_ref || matches!(pty, Type::Array(_)) {
                                // By-ref arguments must be lvalues of the
                                // exact type.
                                let is_lvalue =
                                    matches!(arg.kind, ExprKind::Var(_) | ExprKind::Index { .. });
                                if !is_lvalue {
                                    self.error(
                                        "by-reference argument must be a variable or element",
                                        arg.span,
                                    );
                                } else if aty != pty {
                                    self.error(
                                        format!(
                                            "by-reference argument type `{aty}` must match `{pty}`"
                                        ),
                                        arg.span,
                                    );
                                }
                            } else {
                                match (pty, aty) {
                                    (Type::Float(_), Type::Float(_) | Type::Int) => {}
                                    (a, b) if *a == *b => {}
                                    _ => self
                                        .error(format!("cannot pass `{aty}` as `{pty}`"), arg.span),
                                }
                            }
                        }
                        Some(sig.ret)
                    }
                }
            }
            ExprKind::Cast { ty, expr } => {
                let t = self.check_expr(expr)?;
                let ok = matches!(
                    (*ty, t),
                    (Type::Float(_), Type::Float(_))
                        | (Type::Float(_), Type::Int)
                        | (Type::Int, Type::Float(_))
                        | (Type::Int, Type::Int)
                );
                if !ok {
                    self.error(format!("cannot cast `{t}` to `{ty}`"), span);
                    return None;
                }
                Some(*ty)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::types::FloatTy;

    fn check(src: &str) -> Result<Program, Diagnostics> {
        let mut p = parse_program(src).expect("parse");
        check_program(&mut p)?;
        Ok(p)
    }

    #[test]
    fn resolves_variables_and_types() {
        let p = check("float func(float x, float y) { float z; z = x + y; return z; }").unwrap();
        let f = &p.functions[0];
        assert_eq!(f.vars.len(), 3);
        assert!(f.vars[0].is_param);
        assert_eq!(f.vars[2].name, "z");
        match &f.body.stmts[1].kind {
            StmtKind::Assign { rhs, .. } => {
                // x: f32 + y: f32 promotes to f32.
                assert_eq!(rhs.ty, Some(Type::Float(FloatTy::F32)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn float_literals_are_double() {
        let p = check("float f(float x) { float y = x * 2.0; return y; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Decl { init: Some(e), .. } => {
                // f32 * double-literal promotes to f64 (C semantics).
                assert_eq!(e.ty, Some(Type::Float(FloatTy::F64)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shadowing_renames() {
        let p =
            check("void f() { double x = 1.0; { double x = 2.0; x = 3.0; } x = 4.0; }").unwrap();
        let f = &p.functions[0];
        let names: Vec<_> = f.vars.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["x", "x@1"]);
    }

    #[test]
    fn rejects_unknown_variable() {
        assert!(check("void f() { x = 1.0; }").is_err());
    }

    #[test]
    fn rejects_bad_condition_type() {
        assert!(check("void f(int n) { if (n) { } }").is_err());
        assert!(check("void f(double x) { while (x) { } }").is_err());
    }

    #[test]
    fn rejects_rem_on_floats() {
        assert!(check("void f(double x) { double y = x % 2.0; }").is_err());
    }

    #[test]
    fn rejects_whole_array_assignment() {
        assert!(check("void f(double a[], double b[]) { a = b; }").is_err());
    }

    #[test]
    fn rejects_non_int_index() {
        assert!(check("void f(double a[], double x) { a[x] = 1.0; }").is_err());
    }

    #[test]
    fn rejects_wrong_intrinsic_arity() {
        assert!(check("void f(double x) { double y = pow(x); }").is_err());
        assert!(check("void f(double x) { double y = sin(x, x); }").is_err());
    }

    #[test]
    fn user_calls_check_signature() {
        assert!(check(
            "double g(double a) { return a * a; }
             double f(double x) { return g(x) + g(2.0 * x); }"
        )
        .is_ok());
        assert!(check(
            "double g(double a) { return a; }
             double f(double x) { return g(x, x); }"
        )
        .is_err());
        assert!(check("double f(double x) { return nosuch(x); }").is_err());
    }

    #[test]
    fn forward_references_allowed() {
        assert!(check(
            "double f(double x) { return g(x); }
             double g(double a) { return a * a; }"
        )
        .is_ok());
    }

    #[test]
    fn by_ref_argument_must_be_lvalue() {
        assert!(check(
            "void g(double &out) { out = 1.0; }
             void f() { double x = 0.0; g(x); }"
        )
        .is_ok());
        assert!(check(
            "void g(double &out) { out = 1.0; }
             void f() { g(1.0 + 2.0); }"
        )
        .is_err());
    }

    #[test]
    fn rejects_duplicate_function() {
        assert!(check("void f() { } void f() { }").is_err());
    }

    #[test]
    fn rejects_shadowing_intrinsic_name() {
        assert!(check("double sin(double x) { return x; }").is_err());
    }

    #[test]
    fn int_to_float_assignment_ok_float_to_int_rejected() {
        assert!(check("void f(int n) { double x = n; }").is_ok());
        assert!(check("void f(double x) { int n = x; }").is_err());
        assert!(check("void f(double x) { int n = (int)x; }").is_ok());
    }

    #[test]
    fn return_type_checked() {
        assert!(check("double f() { return; }").is_err());
        assert!(check("void f() { return 1.0; }").is_err());
        assert!(check("int f() { return 3; }").is_ok());
    }

    #[test]
    fn narrowing_assignment_is_legal() {
        // Assigning a double expression into a float variable is exactly
        // where the paper's rounding error enters; it must type-check.
        assert!(check("void f(double x) { float y = x * x; }").is_ok());
    }
}
