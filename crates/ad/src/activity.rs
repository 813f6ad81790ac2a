//! Dataflow analyses feeding the reverse-mode transformation.
//!
//! * **Activity / differentiability** — the paper's `isDiff` predicate
//!   (rule S2): a location participates in derivative propagation iff it
//!   is float-typed.
//! * **To-be-recorded (TBR)** — decides which assignments must push the
//!   target's old value onto the tape (`Push(out(Li))` of Fig. 2). Clad's
//!   TBR analysis is what keeps the CHEF-FP tape small compared to a
//!   runtime-taping tool that records every operation; this module
//!   implements a sound, conservative version:
//!
//!   an assignment to `v` needs a push **unless** all of the following
//!   hold — `v` is assigned exactly once in the function, the assignment
//!   is not inside any loop, `v` does not appear on its own right-hand
//!   side, and no statement at an earlier position reads `v` (an earlier
//!   reader's adjoint runs *later* in the backward sweep and needs the
//!   pre-assignment value).
//!
//!   One write is exempt: the induction step `v = v ± c` of a loop the
//!   reverse transformation runs backward by inverting that step (see
//!   `reverse`'s loop forms) is neither pushed nor popped. The rule above
//!   is what makes that sound: `v` is assigned in a loop, so every
//!   *other* write to `v` pushes, and the backward sweep has restored
//!   `v` to its forward exit value by the time it reaches the loop.

use chef_ir::ast::*;
use chef_ir::visit::{walk_expr, Visitor};
use std::collections::{HashMap, HashSet};

/// Read/write facts about one function body, positions in forward
/// execution (DFS) order.
#[derive(Debug, Default)]
pub struct UsageInfo {
    /// First position at which each variable is read.
    pub first_read: HashMap<VarId, usize>,
    /// First position at which each variable is assigned.
    pub first_assign: HashMap<VarId, usize>,
    /// Number of assignments to each variable (loop bodies count once
    /// statically; `in_loop` captures the dynamic repetition).
    pub assign_count: HashMap<VarId, usize>,
    /// Variables assigned anywhere inside a loop body.
    pub assigned_in_loop: HashSet<VarId>,
    /// Total number of positions (statements visited).
    pub positions: usize,
}

impl UsageInfo {
    /// Analyzes a function body.
    pub fn analyze(body: &Block) -> UsageInfo {
        let mut a = Analyzer {
            info: UsageInfo::default(),
            pos: 0,
            loop_depth: 0,
        };
        a.visit_block(body);
        a.info.positions = a.pos;
        a.info
    }

    /// Whether an assignment to `target` (which `reads_self` if the
    /// variable occurs in its own RHS or index expression) must record the
    /// old value. Position-free and sound: a push is skipped only for
    /// loop-free single assignments whose target has no reader at an
    /// earlier position (an earlier reader's adjoint runs *later* in the
    /// backward sweep and would observe the wrong value).
    pub fn needs_push(&self, target: VarId, reads_self: bool, in_loop: bool) -> bool {
        if in_loop || self.assigned_in_loop.contains(&target) {
            return true;
        }
        if reads_self {
            return true;
        }
        if self.assign_count.get(&target).copied().unwrap_or(0) > 1 {
            return true;
        }
        match (self.first_read.get(&target), self.first_assign.get(&target)) {
            (Some(&read), Some(&assign)) => read <= assign,
            (None, _) => false,
            (Some(_), None) => true,
        }
    }
}

struct Analyzer {
    info: UsageInfo,
    pos: usize,
    loop_depth: usize,
}

impl Analyzer {
    fn note_read(&mut self, id: VarId) {
        self.info.first_read.entry(id).or_insert(self.pos);
    }

    fn note_assign(&mut self, id: VarId) {
        *self.info.assign_count.entry(id).or_insert(0) += 1;
        self.info.first_assign.entry(id).or_insert(self.pos);
        if self.loop_depth > 0 {
            self.info.assigned_in_loop.insert(id);
        }
    }
}

impl Visitor for Analyzer {
    fn visit_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Var(v) => {
                if let Some(id) = v.id {
                    self.note_read(id);
                }
            }
            ExprKind::Index { base, index } => {
                if let Some(id) = base.id {
                    self.note_read(id);
                }
                self.visit_expr(index);
            }
            _ => walk_expr(self, e),
        }
    }

    fn visit_stmt(&mut self, s: &Stmt) {
        self.pos += 1;
        match &s.kind {
            StmtKind::Assign { lhs, op, rhs } => {
                // Compound assignments read the target.
                if op.binop().is_some() {
                    if let Some(id) = lhs.var().id {
                        self.note_read(id);
                    }
                }
                if let LValue::Index { base, index } = lhs {
                    // Element writes leave other elements intact: reading
                    // any element later still needs the array restored, so
                    // treat the write as both a read and a write of the
                    // array for TBR purposes.
                    if let Some(id) = base.id {
                        self.note_read(id);
                    }
                    self.visit_expr(index);
                }
                self.visit_expr(rhs);
                if let Some(id) = lhs.var().id {
                    self.note_assign(id);
                }
            }
            StmtKind::Decl { id, init, size, .. } => {
                if let Some(e) = size {
                    self.visit_expr(e);
                }
                if let Some(e) = init {
                    self.visit_expr(e);
                }
                if let (Some(id), Some(_)) = (id, init) {
                    self.note_assign(*id);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.visit_stmt(i);
                }
                self.loop_depth += 1;
                if let Some(c) = cond {
                    self.visit_expr(c);
                }
                self.visit_block(body);
                if let Some(st) = step {
                    self.visit_stmt(st);
                }
                self.loop_depth -= 1;
            }
            StmtKind::While { cond, body } => {
                self.loop_depth += 1;
                self.visit_expr(cond);
                self.visit_block(body);
                self.loop_depth -= 1;
            }
            _ => chef_ir::visit::walk_stmt(self, s),
        }
    }
}

/// The `isDiff` predicate of rule S2: float scalars and float arrays
/// carry derivatives; ints and bools do not.
pub fn is_diff(ty: chef_ir::types::Type) -> bool {
    ty.is_differentiable()
}

/// Collects the set of variables assigned (or popped) anywhere in
/// `stmts`, nested statements included: the reverse transformation's
/// check that a loop's induction variable has no other write.
pub fn assigned_in(stmts: &[Stmt]) -> HashSet<VarId> {
    struct W(HashSet<VarId>);
    impl Visitor for W {
        fn visit_stmt(&mut self, s: &Stmt) {
            match &s.kind {
                StmtKind::Assign { lhs, .. } | StmtKind::TapePop(lhs) => {
                    if let Some(id) = lhs.var().id {
                        self.0.insert(id);
                    }
                }
                StmtKind::Decl { id: Some(id), .. } => {
                    self.0.insert(*id);
                }
                _ => {}
            }
            chef_ir::visit::walk_stmt(self, s);
        }
    }
    let mut w = W(HashSet::new());
    for s in stmts {
        w.visit_stmt(s);
    }
    w.0
}

/// Collects the variables read by an expression.
pub fn reads_of(e: &Expr) -> HashSet<VarId> {
    let mut v = Vec::new();
    chef_ir::visit::vars_read_in_expr(e, &mut v);
    v.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_ir::parser::parse_program;
    use chef_ir::typeck::check_program;

    fn analyze(src: &str) -> (UsageInfo, Function) {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let f = p.functions.pop().unwrap();
        (UsageInfo::analyze(&f.body), f)
    }

    fn vid(f: &Function, name: &str) -> VarId {
        f.vars_iter()
            .find(|(_, v)| v.name == name)
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn single_assignment_never_read_before_skips_push() {
        let (info, f) = analyze("double f(double x) { double z; z = x * x; return z; }");
        let z = vid(&f, "z");
        // z assigned once at pos 2 (decl pos 1 has no init), read at pos 3.
        let assigned_once = info.assign_count[&z] == 1;
        assert!(assigned_once);
        assert!(!info.needs_push(z, false, false));
    }

    #[test]
    fn self_reference_forces_push() {
        let (info, f) = analyze("double f(double x) { double z = x; z = z * 2.0; return z; }");
        let z = vid(&f, "z");
        assert!(info.needs_push(z, true, false));
    }

    #[test]
    fn reassignment_forces_push() {
        let (info, f) = analyze("double f(double x) { double z = x; z = x * 2.0; return z; }");
        let z = vid(&f, "z");
        assert!(info.assign_count[&z] > 1);
        assert!(info.needs_push(z, false, false));
    }

    #[test]
    fn earlier_reader_forces_push() {
        let (info, f) = analyze(
            "double f(double x) { double y = x * x; double z = y + 1.0; y = 0.5; return z * y; }",
        );
        let y = vid(&f, "y");
        // y is assigned twice → push anyway; but the key fact is that the
        // read of y at the z-decl precedes the reassignment.
        assert!(info.needs_push(y, false, false));
    }

    #[test]
    fn loop_assignments_always_push() {
        let (info, f) = analyze(
            "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += 1.0; } return s; }",
        );
        let s = vid(&f, "s");
        assert!(info.assigned_in_loop.contains(&s));
        assert!(info.needs_push(s, false, true));
        assert!(info.needs_push(s, false, false)); // sticky via the set
    }

    #[test]
    fn is_diff_matches_types() {
        use chef_ir::types::{ElemTy, FloatTy, Type};
        assert!(is_diff(Type::Float(FloatTy::F32)));
        assert!(is_diff(Type::Array(ElemTy::Float(FloatTy::F64))));
        assert!(!is_diff(Type::Int));
        assert!(!is_diff(Type::Array(ElemTy::Int)));
    }
}
