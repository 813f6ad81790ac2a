//! Zeroed adjoints: stores instead of accumulations into an adjoint known
//! to be `+0.0`, and deletion of the zeroings no path reads.
//!
//! The backward sweep accumulates every contribution (`_d_v += e`), and
//! zeroes an adjoint once its assignment is undone (`_d_v = 0.0`, the
//! general form and the `rhs`-does-not-read-`v` form of
//! [`crate::reverse`]). Between a zeroing and the next contribution, the
//! adjoint is known to be `+0.0`, and `0.0 + e` is `e` except that it
//! turns `e = −0.0` into `+0.0`. Two passes over the generated body use
//! that, for the local scalar adjoints the transformation declares (each
//! `double _d_v = 0.0;`; never a primal variable, an adjoint parameter or
//! an array):
//!
//! 1. [`store_into_zeros`], a forward must-analysis: where an adjoint is
//!    `+0.0` on every path, `_d_v += e` becomes `_d_v = e`. A loop's head
//!    takes the fixed point of its entry and its back edge.
//! 2. [`drop_dead_zeroings`], a backward liveness analysis: a `_d_v = 0.0`
//!    that every path overwrites before reading is deleted.
//!
//! The only visible change is the sign of a zero adjoint: an adjoint that
//! the counted form leaves at `+0.0` can be `−0.0` here. The error term's
//! `|x·x̄|` does not see it.

use chef_ir::ast::*;
use std::collections::HashSet;

/// Runs both passes over `body`; `adjoints` are the local scalar adjoints.
pub(crate) fn zeroed_adjoints(body: &mut Vec<Stmt>, adjoints: &HashSet<VarId>) {
    let mut zero = HashSet::new();
    store_into_zeros(body, adjoints, &mut zero, true);
    let mut live = HashSet::new();
    drop_dead_zeroings(body, adjoints, &mut live, true);
}

/// The scalar variable `s` writes with `=` and the value it writes, or
/// with a compound operator.
fn scalar_write(s: &Stmt) -> Option<(VarId, AssignOp, &Expr)> {
    match &s.kind {
        StmtKind::Assign {
            lhs: LValue::Var(v),
            op,
            rhs,
        } => Some((v.id?, *op, rhs)),
        StmtKind::Decl {
            id: Some(id),
            init: Some(e),
            size: None,
            ..
        } => Some((*id, AssignOp::Assign, e)),
        _ => None,
    }
}

fn is_pos_zero(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::FloatLit(v) if v.to_bits() == 0)
}

/// Forward: `zero` holds the adjoints known to be `+0.0` before `stmts`,
/// and after them on return. With `rewrite`, accumulations into them
/// become stores.
fn store_into_zeros(
    stmts: &mut [Stmt],
    adjoints: &HashSet<VarId>,
    zero: &mut HashSet<VarId>,
    rewrite: bool,
) {
    for s in stmts {
        if let Some((v, op, rhs)) = scalar_write(s) {
            if adjoints.contains(&v) {
                let now_zero = op == AssignOp::Assign && is_pos_zero(rhs);
                if rewrite && op == AssignOp::AddAssign && zero.contains(&v) {
                    if let StmtKind::Assign { op, .. } = &mut s.kind {
                        *op = AssignOp::Assign;
                    }
                }
                if now_zero {
                    zero.insert(v);
                } else {
                    zero.remove(&v);
                }
            }
            continue;
        }
        match &mut s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let mut other = zero.clone();
                store_into_zeros(&mut then_branch.stmts, adjoints, zero, rewrite);
                if let Some(b) = else_branch {
                    store_into_zeros(&mut b.stmts, adjoints, &mut other, rewrite);
                }
                zero.retain(|v| other.contains(v));
            }
            StmtKind::While { body, .. } => {
                loop_zeros(&mut body.stmts, None, adjoints, zero, rewrite)
            }
            StmtKind::For {
                init, step, body, ..
            } => {
                if let Some(i) = init {
                    store_into_zeros(std::slice::from_mut(&mut **i), adjoints, zero, rewrite);
                }
                loop_zeros(
                    &mut body.stmts,
                    step.as_deref_mut(),
                    adjoints,
                    zero,
                    rewrite,
                );
            }
            StmtKind::Block(b) => store_into_zeros(&mut b.stmts, adjoints, zero, rewrite),
            StmtKind::TapePop(LValue::Var(VarRef { id: Some(v), .. })) => {
                zero.remove(v);
            }
            _ => {}
        }
    }
}

/// [`store_into_zeros`] over a loop entered with `zero`: the head keeps
/// what holds on entry and after every iteration, which is also what
/// holds on exit.
fn loop_zeros(
    body: &mut [Stmt],
    mut step: Option<&mut Stmt>,
    adjoints: &HashSet<VarId>,
    zero: &mut HashSet<VarId>,
    rewrite: bool,
) {
    loop {
        let mut out = zero.clone();
        store_into_zeros(body, adjoints, &mut out, false);
        if let Some(st) = step.as_deref_mut() {
            store_into_zeros(std::slice::from_mut(st), adjoints, &mut out, false);
        }
        let before = zero.len();
        zero.retain(|v| out.contains(v));
        if zero.len() == before {
            break;
        }
    }
    if rewrite {
        let mut out = zero.clone();
        store_into_zeros(body, adjoints, &mut out, true);
        if let Some(st) = step {
            store_into_zeros(std::slice::from_mut(st), adjoints, &mut out, true);
        }
    }
}

/// Adds the adjoints `e` reads to `live`.
fn read(e: &Expr, adjoints: &HashSet<VarId>, live: &mut HashSet<VarId>) {
    let mut v = Vec::new();
    chef_ir::visit::vars_read_in_expr(e, &mut v);
    live.extend(v.into_iter().filter(|v| adjoints.contains(v)));
}

/// Backward: `live` holds the adjoints some path reads after `stmts`
/// before writing them, and before `stmts` on return. With `rewrite`,
/// zeroings of adjoints not live after them are deleted.
fn drop_dead_zeroings(
    stmts: &mut Vec<Stmt>,
    adjoints: &HashSet<VarId>,
    live: &mut HashSet<VarId>,
    rewrite: bool,
) {
    let mut dead = Vec::new();
    for (k, s) in stmts.iter_mut().enumerate().rev() {
        live_before(s, k, adjoints, live, rewrite, &mut dead);
    }
    if rewrite && !dead.is_empty() {
        let mut k = 0;
        stmts.retain(|_| {
            k += 1;
            !dead.contains(&(k - 1))
        });
    }
}

/// Steps `live` back over statement `s` (index `k` of its block), noting
/// `k` in `dead` when `s` is a zeroing no path reads.
fn live_before(
    s: &mut Stmt,
    k: usize,
    adjoints: &HashSet<VarId>,
    live: &mut HashSet<VarId>,
    rewrite: bool,
    dead: &mut Vec<usize>,
) {
    match &mut s.kind {
        StmtKind::Assign { lhs, op, rhs } => {
            if let LValue::Var(VarRef { id: Some(v), .. }) = lhs {
                if adjoints.contains(v) && *op == AssignOp::Assign {
                    if rewrite && is_pos_zero(rhs) && !live.contains(v) {
                        dead.push(k);
                    }
                    live.remove(v);
                } else if adjoints.contains(v) {
                    live.insert(*v);
                }
            }
            if let LValue::Index { index, .. } = lhs {
                read(index, adjoints, live);
            }
            read(rhs, adjoints, live);
        }
        StmtKind::Decl { id, init, .. } => {
            if let Some(v) = id {
                live.remove(v);
            }
            if let Some(e) = init {
                read(e, adjoints, live);
            }
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let mut other = live.clone();
            drop_dead_zeroings(&mut then_branch.stmts, adjoints, live, rewrite);
            if let Some(b) = else_branch {
                drop_dead_zeroings(&mut b.stmts, adjoints, &mut other, rewrite);
            }
            live.extend(other);
            read(cond, adjoints, live);
        }
        StmtKind::While { cond, body } => {
            loop_live(&mut body.stmts, None, Some(&*cond), adjoints, live, rewrite)
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            loop_live(
                &mut body.stmts,
                step.as_deref_mut(),
                cond.as_ref(),
                adjoints,
                live,
                rewrite,
            );
            if let Some(i) = init {
                live_before(i, 0, adjoints, live, false, &mut Vec::new());
            }
        }
        StmtKind::Block(b) => drop_dead_zeroings(&mut b.stmts, adjoints, live, rewrite),
        StmtKind::TapePush(e) | StmtKind::ExprStmt(e) => read(e, adjoints, live),
        StmtKind::TapePop(lv) => {
            if let LValue::Var(VarRef { id: Some(v), .. }) = lv {
                live.remove(v);
            }
            if let LValue::Index { index, .. } = lv {
                read(index, adjoints, live);
            }
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                read(e, adjoints, live);
            }
        }
    }
}

/// [`drop_dead_zeroings`] over a loop left with `live`: the head's live
/// set is the fixed point of the exit's, the condition's reads and the
/// body's (then the step's) live-in.
fn loop_live(
    body: &mut Vec<Stmt>,
    mut step: Option<&mut Stmt>,
    cond: Option<&Expr>,
    adjoints: &HashSet<VarId>,
    live: &mut HashSet<VarId>,
    rewrite: bool,
) {
    if let Some(c) = cond {
        read(c, adjoints, live);
    }
    loop {
        let mut inner = live.clone();
        if let Some(st) = step.as_deref_mut() {
            live_before(st, 0, adjoints, &mut inner, false, &mut Vec::new());
        }
        drop_dead_zeroings(body, adjoints, &mut inner, false);
        let before = live.len();
        live.extend(inner);
        if live.len() == before {
            break;
        }
    }
    if rewrite {
        let mut inner = live.clone();
        if let Some(st) = step {
            live_before(st, 0, adjoints, &mut inner, false, &mut Vec::new());
        }
        drop_dead_zeroings(body, adjoints, &mut inner, true);
    }
}
