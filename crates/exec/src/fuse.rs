//! Peephole bytecode fusion: collapses the hot multi-instruction idioms
//! the compiler emits into single superinstructions.
//!
//! The pass runs after codegen (wired into [`crate::compile::compile`] behind
//! [`crate::compile::CompileOptions::fuse`], on by default) and rewrites
//! windows of adjacent instructions:
//!
//! | window | fused |
//! |---|---|
//! | `FMul t,a,b` ; `FAdd d,t,c` | [`Instr::FMulAdd`] |
//! | `FMul t,a,b` ; `FConst k` ; `FAdd d,t,k` | `FConst` + [`Instr::FMulAdd`] |
//! | `FAdd/FSub/FMul/FDiv t,a,b` ; `FRound d,t,ty` | [`Instr::FAddRound`] … |
//! | `FIntr1/FIntr2 t,…` ; `FRound d,t,ty` | [`Instr::FIntr1Round`] … |
//! | `FMov t,s` ; `FRound d,t,ty` | [`Instr::FRound`] `d,s,ty` |
//! | `IConst t,c` ; `IAdd d,a,t` | [`Instr::IAddImm`] |
//! | `IConst t,c` ; `IAdd u,i,t` ; `FLoad d,arr,u` | [`Instr::FLoadOff`] |
//! | `IConst t,c` ; `IAdd u,i,t` ; `FStore arr,u,s` | [`Instr::FStoreOff`] |
//! | `FCmp/ICmp t,…` ; `JmpIfFalse/True t,L` | [`Instr::FCmpJmpFalse`] … |
//!
//! A fused form is emitted only when [`crate::pack::fits`] says it has a
//! packed encoding (an `FLoadOff` offset within `i8`, an immediate
//! compare within `i16`, an `FMulAdd` addend register below 256);
//! otherwise the window stays unfused, so fusion never makes a function
//! unpackable.
//!
//! Every fused instruction computes the exact composition of the originals
//! (separate rounding steps, same trap conditions), so fused and unfused
//! programs are **bit-identical** in results, traps and tape counters —
//! only `ExecStats::instrs_executed` shrinks. The `fusion_differential`
//! integration test pins this across every `chef-apps` kernel.
//!
//! ## Safety conditions
//!
//! A window is only fused when eliminating its intermediate register
//! cannot change observable behaviour:
//!
//! * inner window instructions must not be jump targets — no path may
//!   enter the middle of a fused sequence;
//! * the eliminated temporary is either overwritten by the window's own
//!   final instruction, or **dead after the window**: a reachability
//!   query over the bytecode CFG (`Analysis::dead_after`) proves every
//!   path re-writes the register before reading it (parameter registers
//!   are additionally considered read at every function exit, because
//!   call teardown copies them back to the caller).

use crate::bytecode::*;

/// What [`fuse_function`] did, by pattern.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// `FMul`+`FAdd` → [`Instr::FMulAdd`].
    pub mul_add: u32,
    /// Arithmetic + `FRound` → `F*Round`.
    pub op_round: u32,
    /// Constant-offset array loads.
    pub load_off: u32,
    /// Constant-offset array stores.
    pub store_off: u32,
    /// `IConst`+`IAdd` → [`Instr::IAddImm`].
    pub add_imm: u32,
    /// Compare + conditional jump.
    pub cmp_branch: u32,
    /// Intrinsic + `FRound` → [`Instr::FIntr1Round`]/[`Instr::FIntr2Round`].
    pub intr_round: u32,
    /// `FMov` + `FRound` collapsed into one [`Instr::FRound`].
    pub mov_round: u32,
    /// `FConst` + arithmetic → constant-operand forms ([`Instr::FAddC`] …),
    /// and `IConst` + compare-and-branch → [`Instr::ICmpImmJmpFalse`] ….
    pub const_op: u32,
    /// Writing op + `FMov`/`IMov` retargeted to the copy's destination
    /// (generic copy elimination).
    pub mov_elim: u32,
}

impl FuseStats {
    /// The counters as one array (order matches the field declarations).
    fn counters(&mut self) -> [&mut u32; 10] {
        [
            &mut self.mul_add,
            &mut self.op_round,
            &mut self.load_off,
            &mut self.store_off,
            &mut self.add_imm,
            &mut self.cmp_branch,
            &mut self.intr_round,
            &mut self.mov_round,
            &mut self.const_op,
            &mut self.mov_elim,
        ]
    }

    /// Total number of fusions performed.
    pub fn total(&self) -> u32 {
        let mut s = *self;
        s.counters().into_iter().map(|c| *c).sum()
    }
}

impl std::ops::AddAssign for FuseStats {
    fn add_assign(&mut self, mut rhs: FuseStats) {
        for (acc, add) in self.counters().into_iter().zip(rhs.counters()) {
            *acc += *add;
        }
    }
}

/// A register in one of the two scalar files.
///
/// Shared with [`crate::cfg`], which reuses the fuser's read/write/successor
/// analyses for its block-level dataflow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Reg {
    F(u32),
    I(u32),
}

/// Calls `visit` for every scalar register the instruction reads.
pub(crate) fn for_each_read(ins: &Instr, mut visit: impl FnMut(Reg)) {
    macro_rules! fr {
        ($r:expr) => {
            visit(Reg::F($r.0))
        };
    }
    macro_rules! ir {
        ($r:expr) => {
            visit(Reg::I($r.0))
        };
    }
    match ins {
        Instr::FConst { .. }
        | Instr::IConst { .. }
        | Instr::Jmp { .. }
        | Instr::TPopF { .. }
        | Instr::TPopI { .. }
        | Instr::RetVoid
        | Instr::TrapMissingReturn => {}
        Instr::FMov { src, .. }
        | Instr::FNeg { src, .. }
        | Instr::FRound { src, .. }
        | Instr::F2I { src, .. }
        | Instr::TPushF { src } => fr!(*src),
        Instr::FIntr1 { a, .. }
        | Instr::FIntr1Round { a, .. }
        | Instr::FAddC { a, .. }
        | Instr::FSubC { a, .. }
        | Instr::FSubCR { a, .. }
        | Instr::FMulC { a, .. }
        | Instr::FDivC { a, .. }
        | Instr::FDivCR { a, .. } => fr!(*a),
        Instr::FAdd { a, b, .. }
        | Instr::FSub { a, b, .. }
        | Instr::FMul { a, b, .. }
        | Instr::FDiv { a, b, .. }
        | Instr::FIntr2 { a, b, .. }
        | Instr::FIntr2Round { a, b, .. }
        | Instr::FCmp { a, b, .. }
        | Instr::FAddRound { a, b, .. }
        | Instr::FSubRound { a, b, .. }
        | Instr::FMulRound { a, b, .. }
        | Instr::FDivRound { a, b, .. }
        | Instr::FCmpJmpFalse { a, b, .. }
        | Instr::FCmpJmpTrue { a, b, .. } => {
            fr!(*a);
            fr!(*b);
        }
        Instr::FMulAdd { a, b, c, .. } => {
            fr!(*a);
            fr!(*b);
            fr!(*c);
        }
        Instr::FLoad { idx, .. } => ir!(idx),
        Instr::FStore { idx, src, .. } => {
            ir!(idx);
            fr!(*src);
        }
        Instr::FLoadOff { base, .. } => ir!(base),
        Instr::FStoreOff { base, src, .. } => {
            ir!(base);
            fr!(*src);
        }
        Instr::I2F { src, .. }
        | Instr::IMov { src, .. }
        | Instr::INeg { src, .. }
        | Instr::BNot { src, .. }
        | Instr::TPushI { src } => ir!(src),
        Instr::IAdd { a, b, .. }
        | Instr::ISub { a, b, .. }
        | Instr::IMul { a, b, .. }
        | Instr::IDiv { a, b, .. }
        | Instr::IRem { a, b, .. }
        | Instr::ICmp { a, b, .. }
        | Instr::ICmpJmpFalse { a, b, .. }
        | Instr::ICmpJmpTrue { a, b, .. } => {
            ir!(a);
            ir!(b);
        }
        Instr::IAddImm { a, .. }
        | Instr::ICmpImmJmpFalse { a, .. }
        | Instr::ICmpImmJmpTrue { a, .. } => ir!(a),
        Instr::ILoad { idx, .. } => ir!(idx),
        Instr::IStore { idx, src, .. } => {
            ir!(idx);
            ir!(src);
        }
        Instr::JmpIfFalse { cond, .. } | Instr::JmpIfTrue { cond, .. } => ir!(cond),
        Instr::AllocF { len, .. } | Instr::AllocI { len, .. } => ir!(len),
        Instr::RetF { src } => fr!(*src),
        Instr::RetI { src } | Instr::RetB { src } => ir!(src),
    }
}

/// The scalar register the instruction writes, if any.
pub(crate) fn write_of(ins: &Instr) -> Option<Reg> {
    match ins {
        Instr::FConst { dst, .. }
        | Instr::FMov { dst, .. }
        | Instr::FAdd { dst, .. }
        | Instr::FSub { dst, .. }
        | Instr::FMul { dst, .. }
        | Instr::FDiv { dst, .. }
        | Instr::FNeg { dst, .. }
        | Instr::FRound { dst, .. }
        | Instr::FIntr1 { dst, .. }
        | Instr::FIntr2 { dst, .. }
        | Instr::FIntr1Round { dst, .. }
        | Instr::FIntr2Round { dst, .. }
        | Instr::FLoad { dst, .. }
        | Instr::I2F { dst, .. }
        | Instr::TPopF { dst }
        | Instr::FMulAdd { dst, .. }
        | Instr::FAddRound { dst, .. }
        | Instr::FSubRound { dst, .. }
        | Instr::FMulRound { dst, .. }
        | Instr::FDivRound { dst, .. }
        | Instr::FAddC { dst, .. }
        | Instr::FSubC { dst, .. }
        | Instr::FSubCR { dst, .. }
        | Instr::FMulC { dst, .. }
        | Instr::FDivC { dst, .. }
        | Instr::FDivCR { dst, .. }
        | Instr::FLoadOff { dst, .. } => Some(Reg::F(dst.0)),
        Instr::FCmp { dst, .. }
        | Instr::F2I { dst, .. }
        | Instr::IConst { dst, .. }
        | Instr::IMov { dst, .. }
        | Instr::IAdd { dst, .. }
        | Instr::ISub { dst, .. }
        | Instr::IMul { dst, .. }
        | Instr::IDiv { dst, .. }
        | Instr::IRem { dst, .. }
        | Instr::INeg { dst, .. }
        | Instr::ICmp { dst, .. }
        | Instr::ILoad { dst, .. }
        | Instr::BNot { dst, .. }
        | Instr::TPopI { dst }
        | Instr::IAddImm { dst, .. } => Some(Reg::I(dst.0)),
        Instr::FStore { .. }
        | Instr::FStoreOff { .. }
        | Instr::IStore { .. }
        | Instr::Jmp { .. }
        | Instr::JmpIfFalse { .. }
        | Instr::JmpIfTrue { .. }
        | Instr::FCmpJmpFalse { .. }
        | Instr::FCmpJmpTrue { .. }
        | Instr::ICmpJmpFalse { .. }
        | Instr::ICmpJmpTrue { .. }
        | Instr::ICmpImmJmpFalse { .. }
        | Instr::ICmpImmJmpTrue { .. }
        | Instr::TPushF { .. }
        | Instr::TPushI { .. }
        | Instr::AllocF { .. }
        | Instr::AllocI { .. }
        | Instr::RetF { .. }
        | Instr::RetI { .. }
        | Instr::RetB { .. }
        | Instr::RetVoid
        | Instr::TrapMissingReturn => None,
    }
}

/// Successor program points of the instruction at `pc`; `None` marks a
/// function exit (return or fall-off-the-end).
pub(crate) fn successors(ins: &Instr, pc: usize, out: &mut [Option<usize>; 2]) -> bool {
    // Returns `false` when the instruction exits the function.
    *out = [None, None];
    match ins {
        Instr::Jmp { target } => {
            out[0] = Some(*target as usize);
            true
        }
        Instr::JmpIfFalse { target, .. }
        | Instr::JmpIfTrue { target, .. }
        | Instr::FCmpJmpFalse { target, .. }
        | Instr::FCmpJmpTrue { target, .. }
        | Instr::ICmpJmpFalse { target, .. }
        | Instr::ICmpJmpTrue { target, .. }
        | Instr::ICmpImmJmpFalse { target, .. }
        | Instr::ICmpImmJmpTrue { target, .. } => {
            out[0] = Some(*target as usize);
            out[1] = Some(pc + 1);
            true
        }
        Instr::RetF { .. }
        | Instr::RetI { .. }
        | Instr::RetB { .. }
        | Instr::RetVoid
        | Instr::TrapMissingReturn => false,
        _ => {
            out[0] = Some(pc + 1);
            true
        }
    }
}

struct Analysis {
    f_param: Vec<bool>,
    i_param: Vec<bool>,
    is_target: Vec<bool>,
    /// Scratch for [`Analysis::dead_after`] (reused across queries).
    visited: std::cell::RefCell<Vec<bool>>,
}

impl Analysis {
    fn of(func: &CompiledFunction) -> Self {
        let mut a = Analysis {
            f_param: vec![false; func.n_fregs as usize],
            i_param: vec![false; func.n_iregs as usize],
            is_target: vec![false; func.instrs.len() + 1],
            visited: std::cell::RefCell::new(vec![false; func.instrs.len()]),
        };
        for ins in &func.instrs {
            match ins {
                Instr::Jmp { target }
                | Instr::JmpIfFalse { target, .. }
                | Instr::JmpIfTrue { target, .. }
                | Instr::FCmpJmpFalse { target, .. }
                | Instr::FCmpJmpTrue { target, .. }
                | Instr::ICmpJmpFalse { target, .. }
                | Instr::ICmpJmpTrue { target, .. }
                | Instr::ICmpImmJmpFalse { target, .. }
                | Instr::ICmpImmJmpTrue { target, .. } => {
                    if let Some(t) = a.is_target.get_mut(*target as usize) {
                        *t = true;
                    }
                }
                _ => {}
            }
        }
        for p in &func.params {
            match p.kind {
                ParamKind::F(_) => a.f_param[p.reg as usize] = true,
                ParamKind::I | ParamKind::B => a.i_param[p.reg as usize] = true,
                ParamKind::FArr(_) | ParamKind::IArr => {}
            }
        }
        a
    }

    fn is_param(&self, reg: Reg) -> bool {
        match reg {
            Reg::F(r) => self.f_param.get(r as usize).copied().unwrap_or(false),
            Reg::I(r) => self.i_param.get(r as usize).copied().unwrap_or(false),
        }
    }

    /// `true` when `reg` is dead at every program point in `starts`: no
    /// path reads it before writing it. Function exits count as reads of
    /// parameter registers (call teardown copies them back).
    ///
    /// The compiler reuses temporary registers across statements, so this
    /// reachability query (rather than a global read count) is what makes
    /// the fusion patterns actually fire: a temp's next use is always
    /// preceded by a fresh write, which terminates the search.
    fn dead_after(&self, func: &CompiledFunction, starts: &[usize], reg: Reg) -> bool {
        let instrs = &func.instrs;
        let mut visited = self.visited.borrow_mut();
        visited.iter_mut().for_each(|v| *v = false);
        let mut stack: Vec<usize> = Vec::with_capacity(8);
        let exit_reads = self.is_param(reg);
        for &s in starts {
            if s >= instrs.len() {
                if exit_reads {
                    return false;
                }
            } else {
                stack.push(s);
            }
        }
        while let Some(pc) = stack.pop() {
            if visited[pc] {
                continue;
            }
            visited[pc] = true;
            let ins = &instrs[pc];
            let mut read = false;
            for_each_read(ins, |r| read |= r == reg);
            if read {
                return false;
            }
            if write_of(ins) == Some(reg) {
                continue; // overwritten: this path is safe
            }
            let mut succ = [None, None];
            if !successors(ins, pc, &mut succ) && exit_reads {
                return false;
            }
            for s in succ.into_iter().flatten() {
                if s >= instrs.len() {
                    if exit_reads {
                        return false;
                    }
                } else if !visited[s] {
                    stack.push(s);
                }
            }
        }
        true
    }
}

/// One fusion decision: the replacement instructions and the number of
/// original instructions they consume.
struct Rewrite {
    out: [Option<Instr>; 2],
    width: usize,
}

impl Rewrite {
    fn one(ins: Instr, width: usize) -> Option<Rewrite> {
        Some(Rewrite {
            out: [Some(ins), None],
            width,
        })
    }

    fn two(first: Instr, second: Instr, width: usize) -> Option<Rewrite> {
        Some(Rewrite {
            out: [Some(first), Some(second)],
            width,
        })
    }
}

/// Runs [`fuse_function`] to fixpoint: one pass's rewrites expose new
/// windows to the next (a constant-operand op followed by the `Mov` that
/// stored its temp, a compare freshly adjacent to its branch, …). Every
/// rewrite strictly shrinks the stream, so this terminates; the returned
/// stats are the accumulated totals. This is what [`crate::compile::compile`]
/// invokes.
pub fn fuse_to_fixpoint(func: &mut CompiledFunction) -> FuseStats {
    let mut acc = FuseStats::default();
    loop {
        let pass = fuse_function(func);
        if pass.total() == 0 {
            return acc;
        }
        acc += pass;
    }
}

/// Fuses `func` in place (one pass); returns what happened. Callers
/// wanting the full effect run [`fuse_to_fixpoint`] — a single pass can
/// expose further windows.
pub fn fuse_function(func: &mut CompiledFunction) -> FuseStats {
    // The pass rewrites the instruction stream, so any packed form is
    // stale; [`crate::compile`] re-packs after fusing.
    func.packed = None;
    let analysis = Analysis::of(func);
    let mut stats = FuseStats::default();
    let old_len = func.instrs.len();
    let mut out: Vec<Instr> = Vec::with_capacity(old_len);
    let mut out_spans = Vec::with_capacity(old_len);
    // old instruction index → new index (old_len maps to the new end).
    let mut remap: Vec<u32> = vec![0; old_len + 1];

    let mut pc = 0usize;
    while pc < old_len {
        let rewrite = match_window(func, &analysis, pc, &mut stats);
        let (instrs_out, width) = match rewrite {
            Some(Rewrite { out, width }) => (out, width),
            None => ([Some(func.instrs[pc].clone()), None], 1),
        };
        remap[pc..pc + width].fill(out.len() as u32);
        // The fused window traps/behaves as its final original
        // instruction; keep that span for diagnostics.
        let span = func.spans[pc + width - 1];
        for ins in instrs_out.into_iter().flatten() {
            out.push(ins);
            out_spans.push(span);
        }
        pc += width;
    }
    remap[old_len] = out.len() as u32;

    for ins in &mut out {
        match ins {
            Instr::Jmp { target }
            | Instr::JmpIfFalse { target, .. }
            | Instr::JmpIfTrue { target, .. }
            | Instr::FCmpJmpFalse { target, .. }
            | Instr::FCmpJmpTrue { target, .. }
            | Instr::ICmpJmpFalse { target, .. }
            | Instr::ICmpJmpTrue { target, .. }
            | Instr::ICmpImmJmpFalse { target, .. }
            | Instr::ICmpImmJmpTrue { target, .. } => *target = remap[*target as usize],
            _ => {}
        }
    }
    func.instrs = out;
    func.spans = out_spans;
    stats
}

/// Tries every fusion pattern anchored at `pc`: the shape-specific
/// patterns first, then generic copy elimination.
fn match_window(
    func: &CompiledFunction,
    analysis: &Analysis,
    pc: usize,
    stats: &mut FuseStats,
) -> Option<Rewrite> {
    match_specific(func, analysis, pc, stats).or_else(|| mov_elim(func, analysis, pc, stats))
}

/// Generic copy elimination: any instruction that writes a scalar
/// register `t`, immediately followed by a same-file `Mov d ← t` with `t`
/// dead afterwards, is retargeted to write `d` directly. This collapses
/// the compiler's compute-into-temp / move-into-variable idiom (3 of the
/// 13 instructions in a typical inner loop) and composes with the other
/// patterns across fixpoint passes.
fn mov_elim(
    func: &CompiledFunction,
    analysis: &Analysis,
    pc: usize,
    stats: &mut FuseStats,
) -> Option<Rewrite> {
    let ins = func.instrs.get(pc)?;
    let t = write_of(ins)?;
    if analysis.is_target[pc + 1] {
        return None;
    }
    let d = match (t, func.instrs.get(pc + 1)?) {
        (Reg::F(tr), &Instr::FMov { dst, src }) if src.0 == tr => Reg::F(dst.0),
        (Reg::I(tr), &Instr::IMov { dst, src }) if src.0 == tr => Reg::I(dst.0),
        _ => return None,
    };
    if d == t || !analysis.dead_after(func, &[pc + 2], t) {
        return None;
    }
    let retargeted = with_dst(ins, d)?;
    stats.mov_elim += 1;
    Rewrite::one(retargeted, 2)
}

/// The instruction with its scalar destination replaced by `d` (same
/// register file). `None` for instructions this does not apply to.
fn with_dst(ins: &Instr, d: Reg) -> Option<Instr> {
    let mut out = ins.clone();
    let new = match (&mut out, d) {
        (Instr::FConst { dst, .. }, Reg::F(r))
        | (Instr::FMov { dst, .. }, Reg::F(r))
        | (Instr::FAdd { dst, .. }, Reg::F(r))
        | (Instr::FSub { dst, .. }, Reg::F(r))
        | (Instr::FMul { dst, .. }, Reg::F(r))
        | (Instr::FDiv { dst, .. }, Reg::F(r))
        | (Instr::FNeg { dst, .. }, Reg::F(r))
        | (Instr::FRound { dst, .. }, Reg::F(r))
        | (Instr::FIntr1 { dst, .. }, Reg::F(r))
        | (Instr::FIntr2 { dst, .. }, Reg::F(r))
        | (Instr::FIntr1Round { dst, .. }, Reg::F(r))
        | (Instr::FIntr2Round { dst, .. }, Reg::F(r))
        | (Instr::FLoad { dst, .. }, Reg::F(r))
        | (Instr::I2F { dst, .. }, Reg::F(r))
        | (Instr::TPopF { dst }, Reg::F(r))
        | (Instr::FMulAdd { dst, .. }, Reg::F(r))
        | (Instr::FAddRound { dst, .. }, Reg::F(r))
        | (Instr::FSubRound { dst, .. }, Reg::F(r))
        | (Instr::FMulRound { dst, .. }, Reg::F(r))
        | (Instr::FDivRound { dst, .. }, Reg::F(r))
        | (Instr::FAddC { dst, .. }, Reg::F(r))
        | (Instr::FSubC { dst, .. }, Reg::F(r))
        | (Instr::FSubCR { dst, .. }, Reg::F(r))
        | (Instr::FMulC { dst, .. }, Reg::F(r))
        | (Instr::FDivC { dst, .. }, Reg::F(r))
        | (Instr::FDivCR { dst, .. }, Reg::F(r))
        | (Instr::FLoadOff { dst, .. }, Reg::F(r)) => {
            *dst = FReg(r);
            true
        }
        (Instr::FCmp { dst, .. }, Reg::I(r))
        | (Instr::F2I { dst, .. }, Reg::I(r))
        | (Instr::IConst { dst, .. }, Reg::I(r))
        | (Instr::IMov { dst, .. }, Reg::I(r))
        | (Instr::IAdd { dst, .. }, Reg::I(r))
        | (Instr::ISub { dst, .. }, Reg::I(r))
        | (Instr::IMul { dst, .. }, Reg::I(r))
        | (Instr::IDiv { dst, .. }, Reg::I(r))
        | (Instr::IRem { dst, .. }, Reg::I(r))
        | (Instr::INeg { dst, .. }, Reg::I(r))
        | (Instr::ICmp { dst, .. }, Reg::I(r))
        | (Instr::ILoad { dst, .. }, Reg::I(r))
        | (Instr::BNot { dst, .. }, Reg::I(r))
        | (Instr::TPopI { dst }, Reg::I(r))
        | (Instr::IAddImm { dst, .. }, Reg::I(r)) => {
            *dst = IReg(r);
            true
        }
        _ => false,
    };
    new.then_some(out)
}

/// Tries the shape-specific fusion patterns anchored at `pc`.
fn match_specific(
    func: &CompiledFunction,
    analysis: &Analysis,
    pc: usize,
    stats: &mut FuseStats,
) -> Option<Rewrite> {
    let instrs = &func.instrs;
    let at = |k: usize| instrs.get(pc + k);
    // Inner window instructions must not be jump targets: no path may
    // enter the middle of a fused sequence.
    let free = |k: usize| !analysis.is_target[pc + k];
    // The eliminated temp is dead right after the window (which starts at
    // `pc + width`; the last window instruction here is never a branch).
    let dead_f = |width: usize, r: FReg| analysis.dead_after(func, &[pc + width], Reg::F(r.0));
    let dead_i = |width: usize, r: IReg| analysis.dead_after(func, &[pc + width], Reg::I(r.0));

    match *at(0)? {
        // IConst t ; IAdd … — address arithmetic and loop increments —
        // or IConst t ; ICmpJmp… — the constant-bound loop test.
        Instr::IConst { dst: t, v } => {
            if let Some(&Instr::IAdd { dst: u, a, b }) = at(1) {
                if !free(1) {
                    return None;
                }
                let base = other_operand(Reg::I(t.0), Reg::I(a.0), Reg::I(b.0))?;
                let base = IReg(base);
                // 3-instruction form: the sum feeds an array access. Taken
                // only when the fused form has a packed encoding
                // (`pack::fits`); otherwise the add-immediate form below
                // still applies.
                let fused = match (i32::try_from(v), at(2)) {
                    (Ok(off), Some(&Instr::FLoad { dst, arr, idx })) if idx == u => Some((
                        Instr::FLoadOff {
                            dst,
                            arr,
                            base,
                            off,
                        },
                        &mut stats.load_off,
                    )),
                    (Ok(off), Some(&Instr::FStore { arr, idx, src })) if idx == u => Some((
                        Instr::FStoreOff {
                            arr,
                            base,
                            off,
                            src,
                        },
                        &mut stats.store_off,
                    )),
                    _ => None,
                };
                if let Some((ins, count)) = fused {
                    let fits = free(2) && u != t && crate::pack::fits(&ins);
                    if fits && dead_i(3, u) && dead_i(3, t) {
                        *count += 1;
                        return Rewrite::one(ins, 3);
                    }
                }
                // 2-instruction form: plain add-immediate.
                if u == t || dead_i(2, t) {
                    stats.add_imm += 1;
                    return Rewrite::one(
                        Instr::IAddImm {
                            dst: u,
                            a: base,
                            imm: v,
                        },
                        2,
                    );
                }
                return None;
            }
            // IConst t ; ICmpJmpFalse/True involving t → immediate
            // compare-and-branch (the `i <= 5` inner-loop test), when the
            // immediate fits the packed form.
            let (op, a, b, target, neg) = match *at(1)? {
                Instr::ICmpJmpFalse { op, a, b, target } if free(1) => (op, a, b, target, true),
                Instr::ICmpJmpTrue { op, a, b, target } if free(1) => (op, a, b, target, false),
                _ => return None,
            };
            // Normalize the constant onto the right: mirror the operator
            // when the constant is the left operand.
            let (op, reg) = if b == t && a != t {
                (op, a)
            } else if a == t && b != t {
                (op.mirror(), b)
            } else {
                return None;
            };
            let ins = if neg {
                Instr::ICmpImmJmpFalse {
                    op,
                    a: reg,
                    imm: v,
                    target,
                }
            } else {
                Instr::ICmpImmJmpTrue {
                    op,
                    a: reg,
                    imm: v,
                    target,
                }
            };
            if !crate::pack::fits(&ins)
                || !analysis.dead_after(func, &[target as usize, pc + 2], Reg::I(t.0))
            {
                return None;
            }
            stats.const_op += 1;
            Rewrite::one(ins, 2)
        }
        // FConst t ; arithmetic using t → constant-operand form: the
        // constant stops being re-materialized on every loop iteration.
        Instr::FConst { dst: t, v } => {
            let (ins, dst) = match *at(1)? {
                Instr::FAdd { dst, a: x, b: y } if free(1) => {
                    let o = FReg(other_operand(Reg::F(t.0), Reg::F(x.0), Reg::F(y.0))?);
                    (Instr::FAddC { dst, a: o, k: v }, dst)
                }
                Instr::FMul { dst, a: x, b: y } if free(1) => {
                    let o = FReg(other_operand(Reg::F(t.0), Reg::F(x.0), Reg::F(y.0))?);
                    (Instr::FMulC { dst, a: o, k: v }, dst)
                }
                Instr::FSub { dst, a: x, b: y } if free(1) && y == t && x != t => {
                    (Instr::FSubC { dst, a: x, k: v }, dst)
                }
                Instr::FSub { dst, a: x, b: y } if free(1) && x == t && y != t => {
                    (Instr::FSubCR { dst, k: v, a: y }, dst)
                }
                Instr::FDiv { dst, a: x, b: y } if free(1) && y == t && x != t => {
                    (Instr::FDivC { dst, a: x, k: v }, dst)
                }
                Instr::FDiv { dst, a: x, b: y } if free(1) && x == t && y != t => {
                    (Instr::FDivCR { dst, k: v, a: y }, dst)
                }
                _ => return None,
            };
            if dst == t || dead_f(2, t) {
                stats.const_op += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }
        // FMul t,a,b ; [FConst k ;] FAdd d,t,c  →  FMulAdd.
        Instr::FMul { dst: t, a, b } => {
            match *at(1)? {
                Instr::FAdd { dst, a: x, b: y } if free(1) => {
                    let c = FReg(other_operand(Reg::F(t.0), Reg::F(x.0), Reg::F(y.0))?);
                    let ins = Instr::FMulAdd { dst, a, b, c };
                    if crate::pack::fits(&ins) && (dst == t || dead_f(2, t)) {
                        stats.mul_add += 1;
                        return Rewrite::one(ins, 2);
                    }
                    None
                }
                // The addend constant is often materialized between the
                // mul and the add (`x * y + 3.5`); hoist it above the
                // fused op. Safe when the constant register is distinct
                // from the product and the mul operands.
                Instr::FConst { dst: k, v } if free(1) && k != t && k != a && k != b => {
                    let &Instr::FAdd { dst, a: x, b: y } = at(2)? else {
                        return None;
                    };
                    if !free(2) {
                        return None;
                    }
                    let c = FReg(other_operand(Reg::F(t.0), Reg::F(x.0), Reg::F(y.0))?);
                    let ins = Instr::FMulAdd { dst, a, b, c };
                    if crate::pack::fits(&ins) && (dst == t || dead_f(3, t)) {
                        stats.mul_add += 1;
                        return Rewrite::two(Instr::FConst { dst: k, v }, ins, 3);
                    }
                    None
                }
                Instr::FRound { dst, src, ty } if free(1) && src == t => {
                    if dst == t || dead_f(2, t) {
                        stats.op_round += 1;
                        return Rewrite::one(Instr::FMulRound { dst, a, b, ty }, 2);
                    }
                    None
                }
                _ => None,
            }
        }
        // FAdd/FSub/FDiv t,a,b ; FRound d,t  →  fused op+round.
        Instr::FAdd { dst: t, a, b } => fuse_round(at(1), free(1), t, |dst, ty| Instr::FAddRound {
            dst,
            a,
            b,
            ty,
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.op_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        Instr::FSub { dst: t, a, b } => fuse_round(at(1), free(1), t, |dst, ty| Instr::FSubRound {
            dst,
            a,
            b,
            ty,
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.op_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        Instr::FDiv { dst: t, a, b } => fuse_round(at(1), free(1), t, |dst, ty| Instr::FDivRound {
            dst,
            a,
            b,
            ty,
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.op_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        // FIntr1/FIntr2 t,… ; FRound d,t  →  fused intrinsic+round (the
        // `float y = sin(x)` idiom in demoted code).
        Instr::FIntr1 { dst: t, intr, a } => fuse_round(at(1), free(1), t, |dst, ty| {
            Instr::FIntr1Round { dst, intr, a, ty }
        })
        .and_then(|(ins, dst)| {
            if dst == t || dead_f(2, t) {
                stats.intr_round += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }),
        Instr::FIntr2 { dst: t, intr, a, b } => {
            fuse_round(at(1), free(1), t, |dst, ty| Instr::FIntr2Round {
                dst,
                intr,
                a,
                b,
                ty,
            })
            .and_then(|(ins, dst)| {
                if dst == t || dead_f(2, t) {
                    stats.intr_round += 1;
                    Rewrite::one(ins, 2)
                } else {
                    None
                }
            })
        }
        // FMov t,s ; FRound d,t  →  FRound d,s (the demoted-assignment
        // copy; the round reads through the mov).
        Instr::FMov { dst: t, src } => {
            fuse_round(at(1), free(1), t, |dst, ty| Instr::FRound { dst, src, ty }).and_then(
                |(ins, dst)| {
                    if dst == t || dead_f(2, t) {
                        stats.mov_round += 1;
                        Rewrite::one(ins, 2)
                    } else {
                        None
                    }
                },
            )
        }
        // FCmp/ICmp t ; JmpIfFalse/True t  →  compare-and-branch. The
        // condition register is not written by the fused form, so it must
        // be dead along both branch successors.
        Instr::FCmp { dst: t, op, a, b } => {
            let (ins, target) = match *at(1)? {
                Instr::JmpIfFalse { cond, target } if free(1) && cond == t => {
                    (Instr::FCmpJmpFalse { op, a, b, target }, target)
                }
                Instr::JmpIfTrue { cond, target } if free(1) && cond == t => {
                    (Instr::FCmpJmpTrue { op, a, b, target }, target)
                }
                _ => return None,
            };
            if analysis.dead_after(func, &[target as usize, pc + 2], Reg::I(t.0)) {
                stats.cmp_branch += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }
        Instr::ICmp { dst: t, op, a, b } => {
            if a == t || b == t {
                return None;
            }
            let (ins, target) = match *at(1)? {
                Instr::JmpIfFalse { cond, target } if free(1) && cond == t => {
                    (Instr::ICmpJmpFalse { op, a, b, target }, target)
                }
                Instr::JmpIfTrue { cond, target } if free(1) && cond == t => {
                    (Instr::ICmpJmpTrue { op, a, b, target }, target)
                }
                _ => return None,
            };
            if analysis.dead_after(func, &[target as usize, pc + 2], Reg::I(t.0)) {
                stats.cmp_branch += 1;
                Rewrite::one(ins, 2)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Matches `FRound d, t, ty` following an arithmetic op that wrote `t`.
fn fuse_round(
    next: Option<&Instr>,
    free: bool,
    t: FReg,
    make: impl FnOnce(FReg, chef_ir::types::FloatTy) -> Instr,
) -> Option<(Instr, FReg)> {
    match next? {
        &Instr::FRound { dst, src, ty } if free && src == t => Some((make(dst, ty), dst)),
        _ => None,
    }
}

/// When exactly one of `x`/`y` equals `t`, returns the raw index of the
/// other operand.
fn other_operand(t: Reg, x: Reg, y: Reg) -> Option<u32> {
    let raw = |r: Reg| match r {
        Reg::F(v) | Reg::I(v) => v,
    };
    match (x == t, y == t) {
        (true, false) => Some(raw(y)),
        (false, true) => Some(raw(x)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::value::ArgValue;
    use crate::vm::{CallOutcome, Trap};
    use chef_ir::parser::parse_program;
    use chef_ir::typeck::check_program;

    /// Packs `f` and runs it: fusion drops the stale packed form, and
    /// only packed code runs.
    fn run(f: &CompiledFunction, args: Vec<ArgValue>) -> Result<CallOutcome, Trap> {
        let mut f = f.clone();
        f.packed = crate::pack::pack_function(&f);
        crate::vm::run(&f, args)
    }

    fn compile_unfused(src: &str) -> CompiledFunction {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            fuse: false,
            // A pristine stream: these tests drive `fuse_function`
            // by hand and match on exact pre-fusion shapes, which the
            // CFG tier's LICM would rearrange (e.g. hoisting the loop
            // constants `IAddImm` fusion wants to see in the body).
            cfg: false,
            ..Default::default()
        };
        compile(&p.functions[0], &opts).unwrap()
    }

    #[test]
    fn loop_condition_and_increment_fuse() {
        let mut f = compile_unfused(
            "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += 1.0; } return s; }",
        );
        let stats = fuse_function(&mut f);
        assert!(stats.cmp_branch >= 1, "{stats:?}\n{}", f.disassemble());
        assert!(stats.add_imm >= 1, "{stats:?}\n{}", f.disassemble());
        let out = run(&f, vec![ArgValue::I(100)]).unwrap();
        assert_eq!(out.ret_f(), 100.0);
    }

    #[test]
    fn mul_add_fuses_and_matches_unfused() {
        let src = "double f(double x, double y) { return x * y + 3.5; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.mul_add >= 1, "{stats:?}\n{}", fused.disassemble());
        let a = run(&fused, vec![ArgValue::F(1.1), ArgValue::F(2.2)]).unwrap();
        let b = run(&unfused, vec![ArgValue::F(1.1), ArgValue::F(2.2)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    }

    #[test]
    fn mul_add_is_not_an_fma() {
        // The fused form must round the product before the add, exactly
        // like the two original instructions.
        let src = "double f(double x, double y, double z) { return x * y + z; }";
        let mut fused = compile_unfused(src);
        fuse_function(&mut fused);
        assert!(fused
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::FMulAdd { .. })));
        let (x, y, z) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        let expect = x * y + z; // two roundings
        let fma = x.mul_add(y, z); // one rounding — must NOT match
        let got = run(&fused, vec![ArgValue::F(x), ArgValue::F(y), ArgValue::F(z)])
            .unwrap()
            .ret_f();
        assert_eq!(got.to_bits(), expect.to_bits());
        assert_ne!(got.to_bits(), fma.to_bits());
    }

    #[test]
    fn demoted_arithmetic_fuses_op_round() {
        let src = "float f(float x, float y) { float z; z = x * y; return z; }";
        let mut fused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.op_round >= 1, "{stats:?}\n{}", fused.disassemble());
        assert!(
            fused
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::FMulRound { .. })),
            "{}",
            fused.disassemble()
        );
        // Same rounding behaviour as the unfused program.
        let unfused = compile_unfused(src);
        let args = vec![ArgValue::F(1.0 / 3.0), ArgValue::F(3.0 / 7.0)];
        let a = run(&fused, args.clone()).unwrap();
        let b = run(&unfused, args).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    }

    #[test]
    fn constant_offset_array_access_fuses() {
        let src = "double f(double a[], int i) { return a[i + 1] + a[i - 0]; }";
        let mut fused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.load_off >= 1, "{stats:?}\n{}", fused.disassemble());
        let out = run(
            &fused,
            vec![ArgValue::FArr(vec![10.0, 20.0, 30.0]), ArgValue::I(1)],
        )
        .unwrap();
        assert_eq!(out.ret_f(), 30.0 + 20.0);
    }

    #[test]
    fn constant_offset_store_fuses() {
        let src = "void f(double a[], int i, double v) { a[i + 2] = v; }";
        let mut fused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.store_off >= 1, "{stats:?}\n{}", fused.disassemble());
        let out = run(
            &fused,
            vec![
                ArgValue::FArr(vec![0.0; 5]),
                ArgValue::I(1),
                ArgValue::F(9.5),
            ],
        )
        .unwrap();
        assert_eq!(out.args[0].as_farr(), &[0.0, 0.0, 0.0, 9.5, 0.0]);
    }

    #[test]
    fn fused_load_still_bounds_checks() {
        let src = "double f(double a[], int i) { return a[i + 1]; }";
        let mut fused = compile_unfused(src);
        fuse_function(&mut fused);
        let err = run(&fused, vec![ArgValue::FArr(vec![1.0, 2.0]), ArgValue::I(5)]).unwrap_err();
        assert!(
            matches!(err.kind, crate::vm::TrapKind::OobIndex { idx: 6, len: 2 }),
            "{err:?}"
        );
    }

    #[test]
    fn jump_targets_survive_fusion() {
        // Nested control flow with fusable windows before and after the
        // branches: all jumps must land where they used to.
        let src = "double f(int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { s += i * 1.5 + 0.25; } else { s -= 0.5; }
            }
            return s;
        }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_function(&mut fused);
        assert!(stats.total() > 0);
        for n in [0i64, 1, 2, 7, 100] {
            let a = run(&fused, vec![ArgValue::I(n)]).unwrap();
            let b = run(&unfused, vec![ArgValue::I(n)]).unwrap();
            assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits(), "n={n}");
        }
    }

    #[test]
    fn fixpoint_is_stable() {
        let src = "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += i * 2.0 + 1.0; } return s; }";
        let mut f = compile_unfused(src);
        let first = fuse_to_fixpoint(&mut f);
        assert!(first.total() > 0);
        let snapshot = f.instrs.clone();
        let again = fuse_function(&mut f);
        assert_eq!(again.total(), 0, "{again:?}");
        assert_eq!(f.instrs, snapshot);
    }

    #[test]
    fn intrinsic_round_fuses_and_matches_unfused() {
        let src =
            "float f(float x) { float y; y = sin(x) + 0.0; float z; z = pow(y, 2.0); return z; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        assert!(stats.intr_round >= 1, "{stats:?}\n{}", fused.disassemble());
        let args = vec![ArgValue::F(0.7)];
        let a = run(&fused, args.clone()).unwrap();
        let b = run(&unfused, args).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
        assert!(a.stats.instrs_executed < b.stats.instrs_executed);
    }

    #[test]
    fn mov_round_collapses_to_single_round() {
        use chef_ir::span::Span;
        use chef_ir::types::FloatTy;
        // The compiler mostly emits FRound directly, so pin the window on
        // hand-built bytecode: FMov t←x ; FRound d←t must become
        // FRound d←x when t is dead.
        let mut f = CompiledFunction {
            name: "mr".into(),
            instrs: vec![
                Instr::FMov {
                    dst: FReg(1),
                    src: FReg(0),
                },
                Instr::FRound {
                    dst: FReg(2),
                    src: FReg(1),
                    ty: FloatTy::F32,
                },
                Instr::RetF { src: FReg(2) },
            ],
            spans: vec![Span::DUMMY; 3],
            n_fregs: 3,
            n_iregs: 0,
            n_aregs: 0,
            params: vec![ParamSpec {
                name: "x".into(),
                kind: ParamKind::F(FloatTy::F64),
                by_ref: false,
                reg: 0,
            }],
            ret: RetKind::F(FloatTy::F64),
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        let stats = fuse_to_fixpoint(&mut f);
        assert!(stats.mov_round >= 1, "{stats:?}\n{}", f.disassemble());
        assert!(matches!(
            f.instrs[0],
            Instr::FRound {
                dst: FReg(2),
                src: FReg(0),
                ty: FloatTy::F32
            }
        ));
        let x = 1.0 / 3.0;
        let out = run(&f, vec![ArgValue::F(x)]).unwrap();
        assert_eq!(out.ret_f(), x as f32 as f64);
    }

    #[test]
    fn loop_constants_fuse_into_operands() {
        // `k * 2.0` and `i <= 5` re-materialize constants every iteration
        // without the const+op patterns.
        let src = "double f(double x) {
            double k = 1.0;
            for (int j = 1; j <= 5; j++) { k = k * 2.0 + x / 4.0; }
            return k;
        }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        assert!(stats.const_op >= 2, "{stats:?}\n{}", fused.disassemble());
        assert!(
            fused
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::FMulC { .. })),
            "{}",
            fused.disassemble()
        );
        assert!(
            fused.instrs.iter().any(|i| matches!(
                i,
                Instr::ICmpImmJmpFalse { .. } | Instr::ICmpImmJmpTrue { .. }
            )),
            "{}",
            fused.disassemble()
        );
        let a = run(&fused, vec![ArgValue::F(0.123)]).unwrap();
        let b = run(&unfused, vec![ArgValue::F(0.123)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
    }

    #[test]
    fn copy_elimination_retargets_ops() {
        // `s = s + d` compiles to FAdd-into-temp + FMov-into-s; copy
        // elimination folds the mov away.
        let src = "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s = s + 1.5; } return s; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        let stats = fuse_to_fixpoint(&mut fused);
        assert!(stats.mov_elim >= 1, "{stats:?}\n{}", fused.disassemble());
        assert!(
            !fused.instrs.iter().any(|i| matches!(i, Instr::FMov { .. })),
            "copies survived:\n{}",
            fused.disassemble()
        );
        let a = run(&fused, vec![ArgValue::I(1000)]).unwrap();
        let b = run(&unfused, vec![ArgValue::I(1000)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
        assert_eq!(a.ret_f(), 1500.0);
    }

    #[test]
    fn by_ref_param_register_is_not_dropped() {
        // `out` is a by-ref scalar: its register is read at call exit, so
        // fusion must never treat it as dead at a return.
        let src = "void f(double x, double &out) { out = x * 2.0 + 1.0; }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        fuse_function(&mut fused);
        let a = run(&fused, vec![ArgValue::F(3.0), ArgValue::F(0.0)]).unwrap();
        let b = run(&unfused, vec![ArgValue::F(3.0), ArgValue::F(0.0)]).unwrap();
        assert_eq!(a.args[1], b.args[1]);
        assert_eq!(a.args[1], ArgValue::F(7.0));
    }

    #[test]
    fn instruction_count_shrinks_on_app_style_loop() {
        let src = "double f(int n) {
            double s = 0.0;
            for (int i = 1; i <= n; i++) {
                double d = i * 0.001;
                s += d * d + 1.0;
            }
            return s;
        }";
        let mut fused = compile_unfused(src);
        let unfused = compile_unfused(src);
        fuse_function(&mut fused);
        let a = run(&fused, vec![ArgValue::I(1000)]).unwrap();
        let b = run(&unfused, vec![ArgValue::I(1000)]).unwrap();
        assert_eq!(a.ret_f().to_bits(), b.ret_f().to_bits());
        assert!(
            a.stats.instrs_executed < b.stats.instrs_executed,
            "fused {} !< unfused {}",
            a.stats.instrs_executed,
            b.stats.instrs_executed
        );
    }
}
