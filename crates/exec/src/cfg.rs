//! CFG + dominators + natural-loops optimizer tier.
//!
//! The fuser ([`crate::fuse`]) is a peephole over a linear instruction
//! window; this module is the first piece of *real* compiler
//! infrastructure over the bytecode: basic-block CFG construction,
//! a dominator tree (Cooper–Harvey–Kennedy iterative algorithm),
//! natural-loop detection via back edges, and a dominance-powered pass
//! tier that runs between `fuse_to_fixpoint` and `pack` (see
//! [`crate::compile::CompileOptions::cfg`], env-gated by
//! `CHEF_EXEC_CFG=0`):
//!
//! * **Loop-invariant code motion** ([`optimize`]): hoists invariant
//!   pure instructions out of natural loops into a synthesized
//!   preheader, so arclen-class kernels stop re-executing (and, in
//!   oracle mode, re-shadowing) the same computation every iteration.
//! * **Register-file compaction**: dead register slots (vacated by
//!   fusion and by hoist renaming) are squeezed out with a dense
//!   renumbering, so pooled [`crate::vm::Machine`]s allocate smaller
//!   register files on every arena checkout.
//!
//! ## Trap/deadline safety of hoisting
//!
//! Hoisting reorders an instruction relative to the loop's trip-count
//! test, so every candidate must preserve the *exact* observable trap
//! behaviour of the unoptimized stream — including the opt-in
//! [`crate::vm::TrapKind::NonFinite`] check on every float write and
//! the cooperative deadline probe at backward jumps. Candidates are
//! split into two classes:
//!
//! * **Class A — never-trapping writes**, hoisted *unguarded*: finite
//!   `FConst`, `FMov`, `FNeg`, `I2F` (an `i64 as f64` is always
//!   finite; a finite float copy/negation stays finite, because under
//!   `trap_on_nonfinite` every previously written float register has
//!   already passed its own write check), and the pure trap-free int
//!   ops (`IConst`/`IMov`/`IAdd`/`ISub`/`IMul`/`INeg`/`BNot`/`ICmp`/
//!   `IAddImm`). Executing one of these on a zero-trip entry is
//!   invisible: the write is trap-free and its value can only be read
//!   by uses dominated by the original definition.
//! * **Class B — float ops whose result may be non-finite** (`FAdd`,
//!   `FMul`, `FDiv`, rounds, intrinsics, constant-operand forms, the
//!   fused error term `FAbsMulC`, …), hoisted behind a **zero-trip
//!   guard**: a copy of the loop header's integer compare-and-branch
//!   exit test, retargeted to skip the hoisted block when the loop
//!   would not execute. With the guard,
//!   the hoisted op executes exactly when the first iteration would
//!   have executed it, with bit-identical operands, so a `NonFinite`
//!   trap fires in the optimized stream iff it fired in the original
//!   (same kind, same source span; only the reported `pc` moves, as it
//!   already does under fusion). Class B additionally requires the
//!   defining block to dominate every back-edge source and every
//!   non-header exit source, so "first iteration runs" implies "the
//!   original instruction ran". Float-compare exit tests are never
//!   used as guards and `FCmp`/`F2I` are never hoisted: the shadow
//!   interpreter re-evaluates those on shadow operands, and
//!   duplicating or de-duplicating them would change divergence
//!   reports.
//!
//! `IDiv`/`IRem` (DivByZero), loads/stores and accumulations (OobIndex,
//! memory order), tape ops (side effects) and anything reading a
//! register written in the loop are never hoisted. Deadline/budget
//! semantics are unchanged: hoisted code is straight-line (probes
//! happen only at taken backward jumps, which LICM neither adds nor
//! removes per iteration — it only removes straight-line work between
//! them).
//!
//! Every register and jump-target access (dataflow, hoist renaming,
//! target remapping, compaction) goes through [`Instr`]'s operand
//! visitor, generated from the opcode table (`opcodes.rs`), the one the
//! fuser and [`crate::vm::validate_function`] also use; only the hoist
//! classes and the guard's polarity flip match on instruction kinds
//! here.
//!
//! Irreducible control flow (a retreating edge whose target does not
//! dominate its source — impossible to emit from KernelC but possible
//! in hand-built bytecode) makes the pass bail cleanly: no hoisting,
//! compaction only.
//!
//! ## Cost
//!
//! LICM runs in rounds: each round rebuilds the CFG, dominator tree and
//! loop nest, plans loops innermost first, and applies the first
//! non-empty plan. A round then builds its whole-function facts once
//! and lends them to every loop plan: liveness over dense bitsets (one
//! index space, F registers then I registers; a fixpoint sweep costs
//! O(blocks × regs/64) word ORs and allocates nothing) and one
//! read-site index in CSR form. A loop plan then costs its own blocks
//! and instructions, one membership mask and one write-count array,
//! plus the read sites and dominance checks of its candidates.
//! The round structure is what fixes the output, and the
//! `cfg_differential` suite pins it byte for byte: fingerprints of the
//! optimized functions of every app kernel, primal, demoted and adjoint.

use crate::bytecode::{CompiledFunction, Instr, Reg, RegClass};
use std::ops::Range;

/// Version of the CFG pass tier, hashed into [`crate::store::content_key`]
/// so a persisted variant compiled by a different tier revision can
/// never warm-hit.
pub const CFG_TIER_VERSION: u32 = 1;

/// A maximal straight-line run of instructions.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// Half-open instruction range `[start, end)` into `instrs`.
    pub range: Range<usize>,
    /// Predecessor block indices (unordered, deduplicated).
    pub preds: Vec<usize>,
    /// Successor block indices (at most 2; conditional order: taken,
    /// fall-through).
    pub succs: Vec<usize>,
}

/// Control-flow graph over a compiled function's instruction stream.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Blocks in instruction order; block 0 contains pc 0 (the entry).
    pub blocks: Vec<BasicBlock>,
    /// Reachable blocks in reverse postorder (entry first).
    pub rpo: Vec<usize>,
    /// `rpo_num[b]` = position of `b` in `rpo` (`usize::MAX` when
    /// unreachable).
    pub rpo_num: Vec<usize>,
    /// `block_of[pc]` = index of the block containing `pc`.
    pub block_of: Vec<usize>,
}

impl Cfg {
    /// Partitions the instruction stream into basic blocks (leader
    /// detection) and wires pred/succ edges + reverse postorder.
    pub fn build(func: &CompiledFunction) -> Cfg {
        let n = func.instrs.len();
        let mut leader = vec![false; n.max(1)];
        if n > 0 {
            leader[0] = true;
        }
        let mut out = [None, None];
        for (pc, ins) in func.instrs.iter().enumerate() {
            if !ins.successors(pc, &mut out) || ins.target().is_some() {
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
                // Jump targets start blocks; the fall-through successor
                // of a straight-line instruction does not.
                for s in out.iter().flatten() {
                    if *s < n {
                        leader[*s] = true;
                    }
                }
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for pc in 0..n {
            if pc > start && leader[pc] {
                blocks.push(BasicBlock {
                    range: start..pc,
                    preds: Vec::new(),
                    succs: Vec::new(),
                });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(BasicBlock {
                range: start..n,
                preds: Vec::new(),
                succs: Vec::new(),
            });
        }
        for (b, blk) in blocks.iter().enumerate() {
            for pc in blk.range.clone() {
                block_of[pc] = b;
            }
        }
        // Edges come from each block's last instruction only (interior
        // instructions are straight-line by construction).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (b, blk) in blocks.iter().enumerate() {
            let last = blk.range.end - 1;
            if func.instrs[last].successors(last, &mut out) {
                for s in out.iter().flatten() {
                    if *s < n {
                        edges.push((b, block_of[*s]));
                    }
                }
            }
        }
        let nb = blocks.len();
        for &(u, v) in &edges {
            if !blocks[u].succs.contains(&v) {
                blocks[u].succs.push(v);
            }
            if !blocks[v].preds.contains(&u) {
                blocks[v].preds.push(u);
            }
        }
        // Reverse postorder via iterative DFS from the entry block.
        let mut rpo = Vec::with_capacity(nb);
        let mut rpo_num = vec![usize::MAX; nb];
        if nb > 0 {
            let mut state = vec![0u8; nb]; // 0 unseen, 1 on stack, 2 done
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            state[0] = 1;
            let mut post = Vec::with_capacity(nb);
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < blocks[b].succs.len() {
                    let s = blocks[b].succs[*i];
                    *i += 1;
                    if state[s] == 0 {
                        state[s] = 1;
                        stack.push((s, 0));
                    }
                } else {
                    state[b] = 2;
                    post.push(b);
                    stack.pop();
                }
            }
            rpo = post.into_iter().rev().collect();
            for (i, &b) in rpo.iter().enumerate() {
                rpo_num[b] = i;
            }
        }
        Cfg {
            blocks,
            rpo,
            rpo_num,
            block_of,
        }
    }
}

/// Immediate-dominator tree over a [`Cfg`]'s reachable blocks
/// (Cooper–Harvey–Kennedy "A Simple, Fast Dominance Algorithm").
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of `b` (`idom[entry] == entry`;
    /// `usize::MAX` for unreachable blocks).
    pub idom: Vec<usize>,
}

impl Dominators {
    /// Iterates `idom` to fixpoint over the reverse postorder.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let nb = cfg.blocks.len();
        let mut idom = vec![usize::MAX; nb];
        if nb == 0 {
            return Dominators { idom };
        }
        let entry = cfg.rpo[0];
        idom[entry] = entry;
        let intersect = |idom: &[usize], mut u: usize, mut v: usize| -> usize {
            while u != v {
                while cfg.rpo_num[u] > cfg.rpo_num[v] {
                    u = idom[u];
                }
                while cfg.rpo_num[v] > cfg.rpo_num[u] {
                    v = idom[v];
                }
            }
            u
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == usize::MAX {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, new_idom, p)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// Does block `a` dominate block `b`? (Reflexive; `false` when `b`
    /// is unreachable.)
    pub fn dominates(&self, a: usize, mut b: usize) -> bool {
        if self.idom.get(b).copied().unwrap_or(usize::MAX) == usize::MAX {
            return false;
        }
        loop {
            if b == a {
                return true;
            }
            let p = self.idom[b];
            if p == b {
                return false; // reached the entry
            }
            b = p;
        }
    }
}

/// One natural loop: a back edge's header plus every block that can
/// reach the back edge without passing the header.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// Header block (dominates every block in the loop).
    pub header: usize,
    /// All member blocks (sorted ascending; includes the header).
    pub blocks: Vec<usize>,
    /// Back-edge source blocks (latches), sorted.
    pub back_edges: Vec<usize>,
}

/// Detects natural loops via retreating edges. Loops sharing a header
/// are merged. Returns `None` when the CFG is irreducible (a
/// retreating edge whose target does not dominate its source) — the
/// caller must then skip loop transforms entirely.
pub fn natural_loops(cfg: &Cfg, dom: &Dominators) -> Option<Vec<NaturalLoop>> {
    let nb = cfg.blocks.len();
    // One (header, member mask, latches) entry per header, found in
    // retreating-edge order; `slot[h]` indexes it.
    let mut slot = vec![usize::MAX; nb];
    let mut found: Vec<(usize, Vec<bool>, Vec<usize>)> = Vec::new();
    let mut stack = Vec::new();
    for &u in &cfg.rpo {
        for &h in &cfg.blocks[u].succs {
            if cfg.rpo_num[h] == usize::MAX || cfg.rpo_num[h] > cfg.rpo_num[u] {
                continue; // forward/cross edge
            }
            if !dom.dominates(h, u) {
                return None; // irreducible
            }
            if slot[h] == usize::MAX {
                slot[h] = found.len();
                found.push((h, vec![false; nb], Vec::new()));
            }
            let (_, body, latches) = &mut found[slot[h]];
            latches.push(u);
            // Walk predecessors backward from the latch, stopping at
            // the header.
            body[h] = true;
            stack.push(u);
            while let Some(b) = stack.pop() {
                if !body[b] {
                    body[b] = true;
                    for &p in &cfg.blocks[b].preds {
                        if cfg.rpo_num[p] != usize::MAX {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }
    let mut loops: Vec<NaturalLoop> = found
        .into_iter()
        .map(|(header, body, mut latches)| {
            let blocks: Vec<usize> = (0..nb).filter(|&b| body[b]).collect();
            latches.sort_unstable();
            latches.dedup();
            NaturalLoop {
                header,
                blocks,
                back_edges: latches,
            }
        })
        .collect();
    // Innermost first (fewest blocks), then by header for determinism.
    loops.sort_by_key(|l| (l.blocks.len(), l.header));
    Some(loops)
}

/// What [`optimize`] did to one function.
#[derive(Clone, Debug, Default)]
pub struct CfgStats {
    /// Basic blocks in the pre-pass CFG.
    pub blocks: u32,
    /// Natural loops detected in the pre-pass CFG.
    pub loops: u32,
    /// Analysis rounds run: CFG builds, the last of which found nothing
    /// more to hoist (or hit the round cap). Each round costs one CFG,
    /// dominator tree, loop nest, liveness and read-site index build.
    pub rounds: u32,
    /// Instructions hoisted to preheaders.
    pub hoisted: u32,
    /// Zero-trip guard branches synthesized.
    pub guards: u32,
    /// Register slots eliminated by compaction (all three files).
    pub regs_compacted: u32,
    /// `false` when the CFG was irreducible and loop transforms were
    /// skipped.
    pub reducible: bool,
    /// `true` when hoisting made an instruction unpackable and
    /// [`optimize`] undid every hoist (`hoisted`/`guards` then read 0).
    pub hoists_undone: bool,
    /// Debug-readable descriptions of the hoisted instructions, in
    /// hoist order (consumed by `repro --cfg` and the golden test).
    pub hoisted_ops: Vec<String>,
}

// ---------------------------------------------------------------------
// LICM
// ---------------------------------------------------------------------

/// Hoist class of one candidate (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HoistClass {
    /// Never-trapping write: safe to execute on a zero-trip entry.
    TrapFree,
    /// Float op whose write may be non-finite: needs the zero-trip
    /// guard (or to already live in the header's pre-test prefix).
    NeedsGuard,
}

/// Classifies an instruction as hoistable-if-invariant. Anything with
/// side effects, trap potential beyond `NonFinite`, or a shadow
/// re-evaluation site (`FCmp`, `F2I`) is `None`.
fn hoist_class(ins: &Instr) -> Option<HoistClass> {
    use Instr::*;
    match ins {
        FConst { v, .. } => Some(if v.is_finite() {
            HoistClass::TrapFree
        } else {
            HoistClass::NeedsGuard
        }),
        FMov { .. } | FNeg { .. } | I2F { .. } => Some(HoistClass::TrapFree),
        IConst { .. }
        | IMov { .. }
        | IAdd { .. }
        | ISub { .. }
        | IMul { .. }
        | INeg { .. }
        | BNot { .. }
        | ICmp { .. }
        | IAddImm { .. } => Some(HoistClass::TrapFree),
        FAdd { .. }
        | FSub { .. }
        | FMul { .. }
        | FDiv { .. }
        | FRound { .. }
        | FIntr1 { .. }
        | FIntr2 { .. }
        | FMulAdd { .. }
        | FAddRound { .. }
        | FSubRound { .. }
        | FMulRound { .. }
        | FDivRound { .. }
        | FIntr1Round { .. }
        | FIntr2Round { .. }
        | FAddC { .. }
        | FSubC { .. }
        | FSubCR { .. }
        | FMulC { .. }
        | FDivC { .. }
        | FDivCR { .. }
        | FAbsMulC { .. } => Some(HoistClass::NeedsGuard),
        _ => None,
    }
}

/// One planned hoist.
struct Hoist {
    /// Original pc of the instruction (deleted from the loop).
    pc: usize,
    /// The instruction as it will appear in the preheader (dst may be
    /// renamed to a fresh register).
    ins: Instr,
    /// `(use_pc, old_reg, new_index)` read-rewrites for renamed hoists.
    rewrites: Vec<(usize, Reg, u32)>,
}

/// One dense index space over both scalar register files: F registers
/// take `0..nf`, I registers `nf..len`. A register set over it is a
/// run of `words` bit words.
#[derive(Clone, Copy)]
struct RegSpace {
    nf: usize,
    len: usize,
    words: usize,
}

impl RegSpace {
    fn of(func: &CompiledFunction) -> RegSpace {
        let nf = func.n_fregs as usize;
        let len = nf + func.n_iregs as usize;
        RegSpace {
            nf,
            len,
            words: len.div_ceil(64),
        }
    }

    /// Dense index of a scalar register (never called for arrays).
    fn index(&self, (class, i): Reg) -> usize {
        match class {
            RegClass::I => self.nf + i as usize,
            _ => i as usize,
        }
    }
}

fn has_bit(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 != 0
}

fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// The whole-function facts every loop plan of one LICM round reads.
/// [`optimize`] builds them once per round, after the CFG, and lends
/// them to each [`plan_loop`] call.
struct RoundFacts {
    space: RegSpace,
    /// Read-site index in CSR form: the pcs reading dense register `r`,
    /// one entry per read operand in ascending pc order, are
    /// `read_pcs[read_start[r]..read_start[r + 1]]`.
    read_start: Vec<usize>,
    read_pcs: Vec<usize>,
    /// Parameter home registers: `unbind_args` reads them back after the
    /// run, so they are live at every function exit.
    param_homes: Vec<u64>,
    /// Float registers that carry a variable name.
    named_f: Vec<u64>,
    /// Per-block live-out sets, `space.words` words per block, used to
    /// prove a renamed hoist's original destination value never escapes
    /// its block.
    live_out: Vec<u64>,
}

impl RoundFacts {
    fn build(func: &CompiledFunction, cfg: &Cfg) -> RoundFacts {
        let space = RegSpace::of(func);
        let mut read_start = vec![0usize; space.len + 1];
        for ins in &func.instrs {
            ins.for_each_read(|r| read_start[space.index(r) + 1] += 1);
        }
        for r in 0..space.len {
            read_start[r + 1] += read_start[r];
        }
        let mut cursor = read_start.clone();
        let mut read_pcs = vec![0usize; read_start[space.len]];
        for (pc, ins) in func.instrs.iter().enumerate() {
            ins.for_each_read(|r| {
                let c = &mut cursor[space.index(r)];
                read_pcs[*c] = pc;
                *c += 1;
            });
        }
        let mut param_homes = vec![0u64; space.words];
        for p in &func.params {
            if p.kind.class() != RegClass::A {
                set_bit(&mut param_homes, space.index((p.kind.class(), p.reg)));
            }
        }
        let mut named_f = vec![0u64; space.words];
        for (r, _) in &func.fvar_names {
            set_bit(&mut named_f, space.index((RegClass::F, *r)));
        }
        let live_out = live_out(func, cfg, space, &param_homes);
        RoundFacts {
            space,
            read_start,
            read_pcs,
            param_homes,
            named_f,
            live_out,
        }
    }

    fn reads(&self, r: Reg) -> &[usize] {
        let i = self.space.index(r);
        &self.read_pcs[self.read_start[i]..self.read_start[i + 1]]
    }

    fn is_param_home(&self, r: Reg) -> bool {
        has_bit(&self.param_homes, self.space.index(r))
    }

    fn is_named(&self, r: Reg) -> bool {
        has_bit(&self.named_f, self.space.index(r))
    }

    fn is_live_out(&self, b: usize, r: Reg) -> bool {
        let w = self.space.words;
        has_bit(&self.live_out[b * w..(b + 1) * w], self.space.index(r))
    }
}

/// Per-block scalar live-out sets: upward-exposed uses and defs per
/// block, then the backward dataflow fixpoint as word ORs over the
/// flat `blocks × words` arrays. Parameter homes are live at every
/// function exit.
fn live_out(func: &CompiledFunction, cfg: &Cfg, space: RegSpace, param_homes: &[u64]) -> Vec<u64> {
    let w = space.words;
    let nb = cfg.blocks.len();
    let mut ue = vec![0u64; nb * w];
    let mut def = vec![0u64; nb * w];
    let mut exits = vec![false; nb];
    let mut out = [None, None];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let ue_b = &mut ue[b * w..(b + 1) * w];
        let def_b = &mut def[b * w..(b + 1) * w];
        for pc in blk.range.clone() {
            let ins = &func.instrs[pc];
            ins.for_each_read(|r| {
                let i = space.index(r);
                if !has_bit(def_b, i) {
                    set_bit(ue_b, i);
                }
            });
            if let Some(wr) = ins.write() {
                set_bit(def_b, space.index(wr));
            }
        }
        let last = blk.range.end - 1;
        exits[b] = !func.instrs[last].successors(last, &mut out);
    }
    let mut live_in = vec![0u64; nb * w];
    let mut live_out = vec![0u64; nb * w];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo.iter().rev() {
            for k in 0..w {
                let mut o = if exits[b] { param_homes[k] } else { 0 };
                for &s in &cfg.blocks[b].succs {
                    o |= live_in[s * w + k];
                }
                let i = ue[b * w + k] | (o & !def[b * w + k]);
                if o != live_out[b * w + k] || i != live_in[b * w + k] {
                    live_out[b * w + k] = o;
                    live_in[b * w + k] = i;
                    changed = true;
                }
            }
        }
    }
    live_out
}

/// Builds the zero-trip guard: a copy of the header's int
/// compare-and-branch exit test that jumps *past* the preheader (to
/// the relocated header) exactly when the loop would not run. Returns
/// `None` when the header terminator is not guardable.
fn synthesize_guard(
    func: &CompiledFunction,
    cfg: &Cfg,
    lp: &NaturalLoop,
    member: &[bool],
) -> Option<(Instr, usize)> {
    let hb = &cfg.blocks[lp.header];
    let t_pc = hb.range.end - 1;
    let ins = &func.instrs[t_pc];
    let flipped = flipped_int_branch(ins)?;
    let target = ins.target()? as usize;
    let n = func.instrs.len();
    let taken_in = target < n && member[cfg.block_of[target]];
    let fall_in = t_pc + 1 < n && member[cfg.block_of[t_pc + 1]];
    // Exactly one side must leave the loop.
    if taken_in == fall_in {
        return None;
    }
    // The guard reads its operands at the preheader, before the header
    // prefix runs; they must be untouched by that prefix.
    let mut operands: Vec<Reg> = Vec::new();
    ins.for_each_read(|r| operands.push(r));
    for pc in hb.range.start..t_pc {
        if let Some(w) = func.instrs[pc].write() {
            if operands.contains(&w) {
                return None;
            }
        }
    }
    // Retarget (and flip, when the exit is on the fall-through side) so
    // the guard jumps to the relocated header iff the loop exits. The
    // placeholder target 0 is patched by the caller once the preheader
    // size is known.
    let mut guard = if taken_in { flipped } else { ins.clone() };
    *guard.target_mut()? = 0;
    Some((guard, t_pc))
}

/// `ins` with its branch polarity flipped, for the integer conditional
/// branches a zero-trip guard may copy; `None` for anything else
/// (unconditional, float-compare, or exit).
fn flipped_int_branch(ins: &Instr) -> Option<Instr> {
    use Instr::*;
    Some(match *ins {
        JmpIfFalse { cond, target } => JmpIfTrue { cond, target },
        JmpIfTrue { cond, target } => JmpIfFalse { cond, target },
        ICmpJmpFalse { op, a, b, target } => ICmpJmpTrue { op, a, b, target },
        ICmpJmpTrue { op, a, b, target } => ICmpJmpFalse { op, a, b, target },
        ICmpImmJmpFalse { op, a, imm, target } => ICmpImmJmpTrue { op, a, imm, target },
        ICmpImmJmpTrue { op, a, imm, target } => ICmpImmJmpFalse { op, a, imm, target },
        _ => return None,
    })
}

/// Plans the hoists for one loop. Returns the hoists plus the guard
/// (if one is needed and available).
fn plan_loop(
    func: &CompiledFunction,
    cfg: &Cfg,
    dom: &Dominators,
    facts: &RoundFacts,
    lp: &NaturalLoop,
) -> (Vec<Hoist>, Option<(Instr, usize)>) {
    let mut member = vec![false; cfg.blocks.len()];
    for &b in &lp.blocks {
        member[b] = true;
    }
    let in_loop = |b: usize| member[b];
    let hb = &cfg.blocks[lp.header];
    let header_term = hb.range.end - 1;

    // Write counts per register over the loop's blocks.
    let space = facts.space;
    let mut loop_writes = vec![0u32; space.len];
    for &b in &lp.blocks {
        for pc in cfg.blocks[b].range.clone() {
            if let Some(w) = func.instrs[pc].write() {
                loop_writes[space.index(w)] += 1;
            }
        }
    }

    let guard = synthesize_guard(func, cfg, lp, &member);
    // Class B from outside the header prefix additionally needs: the
    // defining block dominates every latch and every non-header exit
    // source (so "the loop runs one iteration" implies "the original
    // instruction ran").
    let mut exit_sources: Vec<usize> = Vec::new();
    let mut out = [None, None];
    for &b in &lp.blocks {
        let blk = &cfg.blocks[b];
        let last = blk.range.end - 1;
        if !func.instrs[last].successors(last, &mut out) {
            exit_sources.push(b); // returns straight out of the loop
            continue;
        }
        if blk.succs.iter().any(|s| !in_loop(*s)) {
            exit_sources.push(b);
        }
    }

    let mut next_freg = func.n_fregs;
    let mut next_ireg = func.n_iregs;
    let mut hoists: Vec<Hoist> = Vec::new();

    for &b in &lp.blocks {
        let blk = &cfg.blocks[b];
        for pc in blk.range.clone() {
            let ins = &func.instrs[pc];
            let class = match hoist_class(ins) {
                Some(c) => c,
                None => continue,
            };
            let dst = match ins.write() {
                Some(d) => d,
                None => continue,
            };
            // Operands must be loop-invariant (and untouched by hoists
            // already planned this round, which count as loop writes).
            let mut invariant = true;
            ins.for_each_read(|r| {
                if loop_writes[space.index(r)] != 0 {
                    invariant = false;
                }
            });
            if !invariant {
                continue;
            }
            // Trap-safety placement rules for floats that may produce a
            // non-finite write.
            if class == HoistClass::NeedsGuard {
                let in_header_prefix = b == lp.header && pc < header_term;
                if !in_header_prefix {
                    if guard.is_none() {
                        continue;
                    }
                    if !lp.back_edges.iter().all(|&l| dom.dominates(b, l)) {
                        continue;
                    }
                    if !exit_sources
                        .iter()
                        .all(|&s| s == lp.header || dom.dominates(b, s))
                    {
                        continue;
                    }
                }
            }
            let reads = facts.reads(dst);
            if loop_writes[space.index(dst)] == 1 && !facts.is_param_home(dst) {
                // Single-writer path: keep the destination, require the
                // defining block to dominate every read in the function.
                let mut ok = true;
                for &u in reads {
                    let ub = cfg.block_of[u];
                    if ub == b {
                        if u <= pc {
                            ok = false;
                        }
                    } else if !dom.dominates(b, ub) {
                        ok = false;
                    }
                }
                if ok {
                    hoists.push(Hoist {
                        pc,
                        ins: ins.clone(),
                        rewrites: Vec::new(),
                    });
                    // Its dst now counts as written outside the loop
                    // only; later candidates reading it must wait for
                    // the next round.
                    continue;
                }
            }
            // Renamed path: fresh destination register, rewrite the
            // reads of this def inside its block window. Only for
            // unnamed non-param destinations (renaming a named variable
            // would change shadow attribution and trap naming).
            if facts.is_param_home(dst) {
                continue;
            }
            if facts.is_named(dst) {
                continue;
            }
            // Window: (pc, next write of dst in this block]. The def
            // must not escape the block unless overwritten first.
            let mut window_end = blk.range.end;
            let mut closed_by_write = false;
            for w in pc + 1..blk.range.end {
                if func.instrs[w].write() == Some(dst) {
                    window_end = w + 1; // its reads still see the old def
                    closed_by_write = true;
                    break;
                }
            }
            if !closed_by_write && facts.is_live_out(b, dst) {
                continue;
            }
            // Reads of dst outside the window would observe the deleted
            // def: reject (can only happen via same-block reads before
            // pc; cross-block reads imply live-out, handled above). A
            // read that is also the in-place write of an accumulator
            // cannot be renamed apart from it: reject that too.
            if reads.iter().any(|&u| {
                cfg.block_of[u] == b
                    && (u <= pc || u >= window_end || func.instrs[u].updated() == Some(dst))
            }) {
                continue;
            }
            let next = match dst.0 {
                RegClass::F => &mut next_freg,
                _ => &mut next_ireg,
            };
            let fresh_idx = *next;
            *next += 1;
            let mut renamed = ins.clone();
            renamed.visit_regs_mut(|class, idx, is_write| {
                if is_write && class == dst.0 {
                    *idx = fresh_idx;
                }
            });
            let rewrites: Vec<(usize, Reg, u32)> = reads
                .iter()
                .filter(|&&u| u > pc && u < window_end)
                .map(|&u| (u, dst, fresh_idx))
                .collect();
            hoists.push(Hoist {
                pc,
                ins: renamed,
                rewrites,
            });
        }
    }

    // A hoisted write must not feed the guard: the guard runs before
    // the hoisted block, and the first header test must still read the
    // same values it used to. Single-writer hoists can only reach the
    // header test from the header prefix (covered by use-dominance);
    // fresh renames never collide. Guard operands clashing with a
    // planned hoist's original prefix position are rejected inside
    // `synthesize_guard` via the prefix-write scan.
    let needs_guard = hoists.iter().any(|h| {
        hoist_class(&func.instrs[h.pc]) == Some(HoistClass::NeedsGuard)
            && !(cfg.block_of[h.pc] == lp.header && h.pc < header_term)
    });
    (hoists, if needs_guard { guard } else { None })
}

/// Rebuilds the instruction stream with `hoists` (and the optional
/// guard) inserted as a preheader at the loop header, deleting the
/// hoisted originals and remapping every jump target.
fn apply_plan(
    func: &mut CompiledFunction,
    cfg: &Cfg,
    lp: &NaturalLoop,
    hoists: Vec<Hoist>,
    guard: Option<(Instr, usize)>,
) {
    let h = cfg.blocks[lp.header].range.start;
    let n = func.instrs.len();
    let mut hoisted = vec![false; n];
    for hs in &hoists {
        hoisted[hs.pc] = true;
    }
    // Read rewrites by use pc; the stable sort keeps hoist order per pc.
    let mut rewrites: Vec<(usize, Reg, u32)> = hoists
        .iter()
        .flat_map(|hs| hs.rewrites.iter().copied())
        .collect();
    rewrites.sort_by_key(|&(u, _, _)| u);
    // kept_before[i] = number of non-hoisted pcs in [0, i). Hoists may
    // come from blocks laid out before the header, so the count starts
    // at pc 0 and every target, below the header too, is remapped.
    let mut kept_before = vec![0usize; n + 1];
    for pc in 0..n {
        kept_before[pc + 1] = kept_before[pc] + usize::from(!hoisted[pc]);
    }
    let k = hoists.len() + usize::from(guard.is_some());
    // New pcs of the preheader and of the relocated header.
    let pre = kept_before[h];
    let header = pre + k;
    let in_loop = |b: usize| lp.blocks.binary_search(&b).is_ok();
    let remap_target = |t: usize, src_pc: usize| -> usize {
        if t < h {
            kept_before[t]
        } else if t == h {
            // Back edges skip the preheader; outside entries run it.
            if in_loop(cfg.block_of[src_pc]) {
                header
            } else {
                pre
            }
        } else {
            k + kept_before[t.min(n)] + t.saturating_sub(n)
        }
    };

    let mut instrs = Vec::with_capacity(n + k);
    let mut spans = Vec::with_capacity(n + k);
    let mut max_f = func.n_fregs;
    let mut max_i = func.n_iregs;
    let mut rw_at = 0;
    for old_pc in 0..n {
        if old_pc == h {
            if let Some((g, g_pc)) = &guard {
                let mut g = g.clone();
                *g.target_mut().expect("a guard is a branch") = header as u32;
                instrs.push(g);
                spans.push(func.spans[*g_pc]);
            }
            for hs in &hoists {
                hs.ins.visit_regs(|class, idx, _w| match class {
                    RegClass::F => max_f = max_f.max(idx + 1),
                    RegClass::I => max_i = max_i.max(idx + 1),
                    RegClass::A => {}
                });
                instrs.push(hs.ins.clone());
                spans.push(func.spans[hs.pc]);
            }
        }
        let rw_start = rw_at;
        while rw_at < rewrites.len() && rewrites[rw_at].0 == old_pc {
            rw_at += 1;
        }
        if hoisted[old_pc] {
            continue;
        }
        let mut ins = func.instrs[old_pc].clone();
        let rw = &rewrites[rw_start..rw_at];
        if !rw.is_empty() {
            ins.visit_regs_mut(|class, idx, is_write| {
                for &(_, old, new) in rw {
                    if !is_write && old == (class, *idx) {
                        *idx = new;
                    }
                }
            });
        }
        if let Some(t) = ins.target_mut() {
            *t = remap_target(*t as usize, old_pc) as u32;
        }
        instrs.push(ins);
        spans.push(func.spans[old_pc]);
    }
    func.instrs = instrs;
    func.spans = spans;
    func.n_fregs = max_f;
    func.n_iregs = max_i;
}

// ---------------------------------------------------------------------
// Register compaction
// ---------------------------------------------------------------------

/// Densely renumbers the three register files, dropping slots that are
/// neither referenced by an instruction, a parameter home, nor a named
/// variable (names are kept so shadow attribution and trap naming are
/// unchanged). Returns the number of slots eliminated.
fn compact_registers(func: &mut CompiledFunction) -> u32 {
    use RegClass::{A, F};
    // Indexed by `RegClass as usize`: F, I, A.
    let sizes = [func.n_fregs, func.n_iregs, func.n_aregs];
    let mut used = sizes.map(|n| vec![false; n as usize]);
    for ins in &func.instrs {
        ins.visit_regs(|class, r, _w| used[class as usize][r as usize] = true);
    }
    for p in &func.params {
        used[p.kind.class() as usize][p.reg as usize] = true;
    }
    for (r, _) in &func.fvar_names {
        used[F as usize][*r as usize] = true;
    }
    for (r, _) in &func.avar_names {
        used[A as usize][*r as usize] = true;
    }
    // Dense renumbering per file: `map[c][old]` is the new index.
    let mut len = [0u32; 3];
    let map: Vec<Vec<u32>> = (0..3)
        .map(|c| {
            let n = &mut len[c];
            used[c]
                .iter()
                .map(|&u| std::mem::replace(n, *n + u32::from(u)))
                .collect()
        })
        .collect();
    let saved: u32 = (0..3).map(|c| sizes[c] - len[c]).sum();
    if saved == 0 {
        return 0;
    }
    for ins in &mut func.instrs {
        ins.visit_regs_mut(|class, r, _w| *r = map[class as usize][*r as usize]);
    }
    for p in &mut func.params {
        p.reg = map[p.kind.class() as usize][p.reg as usize];
    }
    for (r, _) in &mut func.fvar_names {
        *r = map[F as usize][*r as usize];
    }
    for (r, _) in &mut func.avar_names {
        *r = map[A as usize][*r as usize];
    }
    [func.n_fregs, func.n_iregs, func.n_aregs] = len;
    saved
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

const MAX_ROUNDS: u32 = 64;

/// Runs the CFG pass tier on a (typically post-fusion) function:
/// iterated LICM (one loop per round, innermost first, full CFG
/// recompute after each change) followed by register compaction.
/// Invalidates `func.packed` — [`crate::compile::compile`] re-packs
/// afterwards.
///
/// The tier never makes a packable function unpackable: hoisting can
/// rename a def to a fresh register past an operand field's width (an
/// `FMulAdd` addend above 255), so when the compacted result has an
/// instruction [`crate::pack::fits`] rejects, the hoists are undone and
/// only compaction applies.
pub fn optimize(func: &mut CompiledFunction) -> CfgStats {
    func.packed = None;
    let mut stats = CfgStats {
        reducible: true,
        ..CfgStats::default()
    };
    // Taken before the first hoist; compaction alone only lowers
    // register indices, so it needs no undo.
    let mut unhoisted: Option<CompiledFunction> = None;
    let mut round = 0u32;
    'rounds: loop {
        round += 1;
        if round > MAX_ROUNDS {
            break;
        }
        stats.rounds = round;
        let _build = chef_telemetry::span!("cfg.build");
        let cfg = Cfg::build(func);
        let dom = Dominators::compute(&cfg);
        let loops = match natural_loops(&cfg, &dom) {
            Some(l) => l,
            None => {
                stats.reducible = false;
                if round == 1 {
                    stats.blocks = cfg.blocks.len() as u32;
                }
                break;
            }
        };
        if round == 1 {
            stats.blocks = cfg.blocks.len() as u32;
            stats.loops = loops.len() as u32;
        }
        drop(_build);
        let _licm = chef_telemetry::span!("licm");
        let facts = RoundFacts::build(func, &cfg);
        for lp in &loops {
            let (hoists, guard) = plan_loop(func, &cfg, &dom, &facts, lp);
            if hoists.is_empty() {
                continue;
            }
            stats.hoisted += hoists.len() as u32;
            stats.guards += u32::from(guard.is_some());
            for h in &hoists {
                stats.hoisted_ops.push(format!("{:?}", h.ins));
            }
            unhoisted.get_or_insert_with(|| func.clone());
            apply_plan(func, &cfg, lp, hoists, guard);
            continue 'rounds;
        }
        break;
    }
    stats.regs_compacted = compact_registers(func);
    if let Some(input) = unhoisted {
        if !func.instrs.iter().all(crate::pack::fits) {
            *func = input;
            stats.hoisted = 0;
            stats.guards = 0;
            stats.hoisted_ops.clear();
            stats.hoists_undone = true;
            stats.regs_compacted = compact_registers(func);
        }
    }
    chef_telemetry::counter("exec.cfg.blocks").add(stats.blocks as u64);
    chef_telemetry::counter("exec.cfg.loops").add(stats.loops as u64);
    chef_telemetry::counter("exec.cfg.rounds").add(stats.rounds as u64);
    chef_telemetry::counter("exec.licm.hoisted").add(stats.hoisted as u64);
    chef_telemetry::counter("exec.regs.compacted").add(stats.regs_compacted as u64);
    stats
}

/// Human-readable dump of the function's CFG: blocks (with pred/succ
/// edges), the dominator tree, and detected natural loops. Consumed by
/// `repro --cfg <kernel>` and the pinned arclen golden test.
pub fn dump(func: &CompiledFunction) -> String {
    use std::fmt::Write;
    let cfg = Cfg::build(func);
    let dom = Dominators::compute(&cfg);
    let loops = natural_loops(&cfg, &dom);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "cfg {}: {} instrs, {} blocks",
        func.name,
        func.instrs.len(),
        cfg.blocks.len()
    );
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let _ = writeln!(
            s,
            "  b{b}: pc {}..{} preds={:?} succs={:?} idom={}",
            blk.range.start,
            blk.range.end,
            blk.preds,
            blk.succs,
            if dom.idom[b] == usize::MAX {
                "-".to_string()
            } else {
                format!("b{}", dom.idom[b])
            }
        );
    }
    match &loops {
        None => {
            let _ = writeln!(s, "  loops: irreducible (pass bails)");
        }
        Some(ls) => {
            let _ = writeln!(s, "  loops: {}", ls.len());
            for l in ls {
                let _ = writeln!(
                    s,
                    "    header=b{} blocks={:?} latches={:?}",
                    l.header, l.blocks, l.back_edges
                );
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpOp, FReg, IReg, ParamKind, ParamSpec, RetKind};
    use crate::value::ArgValue;
    use chef_ir::span::Span;

    /// Packs `f` (hand-built streams and `optimize` output carry no
    /// packed form) and runs it under a 10k-instruction budget, so a
    /// miscompiled loop traps with `InstrBudgetExhausted` instead of
    /// hanging the suite.
    fn run_budgeted(f: &CompiledFunction, args: Vec<ArgValue>) -> crate::vm::CallOutcome {
        let mut f = f.clone();
        f.packed = crate::pack::pack_function(&f);
        let opts = crate::vm::ExecOptions {
            max_instrs: Some(10_000),
            ..Default::default()
        };
        crate::vm::run_with(&f, args, &opts).unwrap()
    }

    fn int_func(instrs: Vec<Instr>, n_iregs: u32) -> CompiledFunction {
        let spans = vec![Span::default(); instrs.len()];
        CompiledFunction {
            name: "hand".into(),
            instrs,
            spans,
            n_fregs: 0,
            n_iregs,
            n_aregs: 0,
            params: vec![ParamSpec {
                name: "p".into(),
                kind: ParamKind::I,
                by_ref: false,
                reg: 0,
            }],
            ret: RetKind::I,
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        }
    }

    /// Classic irreducible shape: entry branches into both halves of a
    /// two-entry cycle.
    fn irreducible_func() -> CompiledFunction {
        use Instr::*;
        int_func(
            vec![
                // E: p != 0 -> B (pc 4)
                JmpIfTrue {
                    cond: IReg(0),
                    target: 4,
                },
                // A:
                IAddImm {
                    dst: IReg(1),
                    a: IReg(1),
                    imm: 1,
                },
                ICmpImmJmpTrue {
                    op: CmpOp::Gt,
                    a: IReg(1),
                    imm: 100,
                    target: 6,
                },
                Jmp { target: 4 },
                // B:
                IAddImm {
                    dst: IReg(1),
                    a: IReg(1),
                    imm: 2,
                },
                // retreating edge B -> A whose target does not dominate it
                ICmpImmJmpFalse {
                    op: CmpOp::Gt,
                    a: IReg(1),
                    imm: 100,
                    target: 1,
                },
                // X:
                RetI { src: IReg(1) },
            ],
            2,
        )
    }

    /// Hand-built doubly nested counting loop.
    fn nested_func() -> CompiledFunction {
        use Instr::*;
        int_func(
            vec![
                // E: s = 0; i = 0
                IConst { dst: IReg(1), v: 0 }, // 0: s
                IConst { dst: IReg(2), v: 0 }, // 1: i
                // H1: i < p ? fall : exit
                ICmpJmpFalse {
                    op: CmpOp::Lt,
                    a: IReg(2),
                    b: IReg(0),
                    target: 10,
                }, // 2
                // j = 0
                IConst { dst: IReg(3), v: 0 }, // 3
                // H2: j < p ? fall : latch1
                ICmpJmpFalse {
                    op: CmpOp::Lt,
                    a: IReg(3),
                    b: IReg(0),
                    target: 8,
                }, // 4
                // body2: s += 1; j += 1
                IAddImm {
                    dst: IReg(1),
                    a: IReg(1),
                    imm: 1,
                }, // 5
                IAddImm {
                    dst: IReg(3),
                    a: IReg(3),
                    imm: 1,
                }, // 6
                Jmp { target: 4 }, // 7
                // latch1: i += 1
                IAddImm {
                    dst: IReg(2),
                    a: IReg(2),
                    imm: 1,
                }, // 8
                Jmp { target: 2 }, // 9
                // exit
                RetI { src: IReg(1) }, // 10
            ],
            4,
        )
    }

    #[test]
    fn irreducible_cfg_is_detected_and_pass_bails() {
        let func = irreducible_func();
        let cfg = Cfg::build(&func);
        let dom = Dominators::compute(&cfg);
        assert!(natural_loops(&cfg, &dom).is_none(), "must flag irreducible");

        let mut opt = func.clone();
        let stats = optimize(&mut opt);
        assert!(!stats.reducible);
        assert_eq!(stats.hoisted, 0, "irreducible CFG must not hoist");
        assert_eq!(stats.rounds, 1, "the first round bails");
        // The stream itself is untouched by LICM (compaction may
        // renumber, but this function uses every register).
        let before = run_budgeted(&func, vec![ArgValue::I(1)]);
        let after = run_budgeted(&opt, vec![ArgValue::I(1)]);
        assert_eq!(before.ret, after.ret);
        assert_eq!(before.stats.instrs_executed, after.stats.instrs_executed);
    }

    #[test]
    fn nested_loops_are_detected_with_correct_nesting() {
        let func = nested_func();
        let cfg = Cfg::build(&func);
        let dom = Dominators::compute(&cfg);
        let loops = natural_loops(&cfg, &dom).expect("reducible");
        assert_eq!(loops.len(), 2);
        // Innermost (fewest blocks) first.
        let inner = &loops[0];
        let outer = &loops[1];
        assert!(inner.blocks.len() < outer.blocks.len());
        for b in &inner.blocks {
            assert!(
                outer.blocks.contains(b),
                "inner loop must be nested in outer"
            );
        }
        assert_ne!(inner.header, outer.header);
        assert!(dom.dominates(outer.header, inner.header));
        // Headers dominate their members.
        for &b in &inner.blocks {
            assert!(dom.dominates(inner.header, b));
        }
        // Entry block dominates everything reachable.
        for &b in &cfg.rpo {
            assert!(dom.dominates(cfg.rpo[0], b));
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let func = nested_func();
        let cfg = Cfg::build(&func);
        assert_eq!(cfg.rpo[0], cfg.block_of[0]);
        assert_eq!(cfg.rpo.len(), cfg.blocks.len());
        // Every edge u->v that is not a back edge satisfies
        // rpo_num[u] < rpo_num[v].
        let dom = Dominators::compute(&cfg);
        for &u in &cfg.rpo {
            for &v in &cfg.blocks[u].succs {
                if !dom.dominates(v, u) {
                    assert!(cfg.rpo_num[u] < cfg.rpo_num[v]);
                }
            }
        }
    }

    #[test]
    fn nested_hand_loop_runs_identically_after_optimize() {
        let func = nested_func();
        let mut opt = func.clone();
        let stats = optimize(&mut opt);
        assert!(stats.reducible);
        for n in [0i64, 1, 2, 7] {
            let a = run_budgeted(&func, vec![ArgValue::I(n)]);
            let b = run_budgeted(&opt, vec![ArgValue::I(n)]);
            assert_eq!(a.ret, b.ret, "n={n}");
        }
    }

    #[test]
    fn compaction_drops_dead_registers_and_preserves_behavior() {
        use Instr::*;
        // Registers 5/9 are allocated but never touched.
        let mut func = int_func(
            vec![
                IAddImm {
                    dst: IReg(7),
                    a: IReg(0),
                    imm: 3,
                },
                RetI { src: IReg(7) },
            ],
            10,
        );
        let before = run_budgeted(&func, vec![ArgValue::I(4)]);
        let saved = compact_registers(&mut func);
        assert!(
            saved >= 7,
            "expected most of the 10 iregs dropped, saved {saved}"
        );
        assert_eq!(func.n_iregs, 2);
        let after = run_budgeted(&func, vec![ArgValue::I(4)]);
        assert_eq!(before.ret, after.ret);
    }

    #[test]
    fn licm_leaves_a_def_read_by_an_accumulator_in_place() {
        use Instr::*;
        // `t = x * x` is invariant, but the `FAddAccK` that reads it also
        // writes it through the same field: renaming the hoisted def
        // would rename that write too, so nothing is hoisted and every
        // iteration recomputes `t`.
        let (x, t, n, i) = (FReg(0), FReg(1), IReg(0), IReg(1));
        let instrs = vec![
            IConst { dst: i, v: 0 },
            ICmpJmpFalse {
                op: CmpOp::Lt,
                a: i,
                b: n,
                target: 6,
            },
            FMul { dst: t, a: x, b: x },
            FAddAccK {
                acc: t,
                k: 0,
                src: x,
                arr: crate::bytecode::AReg(0),
            },
            IAddImm {
                dst: i,
                a: i,
                imm: 1,
            },
            Jmp { target: 1 },
            RetF { src: t },
        ];
        let param = |name: &str, kind, reg| ParamSpec {
            name: name.into(),
            kind,
            by_ref: false,
            reg,
        };
        let func = CompiledFunction {
            name: "hand".into(),
            spans: vec![Span::default(); instrs.len()],
            instrs,
            n_fregs: 2,
            n_iregs: 2,
            n_aregs: 1,
            params: vec![
                param("x", ParamKind::F(chef_ir::types::FloatTy::F64), 0),
                param("n", ParamKind::I, 0),
                param("a", ParamKind::FArr(chef_ir::types::FloatTy::F64), 0),
            ],
            ret: RetKind::F(chef_ir::types::FloatTy::F64),
            fvar_names: vec![],
            avar_names: vec![(0, "a".into())],
            packed: None,
        };
        let mut opt = func.clone();
        let stats = optimize(&mut opt);
        assert_eq!(stats.hoisted, 0, "{}", opt.disassemble());
        for trips in [1i64, 3] {
            let args = || {
                vec![
                    ArgValue::F(1.5),
                    ArgValue::I(trips),
                    ArgValue::FArr(vec![0.0]),
                ]
            };
            let a = run_budgeted(&func, args());
            let b = run_budgeted(&opt, args());
            assert_eq!((a.ret, a.args), (b.ret, b.args), "trips={trips}");
        }
    }

    #[test]
    fn licm_hoists_invariant_float_mul_out_of_compiled_loop() {
        // `h * h` is invariant; the division by the loop-variant `i`
        // keeps fusion from folding the multiply into an FMulAdd.
        let src = "double f(double h, int n) {
            double s = 0.0;
            for (int i = 1; i <= n; i++) { s = s + h * h / i; }
            return s;
        }";
        let mut p = chef_ir::parser::parse_program(src).unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        let base = crate::compile::compile(
            &p.functions[0],
            &crate::compile::CompileOptions {
                cfg: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut opt = base.clone();
        let stats = optimize(&mut opt);
        assert!(stats.reducible);
        assert!(
            stats.hoisted >= 1,
            "h*h must hoist; dump:\n{}\n{}",
            dump(&base),
            base.disassemble()
        );
        let args = || vec![ArgValue::F(1.5), ArgValue::I(10)];
        let a = run_budgeted(&base, args());
        let b = run_budgeted(&opt, args());
        assert_eq!(a.ret, b.ret);
        assert!(b.stats.instrs_executed < a.stats.instrs_executed);
        // Zero-trip and single-trip entries agree too (guard paths).
        for n in [0i64, 1] {
            let a = run_budgeted(&base, vec![ArgValue::F(1.5), ArgValue::I(n)]);
            let b = run_budgeted(&opt, vec![ArgValue::F(1.5), ArgValue::I(n)]);
            assert_eq!(a.ret, b.ret, "n={n}");
        }
    }
}
