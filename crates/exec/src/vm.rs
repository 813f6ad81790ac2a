//! The register VM that executes compiled KernelC.
//!
//! One call = one function activation (user calls are inlined before
//! compilation). The VM reports execution statistics — instruction count,
//! tape peak, allocated array bytes — that the benchmark harness turns
//! into the analysis-time and peak-memory series of the paper's Figs. 4–8.
//!
//! ## Execution engine
//!
//! The engine is built for the analysis loop's call pattern: the same
//! compiled function executed thousands of times (sensitivity profiling,
//! tuner candidate evaluation, the benchmark sweeps).
//!
//! * [`Machine`] owns the register files, array slots and the [`Tape`]
//!   and is **reusable**: [`Machine::reset`] re-sizes the buffers for a
//!   function without releasing their capacity, so repeated
//!   [`Machine::run_reused`] calls allocate nothing after warm-up.
//! * The convenience entry points [`run`]/[`run_with`] check a machine
//!   out of the process's pool of machines (`MACHINES`) and inherit that
//!   reuse transparently.
//! * There is no dispatch loop here: the plain VM runs the engine's one
//!   loop, [`crate::shadow`]'s `exec_loop`, instantiated with the
//!   zero-sized `NoShadow` lane, for which every shadow-side statement
//!   compiles away. [`Machine`] also owns the one call frame (fault
//!   draw, argument binding, entry checks, epilogue) that
//!   [`crate::shadow::ShadowMachine`] reuses.
//! * Register operands are bounds-validated **once per call**
//!   ([`validate_function`]) and then accessed unchecked in the dispatch
//!   loop; array *element* indices remain checked on every access (they
//!   are runtime values).
//! * The [`ExecOptions::max_instrs`] budget is enforced at basic-block
//!   granularity — on taken backward jumps and at returns — instead of
//!   per instruction, so the budget may be overshot by at most one
//!   straight-line block.
//! * [`run_batch_parallel`] fans a batch out over scoped threads through
//!   the engine's one batch body on the same process pool (one machine
//!   per worker, validated once per batch).

use crate::arena::{sealed::Run, Pool};
use crate::bytecode::*;
use crate::precision::round_to;
use crate::shadow::{exec_loop, Lane, NoShadow, ShadowNum};
use crate::tape::{Tape, TapeError};
use crate::value::{ArgValue, Value};
use chef_ir::span::Span;
use chef_ir::types::FloatTy;

/// Runtime execution options.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Tape memory budget in bytes; exceeding it traps with
    /// [`TrapKind::Tape`] — this reproduces the ADAPT out-of-memory points
    /// in the paper's figures.
    pub tape_limit: Option<usize>,
    /// Safety valve for tests: trap after (approximately) this many
    /// instructions. Checked at block granularity: the trap fires at the
    /// first backward jump or return after the budget is exhausted, so a
    /// run may execute up to one straight-line block past the budget.
    pub max_instrs: Option<u64>,
    /// Cooperative wall-clock deadline (off by default): the run traps
    /// with [`TrapKind::DeadlineExceeded`] at the first budget checkpoint
    /// (taken backward jump) past the instant. The clock is only
    /// consulted every [`DEADLINE_STRIDE`] executed instructions, so an
    /// armed deadline costs one `Instant::now()` per stride and a
    /// disarmed one costs a single always-false compare per backward
    /// jump — the same cost class as the `max_instrs` check. Deadlines
    /// are the per-trial wall budget of `chef-service` sessions; like
    /// the instruction budget, exceeding one is a typed trap with pc
    /// attribution, never a panic.
    pub deadline: Option<std::time::Instant>,
    /// Trap with [`TrapKind::NonFinite`] the first time a float write —
    /// an instruction result, a demoted parameter's entry rounding, or a
    /// rounded return — produces NaN or ±Inf (off by default). The trap
    /// carries the pc, the disassembled opcode and, when the destination
    /// register is a named variable's home, the variable name, so a
    /// demoted config that overflows is attributed instead of flowing
    /// silently into downstream comparisons.
    pub trap_on_nonfinite: bool,
    /// Deterministic fault injection (tests/CI only, `None` by default):
    /// each call draws from the plan and may be turned into an injected
    /// trap, panic, or NaN before the dispatch loop starts. See
    /// [`crate::fault::FaultPlan`].
    pub fault: Option<crate::fault::FaultPlan>,
    /// Per-pc execution profiling (off by default): every dispatch loop
    /// iteration increments a per-instruction counter, surfaced as
    /// [`CallOutcome::profile`] / `ShadowOutcome::profile`
    /// ([`ExecProfile`]). The flag selects a separately monomorphized
    /// copy of the dispatch loop (`<const PROFILE: bool>`), so the off
    /// path's machine code is unchanged. The `repro --smoke` profiler
    /// gate holds the armed loop to ≤ 1.5× the off loop, and the
    /// `profiled_counts_match_executed_on_all_kernels` test checks that
    /// the counts sum to `instrs_executed` and that profiling leaves the
    /// dispatch count unchanged.
    pub profile: bool,
}

impl ExecOptions {
    /// `self` with [`ExecOptions::deadline`] armed `budget` from now —
    /// the per-trial wall clock starts at the call, not at queue time.
    pub fn deadline_in(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(std::time::Instant::now() + budget);
        self
    }
}

/// Instructions between wall-clock reads when [`ExecOptions::deadline`]
/// is armed. The dispatch loop compares `executed` against the next
/// probe point at every taken backward jump (one register compare, the
/// same checkpoint the instruction budget uses) and only touch
/// `Instant::now()` when the stride is crossed, so a deadline can be
/// overshot by at most one stride of work plus one straight-line block.
pub const DEADLINE_STRIDE: u64 = 8 * 1024;

/// Amortized deadline probe of the dispatch loop (plain and shadow
/// instantiations alike). Returns
/// `true` when the armed deadline has passed; otherwise advances `next`
/// by one stride. Cold: reached at most once per [`DEADLINE_STRIDE`]
/// executed instructions, and never when no deadline is armed (`next`
/// stays at `u64::MAX` then).
#[cold]
#[inline(never)]
pub(crate) fn deadline_probe(
    deadline: Option<std::time::Instant>,
    executed: u64,
    next: &mut u64,
) -> bool {
    match deadline {
        Some(d) if std::time::Instant::now() >= d => true,
        Some(_) => {
            *next = executed.saturating_add(DEADLINE_STRIDE);
            false
        }
        None => false,
    }
}

/// Why execution trapped.
#[derive(Clone, Debug, PartialEq)]
pub enum TrapKind {
    /// Tape failure (out of memory / underflow).
    Tape(TapeError),
    /// Integer division or remainder by zero.
    DivByZero,
    /// Array access out of bounds.
    OobIndex {
        /// The offending index.
        idx: i64,
        /// The array length.
        len: usize,
    },
    /// Negative length in a local array allocation.
    NegativeArrayLen(i64),
    /// Control reached the end of a non-void function.
    MissingReturn,
    /// The [`ExecOptions::max_instrs`] budget was exhausted. `executed`
    /// is the block-granular instruction count at the checkpoint that
    /// fired (≥ the budget, overshooting by at most one straight-line
    /// block), so retry policies can escalate proportionally instead of
    /// guessing.
    InstrBudgetExhausted {
        /// Instructions executed when the budget checkpoint fired.
        executed: u64,
    },
    /// The [`ExecOptions::deadline`] passed. Fired cooperatively at a
    /// taken backward jump (the same checkpoints as the instruction
    /// budget, probed every [`DEADLINE_STRIDE`] instructions), so the
    /// trap's `pc`/span attribute the loop that was running when the
    /// wall budget ran out.
    DeadlineExceeded {
        /// Block-granular instructions executed when the deadline
        /// checkpoint fired.
        executed: u64,
    },
    /// A float write produced NaN or ±Inf under
    /// [`ExecOptions::trap_on_nonfinite`].
    NonFinite {
        /// The offending value (NaN, +Inf or −Inf).
        value: f64,
        /// Disassembled mnemonic of the producing instruction — `RetF`
        /// for a rounded return — or `"bind_args"` for entry rounding.
        op: String,
        /// Name of the variable whose home register was written, when
        /// the destination is a named variable (not a temporary).
        var: Option<String>,
    },
    /// Argument count/kind mismatch at call entry.
    BadArguments(String),
    /// The compiled function references registers or jump targets outside
    /// its declared files (malformed hand-built bytecode; caught by the
    /// per-call validation before execution starts).
    InvalidBytecode(String),
}

/// A trap with its program location.
#[derive(Clone, Debug, PartialEq)]
pub struct Trap {
    /// What went wrong.
    pub kind: TrapKind,
    /// Instruction index.
    pub pc: usize,
    /// Source span of the trapping instruction.
    pub span: Span,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trap at pc {}: {:?}", self.pc, self.kind)
    }
}

impl std::error::Error for Trap {}

/// Execution statistics for one call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Instructions executed (each fused superinstruction counts once).
    pub instrs_executed: u64,
    /// Tape high-water mark in bytes.
    pub tape_peak_bytes: usize,
    /// Total tape pushes (traffic).
    pub tape_total_pushes: u64,
    /// Bytes allocated for local arrays (sum over allocations).
    pub local_array_bytes: usize,
    /// Bytes of array arguments passed in.
    pub arg_array_bytes: usize,
}

impl ExecStats {
    /// Peak working-set estimate: argument arrays + local arrays + tape
    /// peak. This is the "Memory (MB)" series of Figs. 4–8.
    pub fn peak_memory_bytes(&self) -> usize {
        self.arg_array_bytes + self.local_array_bytes + self.tape_peak_bytes
    }
}

/// Per-pc execution profile of one call, recorded when
/// [`ExecOptions::profile`] is set. `pc_counts[pc]` is the number of
/// dispatch-loop iterations that executed `func.instrs[pc]` (fused
/// superinstructions count once, like [`ExecStats::instrs_executed`]);
/// on a successful run the counts sum to exactly `instrs_executed`, for
/// plain and shadow runs alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Execution count per instruction index, sized `func.instrs.len()`.
    pub pc_counts: Vec<u64>,
}

impl ExecProfile {
    /// Total dispatched instructions (equals
    /// [`ExecStats::instrs_executed`] on successful runs).
    pub fn total(&self) -> u64 {
        self.pc_counts.iter().sum()
    }

    /// The `n` hottest pcs as `(pc, count)`, hottest first (count ties
    /// broken by pc for determinism). Zero-count pcs are omitted.
    pub fn hottest(&self, n: usize) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .pc_counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Dispatch counts aggregated by opcode mnemonic, hottest first
    /// (ties broken alphabetically).
    pub fn opcode_histogram(&self, func: &CompiledFunction) -> Vec<(String, u64)> {
        let mut by_op: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for (pc, &c) in self.pc_counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if let Some(ins) = func.instrs.get(pc) {
                *by_op.entry(instr_mnemonic(ins)).or_insert(0) += c;
            }
        }
        let mut v: Vec<(String, u64)> = by_op.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Dynamic counts of adjacent instruction pairs by opcode mnemonic,
    /// hottest first (ties broken alphabetically): the pair at `pc`,
    /// `pc + 1` ran `pc_counts[pc]` times when both pcs ran equally often
    /// and no jump targets `pc + 1`, so that every execution of the
    /// second fell through from the first. Pairs that fail either test
    /// are left out, so the table is a lower bound on what a fusion of
    /// the pair would save.
    pub fn adjacent_pairs(&self, func: &CompiledFunction) -> Vec<((String, String), u64)> {
        let mut targeted = vec![false; func.instrs.len() + 1];
        for ins in &func.instrs {
            if let Some(t) = ins.target() {
                targeted[t as usize] = true;
            }
        }
        let mut by_pair: std::collections::BTreeMap<(String, String), u64> =
            std::collections::BTreeMap::new();
        for (pc, w) in self.pc_counts.windows(2).enumerate() {
            if w[0] > 0 && w[0] == w[1] && !targeted[pc + 1] {
                let (a, b) = (&func.instrs[pc], &func.instrs[pc + 1]);
                *by_pair
                    .entry((instr_mnemonic(a), instr_mnemonic(b)))
                    .or_insert(0) += w[0];
            }
        }
        let mut v: Vec<_> = by_pair.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Accumulates another profile of the same function (for aggregating
    /// across a batch of calls). Panics on mismatched lengths unless one
    /// side is empty.
    pub fn merge(&mut self, other: &ExecProfile) {
        if other.pc_counts.is_empty() {
            return;
        }
        if self.pc_counts.is_empty() {
            self.pc_counts = other.pc_counts.clone();
            return;
        }
        assert_eq!(
            self.pc_counts.len(),
            other.pc_counts.len(),
            "merging profiles of different functions"
        );
        for (dst, src) in self.pc_counts.iter_mut().zip(&other.pc_counts) {
            *dst += src;
        }
    }
}

/// Opcode mnemonic of an instruction (the leading token of its `Debug`
/// form, e.g. `FMulAdd`) — shared by trap attribution and profiling.
pub fn instr_mnemonic(ins: &Instr) -> String {
    let d = format!("{ins:?}");
    d.split([' ', '{'])
        .next()
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// The result of a successful call.
#[derive(Clone, Debug)]
pub struct CallOutcome {
    /// Return value, if the function returns one.
    pub ret: Option<Value>,
    /// The argument vector with by-ref scalars updated and arrays moved
    /// back (same order as passed in).
    pub args: Vec<ArgValue>,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Per-pc execution profile, present iff [`ExecOptions::profile`]
    /// was set for the call.
    pub profile: Option<ExecProfile>,
}

impl CallOutcome {
    /// The float return value; panics if the function did not return one.
    pub fn ret_f(&self) -> f64 {
        self.ret.expect("function returned no value").as_f()
    }
}

pub(crate) enum ArraySlot {
    Empty,
    F(Vec<f64>),
    I(Vec<i64>),
    /// Buffer left over from a previous call: its *capacity* is reusable
    /// by the next `Alloc`, but reading it is a trap, exactly as if the
    /// slot were [`ArraySlot::Empty`] — machine reuse must not expose one
    /// call's data to the next.
    StaleF(Vec<f64>),
    /// Integer counterpart of [`ArraySlot::StaleF`].
    StaleI(Vec<i64>),
}

/// The process's pool of plain machines, shared by [`run_with`] and
/// [`run_batch_parallel`]; nothing else in the process pools a
/// [`Machine`].
static MACHINES: Pool<Machine> = Pool::new();

/// Runs `func` on `args` with default options (on a machine from the
/// process pool).
pub fn run(func: &CompiledFunction, args: Vec<ArgValue>) -> Result<CallOutcome, Trap> {
    run_with(func, args, &ExecOptions::default())
}

/// Runs `func` on `args` under `opts` (on a machine from the process
/// pool).
pub fn run_with(
    func: &CompiledFunction,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
) -> Result<CallOutcome, Trap> {
    MACHINES.checkout().run_reused(func, args, opts)
}

pub(crate) fn invalid_bytecode(msg: String) -> Trap {
    Trap {
        kind: TrapKind::InvalidBytecode(msg),
        pc: 0,
        span: Span::DUMMY,
    }
}

/// Builds the [`TrapKind::NonFinite`] trap for a non-finite value written
/// to float register `dst` by the instruction at `pc`; `None` for a value
/// no register holds (the element and the sum of an [`Instr::FAddTo`],
/// which the unfused stream kept in unnamed temporaries). Cold: only
/// reached when [`ExecOptions::trap_on_nonfinite`] fires, so the
/// mnemonic/name string work stays off the dispatch loop's hot path.
#[cold]
#[inline(never)]
pub(crate) fn nonfinite_trap(
    func: &CompiledFunction,
    dst: Option<usize>,
    value: f64,
    pc: usize,
) -> Trap {
    let op = match func.instrs.get(pc) {
        Some(ins) => instr_mnemonic(ins),
        None => "ret".to_string(),
    };
    let var = func
        .fvar_names
        .iter()
        .find(|(r, _)| Some(*r as usize) == dst)
        .map(|(_, n)| n.clone());
    Trap {
        kind: TrapKind::NonFinite { value, op, var },
        pc,
        span: func.spans.get(pc).copied().unwrap_or(Span::DUMMY),
    }
}

/// Post-`bind_args` check for [`ExecOptions::trap_on_nonfinite`]: a
/// demoted parameter whose entry rounding overflowed (finite `f64` →
/// `inf` in a narrower type) is attributed to the parameter by name
/// before the first instruction runs.
fn check_params_finite(func: &CompiledFunction, f: &[f64], a: &[ArraySlot]) -> Result<(), Trap> {
    for spec in &func.params {
        let bad = match spec.kind {
            ParamKind::F(_) => {
                let v = f[spec.reg as usize];
                (!v.is_finite()).then_some(v)
            }
            ParamKind::FArr(_) => match &a[spec.reg as usize] {
                ArraySlot::F(v) => v.iter().find(|x| !x.is_finite()).copied(),
                _ => None,
            },
            _ => None,
        };
        if let Some(value) = bad {
            return Err(Trap {
                kind: TrapKind::NonFinite {
                    value,
                    op: "bind_args".to_string(),
                    var: Some(spec.name.clone()),
                },
                pc: 0,
                span: func.spans.first().copied().unwrap_or(Span::DUMMY),
            });
        }
    }
    Ok(())
}

/// Applies one draw of the call's [`crate::fault::FaultPlan`] (if any):
/// an injected **panic** unwinds right here; an injected **trap** clamps
/// the instruction budget so the run raises a genuine
/// [`TrapKind::InstrBudgetExhausted`] at the plan's instruction; an
/// injected **NaN** asks the caller to poison the first float parameter
/// after binding *and* arms [`ExecOptions::trap_on_nonfinite`] for this
/// run, so the poison is guaranteed to surface as an attributed
/// [`TrapKind::NonFinite`] — a NaN that merely flowed through could
/// launder into a finite-but-wrong result (NaN comparisons are all
/// false; `fmin`/`fmax` discard NaN) and evade detection entirely.
/// Returns the replacement options and the NaN flag.
fn drawn_fault(func: &CompiledFunction, opts: &ExecOptions) -> (Option<ExecOptions>, bool) {
    let Some(plan) = &opts.fault else {
        return (None, false);
    };
    match plan.draw() {
        None => (None, false),
        Some(crate::fault::FaultKind::Panic) => {
            panic!("chef-fault: injected panic in `{}`", func.name)
        }
        Some(crate::fault::FaultKind::Trap) => {
            let mut o = opts.clone();
            o.max_instrs = Some(
                opts.max_instrs
                    .map_or(plan.instr(), |b| b.min(plan.instr())),
            );
            (Some(o), false)
        }
        Some(crate::fault::FaultKind::Nan) => {
            let mut o = opts.clone();
            o.trap_on_nonfinite = true;
            (Some(o), true)
        }
    }
}

/// Poisons the first float parameter register with NaN (the injected-NaN
/// fault). No-op for functions without float parameters.
fn inject_nan_param(func: &CompiledFunction, f: &mut [f64]) {
    if let Some(spec) = func
        .params
        .iter()
        .find(|p| matches!(p.kind, ParamKind::F(_)))
    {
        f[spec.reg as usize] = f64::NAN;
    }
}

/// Runs `func` over every argument set, fanned out over scoped threads
/// with one machine from the process pool per worker; results keep the
/// input order. `max_threads = None` uses the machine's available
/// parallelism; tiny batches run inline.
pub fn run_batch_parallel(
    func: &CompiledFunction,
    arg_sets: Vec<Vec<ArgValue>>,
    opts: &ExecOptions,
    max_threads: Option<usize>,
) -> Vec<Result<CallOutcome, Trap>> {
    MACHINES.run_batch(func, arg_sets, opts, max_threads)
}

/// A reusable VM activation: owns the register files, array slots and the
/// tape, and recycles their capacity across calls.
///
/// ```
/// use chef_ir::prelude::*;
/// use chef_exec::prelude::*;
/// use chef_exec::vm::Machine;
///
/// let mut p = parse_program("double sq(double x) { return x * x; }").unwrap();
/// check_program(&mut p).unwrap();
/// let f = compile_default(p.function("sq").unwrap()).unwrap();
/// let mut m = Machine::new();
/// for k in 0..1000 {
///     let out = m.run_reused(&f, vec![ArgValue::F(k as f64)], &ExecOptions::default()).unwrap();
///     assert_eq!(out.ret_f(), (k * k) as f64);
/// }
/// ```
pub struct Machine {
    pub(crate) f: Vec<f64>,
    pub(crate) i: Vec<i64>,
    pub(crate) a: Vec<ArraySlot>,
    pub(crate) tape: Tape,
    pub(crate) stats: ExecStats,
    /// Per-pc dispatch counters, sized by [`Machine::reset`] to the
    /// function length when [`ExecOptions::profile`] is set (empty
    /// otherwise); harvested into [`CallOutcome::profile`].
    pub(crate) prof: Vec<u64>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// An empty machine; buffers grow on first use and persist.
    pub fn new() -> Self {
        Machine {
            f: Vec::new(),
            i: Vec::new(),
            a: Vec::new(),
            tape: Tape::new(),
            stats: ExecStats::default(),
            prof: Vec::new(),
        }
    }

    /// Prepares the machine for one call of `func`: sizes and zeroes the
    /// register files, resets the tape statistics and installs the tape
    /// budget — all without releasing buffer capacity. Called by
    /// [`Machine::run_reused`]; exposed for callers that want to stage a
    /// machine explicitly.
    pub fn reset(&mut self, func: &CompiledFunction, opts: &ExecOptions) {
        self.f.clear();
        self.f.resize(func.n_fregs as usize, 0.0);
        self.i.clear();
        self.i.resize(func.n_iregs as usize, 0);
        // Array slots keep their buffers but are downgraded to stale:
        // `Alloc` reclaims the capacity (and re-zeroes), while a read
        // without a preceding bind/alloc traps exactly like a fresh
        // machine — one call's data is never observable by the next.
        self.a.truncate(func.n_aregs as usize);
        for slot in &mut self.a {
            let prev = std::mem::replace(slot, ArraySlot::Empty);
            *slot = match prev {
                ArraySlot::F(v) => ArraySlot::StaleF(v),
                ArraySlot::I(v) => ArraySlot::StaleI(v),
                other => other,
            };
        }
        while self.a.len() < func.n_aregs as usize {
            self.a.push(ArraySlot::Empty);
        }
        self.tape.reset(opts.tape_limit);
        self.stats = ExecStats::default();
        self.prof.clear();
        if opts.profile {
            self.prof.resize(func.instrs.len(), 0);
        }
    }

    /// Runs `func` on `args` under `opts`, reusing this machine's buffers.
    pub fn run_reused(
        &mut self,
        func: &CompiledFunction,
        args: Vec<ArgValue>,
        opts: &ExecOptions,
    ) -> Result<CallOutcome, Trap> {
        // Deliberately re-validated on every call: validation is the
        // soundness anchor for the dispatch loop's unchecked register
        // accesses, and caching it by function pointer identity would be
        // ABA-unsound (a dropped-and-reallocated CompiledFunction at the
        // same address could skip validation of malformed code). Batch
        // callers amortize through `run_batch_parallel` instead.
        if let Err(msg) = validate_function(func) {
            return Err(invalid_bytecode(msg));
        }
        self.run_prevalidated(func, args, opts)
    }

    /// The one call frame, shared by the plain VM (`S =`
    /// [`NoShadow`]) and [`crate::shadow::ShadowMachine`]: fault draw,
    /// reset, argument binding, NaN injection and the entry finiteness
    /// check, the profile monomorph choice, then the epilogue (tape
    /// statistics, argument unbinding, profile harvest). The shadow
    /// lane's own steps run only when `S::ACTIVE`. `func` must have
    /// passed [`validate_function`].
    pub(crate) fn call<S: ShadowNum>(
        &mut self,
        lane: &mut Lane<S>,
        func: &CompiledFunction,
        args: Vec<ArgValue>,
        opts: &ExecOptions,
    ) -> Result<CallOutcome, Trap> {
        // One draw per call, plain or shadow, so a plan schedules faults
        // uniformly across both kinds of trial.
        let (fault_opts, inject_nan) = drawn_fault(func, opts);
        let opts = fault_opts.as_ref().unwrap_or(opts);
        self.reset(func, opts);
        if S::ACTIVE {
            lane.reset(func, &args);
        }
        self.bind_args(func, args)?;
        if inject_nan {
            // Primal side only: the shadow keeps the caller's finite
            // value, so the measurement itself goes non-finite — the
            // silent-NaN hazard the fault layer exists to surface.
            inject_nan_param(func, &mut self.f);
        }
        if opts.trap_on_nonfinite {
            check_params_finite(func, &self.f, &self.a)?;
        }
        if S::ACTIVE {
            lane.bind_params(func, &self.f, &self.a);
        }
        // Validation proved `packed` present and word-for-word equal to
        // the enum stream. Profiling selects a separately monomorphized
        // loop so the default path carries no per-iteration check.
        let packed = func
            .packed
            .as_ref()
            .expect("validated functions are packed");
        let exec = if opts.profile {
            exec_loop::<S, true>
        } else {
            exec_loop::<S, false>
        };
        let ret = exec(
            func,
            packed,
            opts,
            &mut self.f,
            &mut self.i,
            &mut self.a,
            &mut self.tape,
            &mut self.stats,
            &mut self.prof,
            lane,
        )?;
        self.stats.tape_peak_bytes = self.tape.peak_bytes();
        self.stats.tape_total_pushes = self.tape.total_pushes();
        let args = self.unbind_args(func);
        let profile = opts.profile.then(|| ExecProfile {
            pc_counts: std::mem::take(&mut self.prof),
        });
        Ok(CallOutcome {
            ret,
            args,
            stats: self.stats,
            profile,
        })
    }

    fn trap_at(&self, func: &CompiledFunction, kind: TrapKind, pc: usize) -> Trap {
        Trap {
            kind,
            pc,
            span: func.spans.get(pc).copied().unwrap_or(Span::DUMMY),
        }
    }

    pub(crate) fn bind_args(
        &mut self,
        func: &CompiledFunction,
        args: Vec<ArgValue>,
    ) -> Result<(), Trap> {
        if args.len() != func.params.len() {
            return Err(self.trap_at(
                func,
                TrapKind::BadArguments(format!(
                    "expected {} arguments, got {}",
                    func.params.len(),
                    args.len()
                )),
                0,
            ));
        }
        for (spec, arg) in func.params.iter().zip(args) {
            match (spec.kind, arg) {
                (ParamKind::F(prec), ArgValue::F(v)) => {
                    self.f[spec.reg as usize] = round_to(v, prec);
                }
                (ParamKind::F(prec), ArgValue::I(v)) => {
                    self.f[spec.reg as usize] = round_to(v as f64, prec);
                }
                (ParamKind::I, ArgValue::I(v)) => {
                    self.i[spec.reg as usize] = v;
                }
                (ParamKind::B, ArgValue::B(v)) => {
                    self.i[spec.reg as usize] = v as i64;
                }
                (ParamKind::FArr(prec), ArgValue::FArr(mut v)) => {
                    self.stats.arg_array_bytes += v.len() * 8;
                    if prec != FloatTy::F64 {
                        for x in &mut v {
                            *x = round_to(*x, prec);
                        }
                    }
                    self.a[spec.reg as usize] = ArraySlot::F(v);
                }
                (ParamKind::IArr, ArgValue::IArr(v)) => {
                    self.stats.arg_array_bytes += v.len() * 8;
                    self.a[spec.reg as usize] = ArraySlot::I(v);
                }
                (kind, got) => {
                    return Err(self.trap_at(
                        func,
                        TrapKind::BadArguments(format!(
                            "parameter `{}` expects {kind:?}, got {got:?}",
                            spec.name
                        )),
                        0,
                    ))
                }
            }
        }
        Ok(())
    }

    pub(crate) fn unbind_args(&mut self, func: &CompiledFunction) -> Vec<ArgValue> {
        let mut out = Vec::with_capacity(func.params.len());
        for spec in &func.params {
            let v = match spec.kind {
                ParamKind::F(_) => ArgValue::F(self.f[spec.reg as usize]),
                ParamKind::I => ArgValue::I(self.i[spec.reg as usize]),
                ParamKind::B => ArgValue::B(self.i[spec.reg as usize] != 0),
                ParamKind::FArr(_) => {
                    match std::mem::replace(&mut self.a[spec.reg as usize], ArraySlot::Empty) {
                        ArraySlot::F(v) => ArgValue::FArr(v),
                        _ => ArgValue::FArr(Vec::new()),
                    }
                }
                ParamKind::IArr => {
                    match std::mem::replace(&mut self.a[spec.reg as usize], ArraySlot::Empty) {
                        ArraySlot::I(v) => ArgValue::IArr(v),
                        _ => ArgValue::IArr(Vec::new()),
                    }
                }
            };
            out.push(v);
        }
        out
    }
}

impl Run for Machine {
    type Outcome = CallOutcome;

    fn run_prevalidated(
        &mut self,
        func: &CompiledFunction,
        args: Vec<ArgValue>,
        opts: &ExecOptions,
    ) -> Result<CallOutcome, Trap> {
        self.call(&mut Lane::<NoShadow>::new(), func, args, opts)
    }

    fn footprint(&self) -> usize {
        let arrays: usize = self
            .a
            .iter()
            .map(|slot| match slot {
                ArraySlot::F(v) | ArraySlot::StaleF(v) => v.capacity() * 8,
                ArraySlot::I(v) | ArraySlot::StaleI(v) => v.capacity() * 8,
                ArraySlot::Empty => 0,
            })
            .sum();
        let regs = (self.f.capacity() + self.i.capacity()) * 8;
        arrays + regs + self.tape.capacity_bytes()
    }
}

/// Checks that every register operand and jump target of `func` is within
/// the declared files and that `func.packed` is present and each word is
/// the canonical packing of its instruction, with pool indices that name
/// the instruction's constants. This makes the dispatch loop's unchecked
/// register and pool accesses sound. An unpacked function is rejected
/// (run it through [`crate::pack::pack_function`] first). One visit and
/// one pack per instruction; negligible next to execution.
pub fn validate_function(func: &CompiledFunction) -> Result<(), String> {
    let size = |class: RegClass| match class {
        RegClass::F => func.n_fregs,
        RegClass::I => func.n_iregs,
        RegClass::A => func.n_aregs,
    };
    let len = func.instrs.len() as u32;
    for ins in &func.instrs {
        let mut ok = true;
        let target = ins.visit_regs(|class, r, _w| ok &= r < size(class));
        if !ok || target.is_some_and(|t| t > len) {
            return Err(format!(
                "instruction references out-of-range register: {ins:?}"
            ));
        }
    }
    for p in &func.params {
        if p.reg >= size(p.kind.class()) {
            return Err(format!(
                "parameter `{}` binds out-of-range register",
                p.name
            ));
        }
    }
    // The dispatch loop runs the packed stream and reads its operand
    // fields unchecked. Each word must be the canonical packing of its
    // (just validated) instruction, which carries the register/target
    // bounds proof over to the words; `Named` takes each pool index from
    // the word and checks that the entry holds the instruction's constant.
    let Some(p) = &func.packed else {
        return Err(format!(
            "function `{}` is not packed; call pack::pack_function (or compile \
             with CompileOptions::pack) before running it",
            func.name
        ));
    };
    if p.words.len() != func.instrs.len() {
        return Err(format!(
            "packed stream has {} words for {} instructions",
            p.words.len(),
            func.instrs.len()
        ));
    }
    for (pc, (&w, ins)) in p.words.iter().zip(&func.instrs).enumerate() {
        let named = &mut crate::opcodes::Named { w, pool: &p.pool };
        if crate::opcodes::pack_instr(ins, named) != Some(w) {
            return Err(format!(
                "packed word {pc} ({w:#018x}) is not the packing of {ins:?}"
            ));
        }
    }
    Ok(())
}

#[inline]
pub(crate) fn fcmp(op: CmpOp, x: f64, y: f64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

#[inline]
pub(crate) fn icmp(op: CmpOp, x: i64, y: i64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::compile::{compile, compile_default, CompileOptions, PrecisionMap};
    use chef_ir::ast::VarId;
    use chef_ir::parser::parse_program;
    use chef_ir::typeck::check_program;

    fn run_src(src: &str, args: Vec<ArgValue>) -> CallOutcome {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        run(&f, args).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let out = run_src(
            "double f(double x, double y) { return x * y + 1.0; }",
            vec![ArgValue::F(3.0), ArgValue::F(4.0)],
        );
        assert_eq!(out.ret_f(), 13.0);
    }

    #[test]
    fn listing1_float_addition_rounds() {
        // The paper's Listing 1: z = x + y in float.
        let out = run_src(
            "float func(float x, float y) { float z; z = x + y; return z; }",
            vec![ArgValue::F(1.95e-5), ArgValue::F(1.37e-7)],
        );
        let exact = 1.95e-5f64 + 1.37e-7f64;
        let f32_result = (1.95e-5f32 + 1.37e-7f32) as f64;
        assert_eq!(out.ret_f(), f32_result);
        assert_ne!(out.ret_f(), exact);
    }

    #[test]
    fn loops_compute_sums() {
        let out = run_src(
            "double f(int n) { double s = 0.0; for (int i = 1; i <= n; i++) { s += i; } return s; }",
            vec![ArgValue::I(100)],
        );
        assert_eq!(out.ret_f(), 5050.0);
    }

    #[test]
    fn while_loop_and_division() {
        let out = run_src(
            "int f(int n) { int c = 0; while (n > 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } c++; } return c; }",
            vec![ArgValue::I(27)],
        );
        assert_eq!(out.ret.unwrap().as_i(), 111); // Collatz steps for 27
    }

    #[test]
    fn by_ref_scalars_are_written_back() {
        let out = run_src(
            "void f(double x, double &out) { out = x * 2.0; }",
            vec![ArgValue::F(21.0), ArgValue::F(0.0)],
        );
        assert_eq!(out.args[1], ArgValue::F(42.0));
    }

    #[test]
    fn arrays_in_and_out() {
        let out = run_src(
            "void scale(double a[], int n, double k) { for (int i = 0; i < n; i++) { a[i] *= k; } }",
            vec![ArgValue::FArr(vec![1.0, 2.0, 3.0]), ArgValue::I(3), ArgValue::F(2.0)],
        );
        assert_eq!(out.args[0].as_farr(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn local_arrays_work() {
        let out = run_src(
            "double f(int n) { double r[n]; for (int i = 0; i < n; i++) { r[i] = i * 1.0; } double s = 0.0; for (int i = 0; i < n; i++) { s += r[i]; } return s; }",
            vec![ArgValue::I(10)],
        );
        assert_eq!(out.ret_f(), 45.0);
        assert_eq!(out.stats.local_array_bytes, 80);
    }

    #[test]
    fn oob_access_traps() {
        let mut p = parse_program("double f(double a[]) { return a[5]; }").unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let err = run(&f, vec![ArgValue::FArr(vec![1.0, 2.0])]).unwrap_err();
        assert_eq!(err.kind, TrapKind::OobIndex { idx: 5, len: 2 });
    }

    #[test]
    fn div_by_zero_traps() {
        let mut p = parse_program("int f(int n) { return 1 / n; }").unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let err = run(&f, vec![ArgValue::I(0)]).unwrap_err();
        assert_eq!(err.kind, TrapKind::DivByZero);
        // Float division by zero is IEEE: no trap.
        let out = run_src(
            "double f(double x) { return 1.0 / x; }",
            vec![ArgValue::F(0.0)],
        );
        assert_eq!(out.ret_f(), f64::INFINITY);
    }

    #[test]
    fn missing_return_traps() {
        let mut p = parse_program("double f(double x) { x = x + 1.0; }").unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let err = run(&f, vec![ArgValue::F(0.0)]).unwrap_err();
        assert_eq!(err.kind, TrapKind::MissingReturn);
    }

    #[test]
    fn instr_budget_stops_infinite_loop() {
        let mut p = parse_program("void f() { while (true) { } }").unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let opts = ExecOptions {
            max_instrs: Some(10_000),
            ..Default::default()
        };
        let err = run_with(&f, vec![], &opts).unwrap_err();
        let TrapKind::InstrBudgetExhausted { executed } = err.kind else {
            panic!("expected budget trap, got {:?}", err.kind);
        };
        assert!(executed > 10_000, "count {executed} must exceed the budget");
    }

    #[test]
    fn budget_is_block_granular_not_per_instruction() {
        // A long straight-line block may overshoot the budget but a loop
        // cannot escape it: the backward jump is the checkpoint.
        let mut p = parse_program(
            "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += 1.0; } return s; }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let opts = ExecOptions {
            max_instrs: Some(50),
            ..Default::default()
        };
        let err = run_with(&f, vec![ArgValue::I(1_000_000)], &opts).unwrap_err();
        assert!(
            matches!(err.kind, TrapKind::InstrBudgetExhausted { executed } if executed > 50),
            "{:?}",
            err.kind
        );
        // A run that fits the budget is unaffected.
        let ok = run_with(&f, vec![ArgValue::I(2)], &opts).unwrap();
        assert_eq!(ok.ret_f(), 2.0);
    }

    #[test]
    fn adjacent_pairs_count_fall_through_pairs_only() {
        let mut p = parse_program(
            "double f(int n) { double s = 1.5; for (int i = 0; i < n; i++) { s = s * 3.0; s = sqrt(s); } return s; }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let fused = CompileOptions {
            fuse: true,
            ..Default::default()
        };
        let f = compile(&p.functions[0], &fused).unwrap();
        let opts = ExecOptions {
            profile: true,
            ..Default::default()
        };
        let out = run_with(&f, vec![ArgValue::I(10)], &opts).unwrap();
        let prof = out.profile.unwrap();
        let pairs = prof.adjacent_pairs(&f);
        let count = |a: &str, b: &str| {
            pairs
                .iter()
                .find(|((x, y), _)| x == a && y == b)
                .map(|p| p.1)
        };
        // The loop body runs ten times: its two operations pair up ten
        // times, although the first is a jump target (the back edge's).
        assert_eq!(
            count("FMulC", "FIntr1"),
            Some(10),
            "{pairs:?}\n{}",
            f.disassemble()
        );
        // The body's first operation is entered by the back edge too, so
        // no pair ends in it.
        assert!(pairs.iter().all(|((_, b), _)| b != "FMulC"), "{pairs:?}");
        assert!(pairs.iter().all(|&(_, c)| c <= out.stats.instrs_executed));
    }

    #[test]
    fn deadline_stops_infinite_loop_with_a_typed_trap() {
        let mut p = parse_program("void f() { while (true) { } }").unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let opts = ExecOptions::default().deadline_in(std::time::Duration::from_millis(5));
        let err = run_with(&f, vec![], &opts).unwrap_err();
        let TrapKind::DeadlineExceeded { executed } = err.kind else {
            panic!("expected deadline trap, got {:?}", err.kind);
        };
        assert!(
            executed >= DEADLINE_STRIDE,
            "the first probe happens a full stride in, not before ({executed})"
        );
        // The trap attributes a real pc (the loop's backward jump).
        assert!(err.pc < f.instrs.len(), "pc {} out of range", err.pc);
    }

    #[test]
    fn short_runs_complete_even_under_an_expired_deadline() {
        // Probes are stride-amortized: a run shorter than one stride
        // never reads the clock, so a deadline already in the past
        // cannot stop it — completion wins over a late cancellation.
        let mut p = parse_program(
            "double f(int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += 1.0; } return s; }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let opts = ExecOptions {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..Default::default()
        };
        let ok = run_with(&f, vec![ArgValue::I(100)], &opts).unwrap();
        assert_eq!(ok.ret_f(), 100.0);
        // The same expired deadline stops a loop longer than a stride.
        let err = run_with(&f, vec![ArgValue::I(10_000_000)], &opts).unwrap_err();
        assert!(
            matches!(err.kind, TrapKind::DeadlineExceeded { .. }),
            "{:?}",
            err.kind
        );
    }

    #[test]
    fn intrinsics_evaluate() {
        let out = run_src(
            "double f(double x) { return sqrt(x) + pow(x, 2.0) + fabs(-x); }",
            vec![ArgValue::F(4.0)],
        );
        assert_eq!(out.ret_f(), 2.0 + 16.0 + 4.0);
    }

    #[test]
    fn demoted_param_rounds_on_entry() {
        let mut p = parse_program("double f(double x) { return x; }").unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            precisions: PrecisionMap::empty().with(VarId(0), chef_ir::types::FloatTy::F32),
            ..Default::default()
        };
        let f = compile(&p.functions[0], &opts).unwrap();
        let x = 1.0 / 3.0;
        let out = run(&f, vec![ArgValue::F(x)]).unwrap();
        assert_eq!(out.ret_f(), x as f32 as f64);
    }

    #[test]
    fn demoted_array_param_rounds_elements() {
        let mut p = parse_program("double f(double a[]) { return a[0] + a[1]; }").unwrap();
        check_program(&mut p).unwrap();
        let opts = CompileOptions {
            precisions: PrecisionMap::empty().with(VarId(0), chef_ir::types::FloatTy::F32),
            ..Default::default()
        };
        let f = compile(&p.functions[0], &opts).unwrap();
        let (x, y) = (1.0 / 3.0, 2.0 / 7.0);
        let out = run(&f, vec![ArgValue::FArr(vec![x, y])]).unwrap();
        assert_eq!(out.ret_f(), (x as f32 as f64) + (y as f32 as f64));
    }

    #[test]
    fn tape_ops_round_trip_through_vm() {
        use chef_ir::ast::{Expr, LValue, Stmt, StmtKind, VarRef};
        // Hand-build: void f(double &x) { push x; x = 0; pop x; }
        let mut p = parse_program("void f(double &x) { x = 0.0; }").unwrap();
        check_program(&mut p).unwrap();
        let func = &mut p.functions[0];
        let xref = VarRef::resolved("x", VarId(0));
        let push = Stmt::synth(StmtKind::TapePush(Expr::var(
            "x",
            VarId(0),
            chef_ir::types::Type::Float(chef_ir::types::FloatTy::F64),
        )));
        let pop = Stmt::synth(StmtKind::TapePop(LValue::Var(xref)));
        func.body.stmts.insert(0, push);
        func.body.stmts.push(pop);
        let f = compile_default(func).unwrap();
        let out = run(&f, vec![ArgValue::F(7.5)]).unwrap();
        assert_eq!(out.args[0], ArgValue::F(7.5)); // restored by pop
        assert_eq!(out.stats.tape_total_pushes, 1);
        assert_eq!(out.stats.tape_peak_bytes, 8);
    }

    #[test]
    fn tape_limit_reproduces_oom() {
        use chef_ir::ast::{Expr, Stmt, StmtKind};
        let mut p = parse_program(
            "void f(int n) { for (int i = 0; i < n; i++) { double t = 1.0; t = 2.0; } }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let func = &mut p.functions[0];
        // Add a tape push inside the loop body.
        let push = Stmt::synth(StmtKind::TapePush(Expr::flit(1.0)));
        match &mut func.body.stmts[0].kind {
            StmtKind::For { body, .. } => body.stmts.push(push),
            _ => unreachable!(),
        }
        let f = compile_default(func).unwrap();
        let opts = ExecOptions {
            tape_limit: Some(1024),
            ..Default::default()
        };
        // 100 pushes fit easily.
        assert!(run_with(&f, vec![ArgValue::I(100)], &opts).is_ok());
        // A million pushes exceed 1 KiB.
        let err = run_with(&f, vec![ArgValue::I(1_000_000)], &opts).unwrap_err();
        assert!(matches!(
            err.kind,
            TrapKind::Tape(TapeError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn machine_reuse_is_bit_identical_to_fresh_runs() {
        let mut p = parse_program(
            "double f(double x, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += sin(x + i * 0.01); } return s; }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let opts = ExecOptions::default();
        let mut m = Machine::new();
        for k in 0..10 {
            let args = vec![ArgValue::F(0.1 * k as f64), ArgValue::I(50 + k)];
            let reused = m.run_reused(&f, args.clone(), &opts).unwrap();
            let fresh = Machine::new().run_reused(&f, args, &opts).unwrap();
            assert_eq!(reused.ret_f().to_bits(), fresh.ret_f().to_bits());
            assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn machine_reuse_resets_tape_between_calls() {
        use chef_ir::ast::{Expr, Stmt, StmtKind};
        let mut p = parse_program("void f() { double t = 1.0; t = 2.0; }").unwrap();
        check_program(&mut p).unwrap();
        let func = &mut p.functions[0];
        func.body
            .stmts
            .push(Stmt::synth(StmtKind::TapePush(Expr::flit(1.0))));
        let f = compile_default(func).unwrap();
        let opts = ExecOptions {
            tape_limit: Some(16),
            ..Default::default()
        };
        let mut m = Machine::new();
        // Each call pushes once; with a 2-entry budget this only survives
        // repeated calls if the tape is reset between them.
        for _ in 0..100 {
            let out = m.run_reused(&f, vec![], &opts).unwrap();
            assert_eq!(out.stats.tape_total_pushes, 1);
            assert_eq!(out.stats.tape_peak_bytes, 8);
        }
    }

    #[test]
    fn run_batch_matches_individual_runs() {
        let mut p = parse_program(
            "double f(double x) { double s = 0.0; for (int i = 0; i < 100; i++) { s += x * i; } return s; }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let opts = ExecOptions::default();
        let sets: Vec<Vec<ArgValue>> = (0..20)
            .map(|k| vec![ArgValue::F(k as f64 * 0.37)])
            .collect();
        let batched = run_batch_parallel(&f, sets.clone(), &opts, Some(1));
        let parallel = run_batch_parallel(&f, sets.clone(), &opts, Some(4));
        for ((set, b), par) in sets.into_iter().zip(&batched).zip(&parallel) {
            let single = run_with(&f, set, &opts).unwrap();
            let b = b.as_ref().unwrap();
            let par = par.as_ref().unwrap();
            assert_eq!(single.ret_f().to_bits(), b.ret_f().to_bits());
            assert_eq!(single.ret_f().to_bits(), par.ret_f().to_bits());
            assert_eq!(single.stats, b.stats);
            assert_eq!(single.stats, par.stats);
        }
    }

    #[test]
    fn batch_preserves_per_call_traps() {
        let mut p = parse_program("int f(int n) { return 10 / n; }").unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let sets = vec![
            vec![ArgValue::I(2)],
            vec![ArgValue::I(0)], // traps
            vec![ArgValue::I(5)],
        ];
        let out = run_batch_parallel(&f, sets, &ExecOptions::default(), Some(2));
        assert_eq!(out[0].as_ref().unwrap().ret.unwrap().as_i(), 5);
        assert_eq!(out[1].as_ref().unwrap_err().kind, TrapKind::DivByZero);
        assert_eq!(out[2].as_ref().unwrap().ret.unwrap().as_i(), 2);
    }

    #[test]
    fn machine_reuse_does_not_leak_array_slots_across_calls() {
        use chef_ir::span::Span;
        // Function A binds an array argument into slot 0.
        let mut p = parse_program("double f(double a[]) { return a[0]; }").unwrap();
        check_program(&mut p).unwrap();
        let a = compile_default(&p.functions[0]).unwrap();
        // Hand-built function B reads slot 0 without binding or allocating
        // it. On a fresh machine that traps; on a reused machine it must
        // trap identically instead of reading A's leftover buffer.
        let b = CompiledFunction {
            name: "leaky".into(),
            instrs: vec![
                Instr::IConst { dst: IReg(0), v: 0 },
                Instr::FLoad {
                    dst: FReg(0),
                    arr: AReg(0),
                    idx: IReg(0),
                },
                Instr::RetF { src: FReg(0) },
            ],
            spans: vec![Span::DUMMY; 3],
            n_fregs: 1,
            n_iregs: 1,
            n_aregs: 1,
            params: vec![],
            ret: RetKind::F(chef_ir::types::FloatTy::F64),
            fvar_names: vec![],
            avar_names: vec![],
            packed: None,
        };
        let b = CompiledFunction {
            packed: crate::pack::pack_function(&b),
            ..b
        };
        let opts = ExecOptions::default();
        let mut m = Machine::new();
        let fresh = Machine::new().run_reused(&b, vec![], &opts).unwrap_err();
        assert_eq!(fresh.kind, TrapKind::OobIndex { idx: 0, len: 0 });
        let ok = m
            .run_reused(&a, vec![ArgValue::FArr(vec![42.0])], &opts)
            .unwrap();
        assert_eq!(ok.ret_f(), 42.0);
        let reused = m.run_reused(&b, vec![], &opts).unwrap_err();
        assert_eq!(reused.kind, fresh.kind, "reuse must not expose stale slots");
    }

    #[test]
    fn nonfinite_trap_reports_pc_op_and_variable() {
        // Demoting `y` to float makes the f64-finite product 1e30 * 1e30
        // overflow its assignment rounding to +Inf.
        let mut p = parse_program("double f(double x) { double y = x * x; return y; }").unwrap();
        check_program(&mut p).unwrap();
        let copts = CompileOptions {
            precisions: PrecisionMap::empty().with(VarId(1), chef_ir::types::FloatTy::F32),
            fuse: true,
            ..Default::default()
        };
        let f = compile(&p.functions[0], &copts).unwrap();
        // Default options: the overflow flows through silently.
        let silent = run(&f, vec![ArgValue::F(1e30)]).unwrap();
        assert!(silent.ret_f().is_infinite());
        // trap_on_nonfinite: trapped at the producing op, attributed
        // to the demoted variable.
        let nf = ExecOptions {
            trap_on_nonfinite: true,
            ..Default::default()
        };
        let err = run_with(&f, vec![ArgValue::F(1e30)], &nf).unwrap_err();
        let TrapKind::NonFinite { value, op, var } = err.kind else {
            panic!("expected NonFinite, got {:?}", err.kind);
        };
        assert!(value.is_infinite());
        assert!(err.pc < f.instrs.len());
        assert!(op.contains("Mul") || op.contains("Round"), "op `{op}`");
        assert_eq!(var.as_deref(), Some("y"));
    }

    #[test]
    fn entry_rounding_overflow_is_attributed_to_the_parameter() {
        let mut p = parse_program("double f(double x) { return x * 0.5; }").unwrap();
        check_program(&mut p).unwrap();
        let copts = CompileOptions {
            precisions: PrecisionMap::empty().with(VarId(0), chef_ir::types::FloatTy::F32),
            fuse: true,
            pack: true,
            ..Default::default()
        };
        let f = compile(&p.functions[0], &copts).unwrap();
        // 1e300 is finite in f64 but rounds to +Inf in float at entry.
        assert!(run(&f, vec![ArgValue::F(1e300)])
            .unwrap()
            .ret_f()
            .is_infinite());
        let nf = ExecOptions {
            trap_on_nonfinite: true,
            ..Default::default()
        };
        let err = run_with(&f, vec![ArgValue::F(1e300)], &nf).unwrap_err();
        let TrapKind::NonFinite { op, var, .. } = err.kind else {
            panic!("expected NonFinite, got {:?}", err.kind);
        };
        assert_eq!(op, "bind_args");
        assert_eq!(var.as_deref(), Some("x"));
    }

    #[test]
    fn trap_on_nonfinite_is_silent_on_finite_runs() {
        let mut p = parse_program(
            "double f(double x, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += sin(x + i); } return s; }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let nf = ExecOptions {
            trap_on_nonfinite: true,
            ..Default::default()
        };
        let args = vec![ArgValue::F(0.3), ArgValue::I(50)];
        let checked = run_with(&f, args.clone(), &nf).unwrap();
        let plain = run(&f, args).unwrap();
        assert_eq!(checked.ret_f().to_bits(), plain.ret_f().to_bits());
        assert_eq!(checked.stats, plain.stats);
    }

    #[test]
    fn fault_plan_injects_traps_nans_and_panics_deterministically() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut p = parse_program(
            "double f(double x, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += x; } return s; }",
        )
        .unwrap();
        check_program(&mut p).unwrap();
        let f = compile_default(&p.functions[0]).unwrap();
        let args = || vec![ArgValue::F(0.5), ArgValue::I(100)];

        // Injected trap: a genuine budget trap, recoverable on retry
        // because consecutive draws never both fire.
        let opts = ExecOptions {
            fault: Some(FaultPlan::new(Some(FaultKind::Trap), 2, 0, 16)),
            ..Default::default()
        };
        let err = run_with(&f, args(), &opts).unwrap_err();
        assert!(matches!(err.kind, TrapKind::InstrBudgetExhausted { .. }));
        assert_eq!(run_with(&f, args(), &opts).unwrap().ret_f(), 50.0);

        // Injected NaN arms `trap_on_nonfinite` for its run, so the
        // poison surfaces as an attributed trap at binding — it can't
        // launder into a finite-but-wrong result downstream.
        let opts = ExecOptions {
            fault: Some(FaultPlan::new(Some(FaultKind::Nan), 2, 0, 16)),
            ..Default::default()
        };
        let err = run_with(&f, args(), &opts).unwrap_err();
        match &err.kind {
            TrapKind::NonFinite { value, op, var } => {
                assert!(value.is_nan());
                assert_eq!(op, "bind_args");
                assert_eq!(var.as_deref(), Some("x"));
            }
            other => panic!("expected a NonFinite trap, got {other:?}"),
        }
        assert_eq!(err.pc, 0);
        assert_eq!(run_with(&f, args(), &opts).unwrap().ret_f(), 50.0);

        // Injected panic unwinds: the pool discards the panicking run's
        // machine and the next call checks out a clean one.
        let opts = ExecOptions {
            fault: Some(FaultPlan::new(Some(FaultKind::Panic), 2, 0, 16)),
            ..Default::default()
        };
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_with(&f, args(), &opts)));
        assert!(r.is_err());
        assert_eq!(run_with(&f, args(), &opts).unwrap().ret_f(), 50.0);
    }

    #[test]
    fn unpacked_functions_are_rejected_until_packed() {
        let mut p = parse_program("double f(double x) { return x * x; }").unwrap();
        check_program(&mut p).unwrap();
        let copts = CompileOptions {
            pack: false,
            ..Default::default()
        };
        let mut f = compile(&p.functions[0], &copts).unwrap();
        assert!(f.packed.is_none());
        let err = run(&f, vec![ArgValue::F(3.0)]).unwrap_err();
        let TrapKind::InvalidBytecode(msg) = &err.kind else {
            panic!("expected InvalidBytecode, got {err:?}");
        };
        assert!(msg.contains("pack::pack_function"), "{msg}");
        f.packed = crate::pack::pack_function(&f);
        assert_eq!(run(&f, vec![ArgValue::F(3.0)]).unwrap().ret_f(), 9.0);
    }

    /// Two hand-built functions that pack (their operands fit the word
    /// fields) yet reference an out-of-range register and an
    /// out-of-range jump target: validation must reject both before any
    /// dispatch loop reads an operand unchecked.
    pub(crate) fn malformed_functions() -> Vec<CompiledFunction> {
        use chef_ir::span::Span;
        let packed = |f: CompiledFunction| CompiledFunction {
            packed: crate::pack::pack_function(&f),
            ..f
        };
        let hand = |name: &str, instrs: Vec<Instr>, n_fregs: u32| {
            packed(CompiledFunction {
                name: name.into(),
                spans: vec![Span::DUMMY; instrs.len()],
                instrs,
                n_fregs,
                n_iregs: 0,
                n_aregs: 0,
                params: vec![],
                ret: RetKind::Void,
                fvar_names: vec![],
                avar_names: vec![],
                packed: None,
            })
        };
        // Words edited after packing. Each function passes the
        // enum-stream bounds check, so only the word check can reject it.
        let tampered = |name: &str, instrs: Vec<Instr>, edit: fn(&mut Vec<u64>, &mut [Instr])| {
            let mut f = hand(name, instrs, 2);
            f.n_iregs = 1;
            edit(&mut f.packed.as_mut().unwrap().words, &mut f.instrs);
            f
        };
        vec![
            hand(
                "bad",
                vec![Instr::FAdd {
                    dst: FReg(0),
                    a: FReg(7),
                    b: FReg(0),
                }],
                1,
            ),
            hand("bad_jmp", vec![Instr::Jmp { target: 99 }], 0),
            tampered(
                "stale_word",
                vec![
                    Instr::FAdd {
                        dst: FReg(0),
                        a: FReg(0),
                        b: FReg(1),
                    },
                    Instr::RetVoid,
                ],
                |_, instrs| {
                    instrs[0] = Instr::FSub {
                        dst: FReg(0),
                        a: FReg(0),
                        b: FReg(1),
                    }
                },
            ),
            tampered(
                "pool_index_names_another_constant",
                vec![
                    Instr::FConst {
                        dst: FReg(0),
                        v: 1.0,
                    },
                    Instr::FConst {
                        dst: FReg(1),
                        v: 2.0,
                    },
                    Instr::RetVoid,
                ],
                |words, _| words[0] = (words[0] & !(0xffff << 24)) | 1 << 24,
            ),
            tampered("opcode_out_of_range", vec![Instr::RetVoid], |words, _| {
                words[0] = (words[0] & !0xff) | u64::from(crate::pack::op::COUNT)
            }),
            tampered(
                "fmov_junk_in_unused_field",
                vec![
                    Instr::FMov {
                        dst: FReg(0),
                        src: FReg(1),
                    },
                    Instr::RetVoid,
                ],
                |words, _| words[0] |= 1 << 40,
            ),
            tampered(
                "fcmp_code_7",
                vec![
                    Instr::FCmp {
                        dst: IReg(0),
                        op: CmpOp::Ge,
                        a: FReg(0),
                        b: FReg(1),
                    },
                    Instr::RetVoid,
                ],
                |words, _| words[0] = (words[0] & !(0xff << 56)) | 7 << 56,
            ),
        ]
    }

    #[test]
    fn tampered_words_fail_the_word_check() {
        for f in malformed_functions().into_iter().skip(2) {
            let err = validate_function(&f).expect_err(&f.name);
            assert!(err.contains("is not the packing of"), "{}: {err}", f.name);
        }
    }

    #[test]
    fn malformed_bytecode_is_rejected_not_ub() {
        for f in malformed_functions() {
            assert!(f.packed.is_some(), "{} must pack", f.name);
            let err = run(&f, vec![]).unwrap_err();
            assert!(matches!(err.kind, TrapKind::InvalidBytecode(_)), "{err:?}");
        }
    }
}
