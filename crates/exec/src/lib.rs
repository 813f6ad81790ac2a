//! # chef-exec — bytecode compiler and VM for KernelC
//!
//! This crate is the *execution substrate*: where the paper compiles
//! Clad-generated C++ with Clang and runs it natively, we compile KernelC
//! ASTs (original functions, mixed-precision variants, and the adjoint +
//! error-estimation functions generated by `chef-ad`/`chef-core`) to a
//! register bytecode and run them on a small VM.
//!
//! Key capabilities:
//!
//! * **Precision simulation** ([`precision`], chef-ir's statement of
//!   KernelC's precision rule, re-exported): `half`/`bfloat`/`float`
//!   variables are stored as `f64` and rounded on every assignment and
//!   narrow-precision operation, so a [`compile::PrecisionMap`] of
//!   demotions behaves exactly like the paper's hand-rewritten
//!   mixed-precision source.
//! * **Approximate intrinsics** ([`intrinsics`]): the approximation
//!   study's `fastexp`/`fasterexp`/`fastlog`/`fastsqrt`/`fastnormcdf`
//!   are intrinsics a kernel calls in its source; they evaluate the
//!   FastApprox functions.
//! * **Tape accounting** ([`tape`]): the adjoint's push/pop stack tracks
//!   peak bytes and supports a hard budget, reproducing the "ADAPT runs
//!   out of memory" behaviour of the paper's figures.
//!
//! ## Execution architecture
//!
//! The analysis loop calls the same compiled function thousands of times
//! (sensitivity profiling, tuner candidates, the benchmark sweeps), and
//! the engine is organized around that pattern in the layers below.
//! Which fields of an [`bytecode::Instr`] are registers (and in which
//! file; read, written, or both, as an accumulator is) and which is a
//! jump target is stated once, by
//! the opcode table in `opcodes.rs`, which generates the operand visitor
//! along with the [`pack::op`] numbers, the packer and [`pack::decode`]:
//! the fuser's dataflow, register compaction and
//! [`vm::validate_function`]'s checks all derive from it. A new
//! instruction is an [`bytecode::Instr`] variant, one table row and one
//! arm in the dispatch loop.
//!
//! 1. **Bytecode fusion** ([`fuse`]): a peephole pass, run to fixpoint
//!    by default in [`compile::compile`], collapses the compiler's hot idioms
//!    into superinstructions — `FMulAdd`, fused op+round (`FAddRound` …,
//!    the dominant pair in demoted code), intrinsic+round, constant-offset
//!    array access (`FLoadOff`/`FStoreOff`), array accumulation
//!    (`FAddTo`/`FAddToK`/`FSubFrom`: the `a[i] += v` load-add-store of adjoint and
//!    error-estimation code in one dispatch), the estimator's error term
//!    (`FAbsMulC`: `ε·|x·x̄|` as one dispatch for its mul, `fabs` and
//!    constant multiply) and its two accumulations (`FAddAccK`: the
//!    running total and the variable's attribution slot), add-immediate,
//!    compare-and-branch (register and immediate forms), constant-operand
//!    arithmetic (`FMulC` …, so loop bodies stop re-materializing
//!    `FConst`s every iteration) and generic copy elimination. Each
//!    fused form computes the exact composition of the originals
//!    (separate roundings, same traps), so fusion is observationally
//!    bit-identical; the `fusion_differential` test pins this on every
//!    `chef-apps` kernel.
//! 2. **Register compaction** ([`mod@cfg`], between `fuse_to_fixpoint`
//!    and `pack`, default-on via [`compile::CompileOptions::cfg`]): a
//!    dense renumbering of each register file drops the slots no
//!    instruction, parameter or named variable uses, so pooled machines
//!    allocate smaller register files. It moves no instruction, so it is
//!    unobservable — results, traps, dispatch counts and shadow
//!    measurements included — and, since it only lowers register
//!    indices, it never makes a function unpackable. The
//!    `cfg_differential` suites pin compaction-on vs -off equality
//!    (plain, f64/DD shadow, fault injection) on every app kernel,
//!    adjoints and proptest-generated branching kernels, and pin the
//!    compacted output by fingerprint per kernel and mode.
//!
//!    *Pass ordering*: fusion first, compaction next, packing last
//!    (both earlier stages invalidate `packed`, and the packed stream
//!    must be word-for-word equal to the final enum stream). Fusion
//!    emits a superinstruction only when [`pack::fits`] accepts it.
//! 3. **Packed-word dispatch** ([`pack`]): the fused stream is flattened
//!    1:1 into fixed-width `u64` words with a per-function constant pool,
//!    and one dispatch loop runs the words through a dense-opcode jump
//!    table. This is the only execution format, and the engine has
//!    exactly one dispatch loop: the shadow pass's loop, which the plain
//!    VM runs with a zero-sized lane whose shadow work compiles away
//!    (both also instantiated with and without the per-pc profiler). The enum
//!    [`bytecode::Instr`] stream is the compiler's IR and the decode
//!    target. See *Packed word format* below.
//! 4. **Reusable machines** ([`vm::Machine`]): register files, array
//!    slots and the [`Tape`]'s buffers persist across calls —
//!    [`vm::Machine::reset`] re-sizes without re-allocating; the shadow
//!    machine wraps one and shares its call frame. Register operands are
//!    validated once per call (every operand the operand table reports
//!    is checked against its file's size) and then accessed unchecked in
//!    the dispatch loop, by the VM and the shadow pass alike; the
//!    `max_instrs` budget is checked at backward jumps and returns
//!    instead of on every instruction, and the
//!    [`vm::ExecOptions::deadline`] wall clock is probed at backward
//!    jumps only once per [`vm::DEADLINE_STRIDE`] instructions.
//! 5. **One batch body**: for plain and shadow machines alike, a batch
//!    is validated once and fanned out over scoped threads, one pooled
//!    machine per worker, input order preserved.
//!    [`vm::run_batch_parallel`] is that body on the process pool;
//!    `chef_core`'s `ErrorEstimator::execute_batch` and `chef-service`'s
//!    batch jobs ride on it.
//! 6. **One pool per machine kind**: a tuner or analysis session
//!    compiles hundreds of `PrecisionMap` variants, and a pool lets all
//!    of their runs share one set of register-file/tape allocations,
//!    sized to the largest run. The process owns every pool and nothing
//!    else holds one: one of plain machines behind
//!    [`vm::run`]/[`vm::run_with`] and [`vm::run_batch_parallel`], and
//!    one per shadow type behind [`shadow::run_shadow`]. `chef_core`'s
//!    estimator, `chef_tuner`'s `VariantCache` (a compile cache only),
//!    `chef-shadow`'s oracle and `chef-service`'s jobs all run through
//!    those entry points.
//! 7. **Divergence-aware shadow execution** ([`shadow`]): the fused
//!    primal+shadow pass evaluates every float comparison and float→int
//!    truncation a second time on the shadow operands and reports
//!    [`shadow::DivergencePoint`]s (with per-variable attribution) when
//!    the decisions disagree — the primal trace is followed, the split
//!    is reported, and consumers treat divergent measurements as
//!    untrusted.
//!
//! ## Trap model & fault injection
//!
//! Every per-call failure is a value, not a process event: the VM and
//! the shadow interpreter return [`vm::Trap`] (`{kind, pc, span}`) with
//! a [`vm::TrapKind`] describing *why* — tape exhaustion, integer
//! division by zero, out-of-bounds indices, the `max_instrs` budget
//! (which carries the block-granular executed count, so callers can
//! escalate a retry budget proportionally — `chef-tuner` caps that
//! escalation at `ESCALATION_CAP ×` the admitted budget), the
//! [`vm::ExecOptions::deadline`] wall-clock bound, malformed bytecode,
//! and the opt-in [`vm::TrapKind::NonFinite`].
//!
//! Deadlines are **cooperative**, never preemptive: the dispatch loop
//! (plain and shadow alike) checks the clock at taken backward jumps
//! (the only place a run can spend unbounded time), and only once per
//! [`vm::DEADLINE_STRIDE`] executed instructions, so the disarmed path
//! costs one always-false register compare per loop iteration and the
//! armed path one `Instant::now()` per ~8k instructions. An expired
//! deadline is a typed [`vm::TrapKind::DeadlineExceeded`] trap with full
//! pc/span attribution — never a panic, never a killed thread — so a
//! server can bound a session's wall-clock time and still tell the
//! client exactly where the run was stopped.
//!
//! The opt-in [`vm::TrapKind::NonFinite`], enabled by
//! [`vm::ExecOptions::trap_on_nonfinite`], checks every float write in
//! the dispatch loop (plus demoted-parameter entry rounding and the
//! rounded return) and traps at the *first* NaN/±Inf with the pc, the
//! producing opcode, and the written variable's name — the
//! Herbgrind-style "where did it first go wrong" signal for a demoted
//! config that overflows.
//!
//! Failures that are not traps are isolated rather than amplified:
//! [`par::parallel_map`] catches a panicking item with `catch_unwind`,
//! lets the sibling items of the batch finish, and re-raises the first
//! panic afterwards; a pool discards a machine whose run panicked —
//! held by a guard dropped in the unwind, or by a batch worker —
//! instead of parking possibly-corrupt state, and the pools recover
//! from mutex poisoning. `chef-tuner` builds its
//! per-trial retry/quarantine layer on exactly these pieces.
//!
//! For proving all of that works, [`fault::FaultPlan`]
//! ([`vm::ExecOptions::fault`]) deterministically turns selected calls
//! into injected traps (budget clamp), panics, or NaN-poisoned
//! parameters, driven explicitly or by the `CHEF_FAULT_SEED` /
//! `CHEF_FAULT_KIND` environment toggles (read once per process, like
//! `CHEF_EXEC_FUSE`). Seeded plans fire at most every other draw, so a
//! retry-once caller always recovers — CI runs the suite under a seed
//! matrix and expects green.
//!
//! ## Telemetry & profiling
//!
//! The engine reports into the process-global `chef-telemetry` registry
//! as a pure *observer* — no execution decision reads a metric back:
//!
//! * **Counters**: arena checkouts (`exec.arena.checkouts`), register
//!   slots dropped by compaction (`exec.regs.compacted`), and shadow
//!   divergence tallies (`exec.shadow.divergences`) are
//!   recorded at the same sites that
//!   already maintain the public per-call statistics; the existing
//!   fields ([`vm::ExecStats`], [`shadow::ShadowOutcome`],
//!   `chef_tuner::TuneResult`) stay authoritative per-run views while
//!   the registry accumulates process totals.
//! * **Spans**: [`compile::compile`] wraps itself and its fuse/pack
//!   phases in `compile`/`fuse`/`pack` spans, and the batch body
//!   ([`vm::run_batch_parallel`]) opens one `exec.worker` span per
//!   checkout with an `exec.run` span nested per argument set. Spans land in bounded
//!   per-thread rings and each close records into a `span.<name>.ns`
//!   histogram; exporting is `chef_telemetry::snapshot()`.
//! * **Per-pc profiler**: [`vm::ExecOptions::profile`] makes the
//!   dispatch loop (plain and shadow runs alike) count executions
//!   per `pc` into [`vm::ExecProfile`], returned on
//!   [`vm::CallOutcome::profile`] / `ShadowOutcome::profile`. On a
//!   successful run the counts sum to exactly
//!   [`vm::ExecStats::instrs_executed`], and the vector is indexed like
//!   the shadow's `samples`, so `pc_counts[pc] × samples[pc].sum` ranks
//!   pcs by *frequency × error* (`repro --profile` prints that table).
//!   The flag selects a `<const PROFILE: bool>` monomorphization, so
//!   the off path compiles to the same machine code as before the
//!   profiler existed. The `repro --smoke` profiler gate holds the on
//!   path to ≤ 1.5× the off path, and the test
//!   `profiled_counts_match_executed_on_all_kernels` checks the counts
//!   and that profiling leaves the dispatch count unchanged.
//!
//! ## Packed word format
//!
//! [`pack::pack_function`] re-encodes every (fused) enum instruction into
//! one `u64` word:
//!
//! ```text
//! bits  0..8    opcode   dense u8 (see [`pack::op`]) — drives a
//!               jump-table `match` in the dispatch loop
//! bits  8..24   A        u16: destination register / array slot
//! bits 24..40   B        u16: source register, pool index, or i16 imm
//! bits 40..56   C        u16: source register, jump target, or i16 imm
//! bits 56..64   D        u8: FloatTy / CmpOp / intrinsic code /
//!               i8 offset / 4th register
//! ```
//!
//! Wide operands (`f64` constants, wide `i64` immediates) live in a
//! deduplicated per-function constant pool ([`pack::PackedCode::pool`])
//! referenced by 16-bit index; intrinsics are coded against the
//! link-time [`pack::INTRINSICS`] table; small `IConst`/`IAddImm`
//! immediates are encoded inline.
//!
//! Packing is **total on compiler output**. The per-instruction field
//! limits (an `FLoadOff`/`FStoreOff` offset within `i8`, an immediate
//! compare or `FAddToK`/`FAddAccK` index within `i16`, an `FMulAdd`,
//! `FMulSub` or `IMulAdd` addend, `FAbsMulC` second factor or `FAddAccK`
//! array register below 256) are stated once, by [`pack::fits`]; fusion never emits a form it
//! rejects, and compaction only lowers register indices. What is left are whole-function limits — more
//! than 65 535 instructions, or a register index wider than u16 — and
//! [`compile::compile`] reports those as
//! [`compile::CompileError::Unsupported`] naming the limit. There is no
//! unpacked fallback: [`vm::validate_function`] rejects a function whose
//! `packed` is `None` (one built by hand, or compiled with
//! [`compile::CompileOptions::pack`] off) with
//! [`vm::TrapKind::InvalidBytecode`]; [`pack::pack_function`] packs it.
//!
//! Packing is 1:1 and order-preserving (word `k` encodes instruction
//! `k`; `pc`, spans and jump targets are shared), and before execution
//! [`vm::validate_function`] requires every word to be the canonical
//! packing of its bounds-checked instruction (one pack per word, pool
//! indices taken from the word and checked), which is what makes the
//! dispatch loop's unchecked register/pool accesses sound. The
//! `packed_differential` test suite pins the wire format by hash and
//! that every word decodes back to its instruction (primal, demoted and
//! adjoint streams of every app kernel, and proptest-generated
//! kernels).
//!
//! ## Persistent variant cache
//!
//! Compilation is the cold-start cost every process pays from scratch;
//! [`store`] makes compiled variants outlive the process. The store is
//! **content-addressed**: [`store::content_key`] fingerprints a
//! variant's identity — the canonical printed source of the inlined
//! primal plus the canonicalized [`compile::CompileOptions`] (precision
//! overrides by *variable name*, fuse/pack flags, codec version) — into
//! a 128-bit double-FNV-1a [`store::ContentKey`]. That key is the only
//! cache key anywhere (`chef_tuner::VariantCache` uses it in memory
//! too): keying by content instead of function name is what makes
//! cache entries safe to share across programs, sessions, and
//! processes, and because it hashes *source*, a warm process resolves a
//! variant with zero `compile`/`fuse`/`pack` work.
//!
//! On-disk format of one `<32-hex-key>.cfn` entry in `CHEF_CACHE_DIR`
//! (all integers little-endian):
//!
//! | field    | size | contents                                         |
//! |----------|------|--------------------------------------------------|
//! | magic    | 8    | `b"CHEFFUNC"`                                    |
//! | version  | 4    | [`store::FORMAT_VERSION`]                        |
//! | key echo | 16   | `hi`,`lo` — detects a mis-named/copied file      |
//! | payload  | …    | name, register counts, return kind, params, fvar/avar name tables, packed `u64` words, constant pool, spans (one per word) |
//! | checksum | 8    | FNV-1a over everything above                     |
//!
//! **Versioning/invalidation:** any layout change bumps
//! [`store::FORMAT_VERSION`], which both fails the header check on old
//! entries *and* changes every content key (the version is hashed into
//! it), so stale-format entries are never even looked up. Entries that
//! fail any check — magic, version, checksum, key echo, an undecodable
//! word, or [`vm::validate_function`] — are quarantined to `<name>.bad`,
//! counted in `cache.disk.corrupt`, and the caller sees a plain miss.
//!
//! **Atomicity:** writes go to a unique temp file (`.{key}.{pid}.{seq}
//! .tmp`) in the store directory, are `sync_all`ed, and then renamed
//! over the final name — on POSIX a rename within one directory is
//! atomic, so a reader observes either no entry, the old entry, or the
//! complete new entry, never a torn one; a crash strands at most a
//! `.tmp` file that no load ever reads.
//!
//! **Soundness:** the enum instruction stream is *not* stored — it is
//! reconstructed by [`pack::decode`] over the stored words, and the
//! result must pass the same [`vm::validate_function`] gate (register
//! bounds + word-for-word packed/enum equivalence) as a fresh
//! compilation before it can reach the unchecked packed dispatch
//! loop. A corrupt or crafted entry can therefore fail closed only:
//! the checksum catches random corruption, and validation catches
//! anything that parses but would execute unsafely.
//!
//! ```
//! use chef_ir::prelude::*;
//! use chef_exec::prelude::*;
//!
//! let mut p = parse_program(
//!     "double square(double x) { return x * x; }").unwrap();
//! check_program(&mut p).unwrap();
//! let compiled = compile_default(p.function("square").unwrap()).unwrap();
//! let out = run(&compiled, vec![ArgValue::F(3.0)]).unwrap();
//! assert_eq!(out.ret_f(), 9.0);
//! ```

mod arena;
pub mod bytecode;
pub mod cfg;
pub mod compile;
pub mod fault;
pub mod fuse;
pub mod intrinsics;
mod opcodes;
pub mod pack;
pub mod par;
pub use chef_ir::precision;
pub mod shadow;
pub mod store;
pub mod tape;
pub mod value;
pub mod vm;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::bytecode::{CompiledFunction, ParamKind, RetKind};
    pub use crate::cfg::CfgStats;
    pub use crate::compile::{
        compile, compile_default, CompileError, CompileOptions, PrecisionMap,
    };
    pub use crate::fault::{FaultKind, FaultPlan};
    pub use crate::fuse::{fuse_function, fuse_to_fixpoint, FuseStats};
    pub use crate::pack::{pack_function, PackedCode};
    pub use crate::precision::{demotion_error, round_to, ulp};
    pub use crate::shadow::{
        run_shadow, DivergenceKind, DivergencePoint, PcSample, ShadowMachine, ShadowNum,
        ShadowOutcome, MAX_DIVERGENCE_POINTS,
    };
    pub use crate::store::{content_key, ContentKey, DiskStore, FORMAT_VERSION};
    pub use crate::tape::{Tape, TapeError};
    pub use crate::value::{ArgValue, Value};
    pub use crate::vm::{
        run, run_batch_parallel, run_with, CallOutcome, ExecOptions, ExecProfile, ExecStats,
        Machine, Trap, TrapKind, DEADLINE_STRIDE,
    };
}

pub use prelude::*;
