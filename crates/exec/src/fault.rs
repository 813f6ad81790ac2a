//! Deterministic fault injection for robustness tests and CI.
//!
//! A [`FaultPlan`] turns some calls of the VM (or the fused shadow
//! interpreter) into injected failures, so every recovery path of the
//! analysis pipeline — trap quarantine, panic isolation, non-finite
//! retry — can be exercised deterministically, without hand-crafting a
//! kernel that happens to fail. The plan is a pure arithmetic schedule
//! over a shared call counter:
//!
//! * every call through [`crate::vm::ExecOptions::fault`] **draws** one
//!   ordinal `n` from the plan's counter;
//! * the draw *fires* when `n % period == phase`;
//! * a fired draw injects one of three faults, either the plan's pinned
//!   [`FaultKind`] or (for a mixed plan) cycling trap → panic → NaN:
//!   - **Trap** clamps the run's instruction budget to the plan's
//!     `instr`, so the VM raises a genuine
//!     [`crate::vm::TrapKind::InstrBudgetExhausted`] at (about) the Nth
//!     instruction — the same trap, pc and span machinery as a real
//!     runaway loop;
//!   - **Panic** unwinds with `"chef-fault: injected panic"` before the
//!     dispatch loop starts, exercising `catch_unwind` isolation and
//!     mutex-poison recovery;
//!   - **NaN** poisons the first float parameter after binding and arms
//!     [`crate::vm::ExecOptions::trap_on_nonfinite`] for that run, so
//!     the poison is guaranteed to surface as an attributed
//!     [`crate::vm::TrapKind::NonFinite`] trap — a NaN left to flow can
//!     launder into a finite-but-*wrong* result (NaN comparisons are
//!     all false) and evade detection.
//!
//! The counter is shared by all clones of a plan (`ExecOptions` is
//! cloned per worker thread), so the total number of fires over N draws
//! is exactly `|{ k < N : k % period == phase }|` regardless of thread
//! interleaving; only *which* call observes a given ordinal is
//! scheduling-dependent.
//!
//! ## Retry-once recovery
//!
//! A retried unit of work (a `chef-tuner` trial) pins its draws instead
//! of taking whatever ordinal the shared counter holds when each attempt
//! runs: [`FaultPlan::pin_trial`] reserves the trial's ordinal `n` and
//! returns a plan on which every draw of the first attempt evaluates
//! `n`; [`FaultPlan::retry`] returns the plan for the one retry, whose
//! draws evaluate `n + 1`. Because `period ≥ 2` for any seeded plan, `n`
//! and `n + 1` never both fire: **a trial's retry never fires, whatever
//! other threads draw in between**, which is what lets the whole test
//! suite stay green under an injection seed — only the fault *counters*
//! change. (`period == 1` fires on both, so the retry is defeated and
//! the trial quarantines.) Both calls also consume one ordinal each from
//! the shared counter, as the attempts' own draws would, so a serial
//! schedule is the same pinned or not.
//!
//! Both retrying callers pin this way: the tuner's trial retry and
//! `chef-service`'s job retry.
//!
//! In the style of `CHEF_EXEC_FUSE`, the environment
//! can install a process-wide plan: [`env_plan`] reads
//! `CHEF_FAULT_SEED` (u64; unset → no plan) and `CHEF_FAULT_KIND`
//! (`trap`|`panic`|`nan`|`mix`, default `mix`) once per process.
//! `chef-tuner` consults it whenever no explicit plan is configured,
//! which is how CI's fault-injection matrix drives the recovery paths
//! through the ordinary test suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The kind of an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Clamp the instruction budget: the run traps with
    /// [`crate::vm::TrapKind::InstrBudgetExhausted`].
    Trap,
    /// Panic before the dispatch loop starts.
    Panic,
    /// Poison the first float parameter with NaN after binding.
    Nan,
}

/// A deterministic schedule of injected faults. See the module docs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Pinned fault kind; `None` cycles trap → panic → NaN per fire.
    kind: Option<FaultKind>,
    /// A draw fires when `ordinal % period == phase`; `0` never fires.
    period: u64,
    phase: u64,
    /// Instruction budget installed by an injected trap.
    instr: u64,
    /// Draw counter, shared across clones of this plan.
    ticks: Arc<AtomicU64>,
    /// The ordinal every draw evaluates, on a plan pinned to one trial
    /// attempt ([`FaultPlan::pin_trial`]); such draws consume nothing.
    pinned: Option<u64>,
}

impl FaultPlan {
    /// A plan firing `kind` (or the trap→panic→NaN cycle when `None`)
    /// on every draw whose ordinal is `phase` modulo `period`, with a
    /// fresh counter. `period == 0` builds an inert plan that never
    /// fires; `period == 1` fires on *every* draw, which defeats
    /// retry-once recovery — seeded plans always use `period ≥ 2`.
    pub fn new(kind: Option<FaultKind>, period: u64, phase: u64, instr: u64) -> Self {
        FaultPlan {
            kind,
            period,
            phase: phase % period.max(1),
            instr: instr.max(1),
            ticks: Arc::new(AtomicU64::new(0)),
            pinned: None,
        }
    }

    /// Derives a plan from a seed (splitmix64): `period ∈ 3..8`,
    /// `phase < period`, `instr ∈ 8..64`.
    pub fn from_seed(seed: u64, kind: Option<FaultKind>) -> Self {
        let z = splitmix64(seed);
        let period = 3 + z % 5;
        FaultPlan::new(kind, period, (z >> 8) % period, 8 + (z >> 16) % 56)
    }

    /// Consumes one ordinal from the shared counter (or, on a pinned
    /// plan, evaluates the pinned one) and reports the fault to inject,
    /// if this draw fires.
    pub fn draw(&self) -> Option<FaultKind> {
        if self.period == 0 {
            return None;
        }
        let n = match self.pinned {
            Some(n) => n,
            None => self.ticks.fetch_add(1, Ordering::Relaxed),
        };
        if n % self.period != self.phase {
            return None;
        }
        Some(self.kind.unwrap_or(match (n / self.period) % 3 {
            0 => FaultKind::Trap,
            1 => FaultKind::Panic,
            _ => FaultKind::Nan,
        }))
    }

    /// Starts a retried trial: consumes the next ordinal `n` from the
    /// shared counter and returns the plan for the trial's first
    /// attempt, on which every draw evaluates `n` (see the module docs).
    pub fn pin_trial(&self) -> FaultPlan {
        let n = if self.period == 0 {
            0
        } else {
            self.ticks.fetch_add(1, Ordering::Relaxed)
        };
        FaultPlan {
            pinned: Some(n),
            ..self.clone()
        }
    }

    /// The plan for the retry of the trial this plan is pinned to
    /// (ordinal `n`): its draws evaluate `n + 1`, so with `period ≥ 2`
    /// the retry of a fired attempt never fires. Consumes one ordinal
    /// from the shared counter, as the retry's own draw would. An
    /// unpinned plan is returned unchanged.
    pub fn retry(&self) -> FaultPlan {
        match self.pinned {
            Some(n) => FaultPlan {
                pinned: Some(n + 1),
                ..self.pin_trial()
            },
            None => self.clone(),
        }
    }

    /// The instruction budget an injected trap installs.
    pub fn instr(&self) -> u64 {
        self.instr
    }

    /// Draws consumed so far (all clones share the counter).
    pub fn draws(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static ENV_PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();

/// The process-wide plan configured by `CHEF_FAULT_SEED` /
/// `CHEF_FAULT_KIND`, or `None` when the seed is unset or unparsable.
/// Read once per process; every returned clone shares one counter, so
/// the schedule is global across all consumers.
pub fn env_plan() -> Option<FaultPlan> {
    ENV_PLAN
        .get_or_init(|| {
            let seed: u64 = std::env::var("CHEF_FAULT_SEED").ok()?.trim().parse().ok()?;
            let kind = match std::env::var("CHEF_FAULT_KIND")
                .map(|v| v.trim().to_ascii_lowercase())
                .as_deref()
            {
                Ok("trap") => Some(FaultKind::Trap),
                Ok("panic") => Some(FaultKind::Panic),
                Ok("nan") => Some(FaultKind::Nan),
                _ => None, // "mix" (or unset): cycle all three
            };
            Some(FaultPlan::from_seed(seed, kind))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_kind_pinned() {
        let a = FaultPlan::new(Some(FaultKind::Panic), 3, 1, 16);
        let b = FaultPlan::new(Some(FaultKind::Panic), 3, 1, 16);
        let seq_a: Vec<_> = (0..20).map(|_| a.draw()).collect();
        let seq_b: Vec<_> = (0..20).map(|_| b.draw()).collect();
        assert_eq!(seq_a, seq_b);
        for (k, d) in seq_a.iter().enumerate() {
            match d {
                Some(kind) => {
                    assert_eq!(k as u64 % 3, 1);
                    assert_eq!(*kind, FaultKind::Panic);
                }
                None => assert_ne!(k as u64 % 3, 1),
            }
        }
    }

    #[test]
    fn mixed_plan_cycles_all_three_kinds() {
        let p = FaultPlan::new(None, 2, 0, 16);
        let fired: Vec<_> = (0..12).filter_map(|_| p.draw()).collect();
        assert_eq!(
            fired,
            vec![
                FaultKind::Trap,
                FaultKind::Panic,
                FaultKind::Nan,
                FaultKind::Trap,
                FaultKind::Panic,
                FaultKind::Nan,
            ]
        );
    }

    #[test]
    fn clones_share_the_counter() {
        let p = FaultPlan::new(Some(FaultKind::Trap), 4, 0, 16);
        let q = p.clone();
        assert!(p.draw().is_some()); // ordinal 0 fires
        assert!(q.draw().is_none()); // the clone continues at ordinal 1
        assert_eq!(p.draws(), 2);
    }

    #[test]
    fn seeded_plans_are_retry_safe_and_vary_with_the_seed() {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..32u64 {
            let p = FaultPlan::from_seed(seed, None);
            assert!(p.period >= 2, "retry-once must always succeed");
            assert!(p.phase < p.period);
            assert!(p.instr >= 1);
            distinct.insert((p.period, p.phase, p.instr));
        }
        assert!(distinct.len() > 8, "seeds should spread the schedule");
    }

    #[test]
    fn a_pinned_retry_never_fires_whatever_else_draws() {
        for period in 2..8u64 {
            for phase in 0..period {
                let plan = FaultPlan::new(Some(FaultKind::Trap), period, phase, 16);
                for _ in 0..2 * period {
                    let first = plan.pin_trial();
                    // Other threads draw between the two attempts.
                    for _ in 1..period {
                        plan.draw();
                    }
                    let retry = first.retry();
                    assert!(first.draw().is_none() || retry.draw().is_none());
                    // Pinned draws repeat their ordinal and consume nothing.
                    let draws = plan.draws();
                    assert_eq!(first.draw(), first.draw());
                    assert_eq!(plan.draws(), draws);
                }
            }
        }
        // Period 1 fires on every draw: the retry is defeated too.
        let every = FaultPlan::new(None, 1, 0, 16).pin_trial();
        assert!(every.draw().is_some() && every.retry().draw().is_some());
    }

    #[test]
    fn pinning_keeps_a_serial_schedule() {
        let a = FaultPlan::new(None, 3, 1, 16);
        let b = FaultPlan::new(None, 3, 1, 16);
        for _ in 0..12 {
            let first = a.pin_trial();
            let fired = first.draw();
            assert_eq!(fired, b.draw());
            if fired.is_some() {
                assert_eq!(first.retry().draw(), b.draw());
            }
        }
        assert_eq!(a.draws(), b.draws());
    }

    #[test]
    fn inert_plan_never_fires() {
        let p = FaultPlan::new(None, 0, 0, 16);
        assert!((0..100).all(|_| p.draw().is_none()));
    }
}
