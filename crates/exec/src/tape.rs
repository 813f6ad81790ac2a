//! The runtime tape: the LIFO state-restoration stack of the adjoint.
//!
//! The forward sweep of a generated gradient pushes every to-be-overwritten
//! value (`Push(out(Li))` in the paper's Fig. 2); the backward sweep pops
//! them to restore the program state each adjoint statement needs. The tape
//! is also where the **memory story** of the paper lives:
//!
//! * CHEF-FP pushes only TBR-selected values → small tape;
//! * the ADAPT baseline records every elementary operation → large tape;
//! * the figures' "ADAPT runs out of memory" points are reproduced with
//!   [`Tape::with_limit`], which makes pushes fail past a byte budget.
//!
//! The tape is designed for reuse: [`Tape::reset`] clears entries and
//! statistics but keeps the backing buffers, so a [`crate::vm::Machine`]
//! that runs thousands of analyses re-allocates nothing after warm-up.

/// Why a tape operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TapeError {
    /// The configured memory budget would be exceeded (the "OOM" of the
    /// paper's Figs. 4 and 7). The push that reports this is **not**
    /// performed — the tape stays exactly at the budget boundary.
    OutOfMemory {
        /// The configured limit in bytes.
        limit_bytes: usize,
    },
    /// Pop on an empty tape — an unbalanced transformation (a bug in
    /// generated code; surfaced loudly rather than silently).
    Underflow,
}

impl std::fmt::Display for TapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapeError::OutOfMemory { limit_bytes } => {
                write!(f, "tape exceeded memory limit of {limit_bytes} bytes")
            }
            TapeError::Underflow => write!(f, "tape pop on empty tape"),
        }
    }
}

impl std::error::Error for TapeError {}

/// A LIFO tape of `f64`/`i64` entries with peak-usage accounting.
#[derive(Debug)]
pub struct Tape {
    f: Vec<f64>,
    i: Vec<i64>,
    peak_entries: usize,
    total_pushes: u64,
    /// Live-entry budget derived from the byte limit (`usize::MAX` when
    /// unlimited) — a plain compare on the hot push path.
    max_entries: usize,
    limit_bytes: Option<usize>,
}

impl Default for Tape {
    fn default() -> Self {
        Tape {
            f: Vec::new(),
            i: Vec::new(),
            peak_entries: 0,
            total_pushes: 0,
            max_entries: usize::MAX,
            limit_bytes: None,
        }
    }
}

impl Tape {
    /// An unlimited tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// A tape that fails pushes that would exceed `limit_bytes` of live
    /// entries.
    pub fn with_limit(limit_bytes: usize) -> Self {
        let mut t = Tape::default();
        t.set_limit(Some(limit_bytes));
        t
    }

    /// Installs (or removes) the byte budget.
    pub fn set_limit(&mut self, limit_bytes: Option<usize>) {
        self.limit_bytes = limit_bytes;
        self.max_entries = match limit_bytes {
            Some(limit) => limit / 8,
            None => usize::MAX,
        };
    }

    /// Clears live entries **and** statistics while keeping the backing
    /// buffers, readying the tape for the next analysis run. `limit_bytes`
    /// becomes the new budget.
    pub fn reset(&mut self, limit_bytes: Option<usize>) {
        self.f.clear();
        self.i.clear();
        self.peak_entries = 0;
        self.total_pushes = 0;
        self.set_limit(limit_bytes);
    }

    #[inline]
    fn admit_one(&mut self) -> Result<(), TapeError> {
        let entries = self.f.len() + self.i.len();
        // Budget is checked *before* mutating: a rejected push must leave
        // the tape untouched (the boundary entry is not appended).
        if entries + 1 > self.max_entries {
            return Err(TapeError::OutOfMemory {
                limit_bytes: self.limit_bytes.unwrap_or(usize::MAX),
            });
        }
        if entries + 1 > self.peak_entries {
            self.peak_entries = entries + 1;
        }
        self.total_pushes += 1;
        Ok(())
    }

    /// Pushes a float entry.
    #[inline]
    pub fn push_f(&mut self, v: f64) -> Result<(), TapeError> {
        self.admit_one()?;
        self.f.push(v);
        Ok(())
    }

    /// Pops a float entry.
    #[inline]
    pub fn pop_f(&mut self) -> Result<f64, TapeError> {
        self.f.pop().ok_or(TapeError::Underflow)
    }

    /// Pushes an int entry (loop trip counts, branch flags).
    #[inline]
    pub fn push_i(&mut self, v: i64) -> Result<(), TapeError> {
        self.admit_one()?;
        self.i.push(v);
        Ok(())
    }

    /// Pops an int entry.
    #[inline]
    pub fn pop_i(&mut self) -> Result<i64, TapeError> {
        self.i.pop().ok_or(TapeError::Underflow)
    }

    /// Number of live entries (floats + ints).
    pub fn len(&self) -> usize {
        self.f.len() + self.i.len()
    }

    /// `true` when the tape holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of live entries over the tape's lifetime.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// High-water mark in bytes (8 bytes per entry).
    pub fn peak_bytes(&self) -> usize {
        self.peak_entries * 8
    }

    /// Bytes of buffer capacity the tape keeps across `reset`s.
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.f.capacity() + self.i.capacity()) * 8
    }

    /// Total pushes ever performed (the *traffic*, distinct from the peak).
    pub fn total_pushes(&self) -> u64 {
        self.total_pushes
    }

    /// Clears live entries but keeps the peak statistics.
    pub fn clear(&mut self) {
        self.f.clear();
        self.i.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut t = Tape::new();
        t.push_f(1.0).unwrap();
        t.push_f(2.0).unwrap();
        assert_eq!(t.pop_f().unwrap(), 2.0);
        assert_eq!(t.pop_f().unwrap(), 1.0);
        assert_eq!(t.pop_f(), Err(TapeError::Underflow));
    }

    #[test]
    fn int_and_float_stacks_are_independent() {
        let mut t = Tape::new();
        t.push_f(1.5).unwrap();
        t.push_i(7).unwrap();
        assert_eq!(t.pop_f().unwrap(), 1.5);
        assert_eq!(t.pop_i().unwrap(), 7);
    }

    #[test]
    fn peak_tracking() {
        let mut t = Tape::new();
        for k in 0..100 {
            t.push_f(k as f64).unwrap();
        }
        for _ in 0..100 {
            t.pop_f().unwrap();
        }
        for k in 0..10 {
            t.push_i(k).unwrap();
        }
        assert_eq!(t.peak_entries(), 100);
        assert_eq!(t.peak_bytes(), 800);
        assert_eq!(t.total_pushes(), 110);
    }

    #[test]
    fn limit_triggers_oom() {
        let mut t = Tape::with_limit(64); // 8 entries
        for k in 0..8 {
            t.push_f(k as f64).unwrap();
        }
        assert_eq!(
            t.push_f(9.0),
            Err(TapeError::OutOfMemory { limit_bytes: 64 })
        );
    }

    #[test]
    fn rejected_push_does_not_mutate() {
        // The budget is checked before the push: the entry that would
        // exceed `limit_bytes` must not be appended, and the statistics
        // must not count it.
        let mut t = Tape::with_limit(64); // 8 entries
        for k in 0..8 {
            t.push_f(k as f64).unwrap();
        }
        assert_eq!(t.len(), 8);
        assert!(t.push_f(99.0).is_err());
        assert!(t.push_i(99).is_err());
        assert_eq!(t.len(), 8, "boundary entry must not be appended");
        assert_eq!(t.total_pushes(), 8, "failed pushes are not traffic");
        assert_eq!(t.peak_entries(), 8, "failed pushes do not move the peak");
        // The live entries are exactly the successful ones.
        assert_eq!(t.pop_f().unwrap(), 7.0);
    }

    #[test]
    fn non_multiple_of_eight_limit_rounds_down() {
        let mut t = Tape::with_limit(60); // still 7 full entries
        for k in 0..7 {
            t.push_f(k as f64).unwrap();
        }
        assert_eq!(
            t.push_f(8.0),
            Err(TapeError::OutOfMemory { limit_bytes: 60 })
        );
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn reset_clears_state_but_keeps_capacity() {
        let mut t = Tape::new();
        for k in 0..1000 {
            t.push_f(k as f64).unwrap();
        }
        let cap_before = {
            t.clear();
            // Re-fill to force capacity; then reset.
            for k in 0..1000 {
                t.push_f(k as f64).unwrap();
            }
            1000
        };
        t.reset(Some(64));
        assert_eq!(t.len(), 0);
        assert_eq!(t.peak_entries(), 0);
        assert_eq!(t.total_pushes(), 0);
        let _ = cap_before;
        // New limit is live.
        for k in 0..8 {
            t.push_f(k as f64).unwrap();
        }
        assert!(t.push_f(9.0).is_err());
        // And resetting to unlimited lifts it.
        t.reset(None);
        for k in 0..100 {
            t.push_f(k as f64).unwrap();
        }
    }
}
