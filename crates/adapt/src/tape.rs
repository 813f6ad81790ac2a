//! The runtime operation tape (the CoDiPack substrate of ADAPT).
//!
//! A tracing AD tool records **every elementary FP operation** executed by
//! the program into a growing tape; the reverse pass interprets the tape
//! backwards to accumulate adjoints. Unlike the source-transformation
//! tape of `chef-exec` (which holds only to-be-restored values and shrinks
//! as the backward sweep pops), this tape holds one entry per operation
//! and only ever grows until the reverse pass — this is the memory
//! asymmetry behind the paper's Figs. 4–8 and the ADAPT out-of-memory
//! points.

/// Index of a tape entry. `u32::MAX` (via `Option`) marks passive values.
pub type EntryIdx = u32;

/// One recorded operation: up to two active arguments with their local
/// partial derivatives, plus the computed value.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// First active argument (tape index, ∂result/∂arg).
    pub a: Option<(EntryIdx, f64)>,
    /// Second active argument.
    pub b: Option<(EntryIdx, f64)>,
    /// The operation's result value.
    pub value: f64,
}

/// In-memory cost of one entry (index+partial pairs, value, padding) —
/// used for the peak-memory accounting; CoDiPack-style tapes store about
/// this much per recorded operation.
pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

/// Tape exhaustion error (the reproduced "ADAPT runs out of memory").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TapeOom {
    /// The configured limit in bytes.
    pub limit_bytes: usize,
}

impl std::fmt::Display for TapeOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation tape exceeded {} bytes", self.limit_bytes)
    }
}

impl std::error::Error for TapeOom {}

/// The operation tape.
#[derive(Debug, Default)]
pub struct OpTape {
    entries: Vec<Entry>,
    limit_bytes: Option<usize>,
}

impl OpTape {
    /// Unlimited tape.
    pub fn new() -> Self {
        OpTape::default()
    }

    /// Tape that fails once `limit_bytes` of entries are live.
    pub fn with_limit(limit_bytes: usize) -> Self {
        OpTape {
            limit_bytes: Some(limit_bytes),
            ..OpTape::default()
        }
    }

    /// Records an entry, returning its index.
    #[inline]
    pub fn record(&mut self, e: Entry) -> Result<EntryIdx, TapeOom> {
        if let Some(limit) = self.limit_bytes {
            if (self.entries.len() + 1) * ENTRY_BYTES > limit {
                return Err(TapeOom { limit_bytes: limit });
            }
        }
        let idx = self.entries.len() as EntryIdx;
        self.entries.push(e);
        Ok(idx)
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total tape bytes (entries only; the adjoint vector of the reverse
    /// pass doubles this transiently).
    pub fn bytes(&self) -> usize {
        self.entries.len() * ENTRY_BYTES
    }

    /// The value stored at `idx`.
    pub fn value(&self, idx: EntryIdx) -> f64 {
        self.entries[idx as usize].value
    }

    /// Runs the reverse (adjoint) interpretation: seeds `seed_at` with 1
    /// and returns the adjoint of every entry.
    pub fn reverse(&self, seed_at: EntryIdx) -> Vec<f64> {
        let mut adj = vec![0.0f64; self.entries.len()];
        adj[seed_at as usize] = 1.0;
        for i in (0..self.entries.len()).rev() {
            let a_i = adj[i];
            if a_i == 0.0 {
                continue;
            }
            let e = &self.entries[i];
            if let Some((j, d)) = e.a {
                adj[j as usize] += a_i * d;
            }
            if let Some((j, d)) = e.b {
                adj[j as usize] += a_i * d;
            }
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records an input (a leaf entry).
    fn input(t: &mut OpTape, value: f64) -> Result<EntryIdx, TapeOom> {
        t.record(Entry {
            a: None,
            b: None,
            value,
        })
    }

    #[test]
    fn records_and_reverses_a_product() {
        // f = x * y at (3, 5): df/dx = 5, df/dy = 3.
        let mut t = OpTape::new();
        let x = input(&mut t, 3.0).unwrap();
        let y = input(&mut t, 5.0).unwrap();
        let f = t
            .record(Entry {
                a: Some((x, 5.0)),
                b: Some((y, 3.0)),
                value: 15.0,
            })
            .unwrap();
        let adj = t.reverse(f);
        assert_eq!(adj[x as usize], 5.0);
        assert_eq!(adj[y as usize], 3.0);
    }

    #[test]
    fn chain_rule_through_shared_subexpression() {
        // g = (x*x) + (x*x): dg/dx = 4x.
        let mut t = OpTape::new();
        let x = input(&mut t, 2.0).unwrap();
        let sq = t
            .record(Entry {
                a: Some((x, 2.0)),
                b: Some((x, 2.0)),
                value: 4.0,
            })
            .unwrap();
        let g = t
            .record(Entry {
                a: Some((sq, 1.0)),
                b: Some((sq, 1.0)),
                value: 8.0,
            })
            .unwrap();
        let adj = t.reverse(g);
        assert_eq!(adj[x as usize], 8.0); // 4x at x=2
    }

    #[test]
    fn limit_reports_oom() {
        let mut t = OpTape::with_limit(ENTRY_BYTES * 2);
        input(&mut t, 1.0).unwrap();
        input(&mut t, 2.0).unwrap();
        assert!(input(&mut t, 3.0).is_err());
    }

    #[test]
    fn byte_accounting() {
        let mut t = OpTape::new();
        for i in 0..10 {
            input(&mut t, i as f64).unwrap();
        }
        assert_eq!(t.bytes(), 10 * ENTRY_BYTES);
    }
}
