//! Persistent content-addressed store for compiled functions.
//!
//! Compilation (fuse-to-fixpoint + packing) is the cold-start cost every
//! process pays again from scratch; this module makes compiled variants
//! survive the process. Three pieces:
//!
//! * [`ContentKey`] / [`content_key`] — a 128-bit FNV-1a fingerprint of
//!   a variant's *identity*: the canonical printed source of the
//!   (inlined) primal function plus the canonicalized
//!   [`CompileOptions`] (precision overrides keyed by **variable name**,
//!   fuse/pack flags, codec version). Keying by content instead of by
//!   function name is what makes the key safe to share across programs
//!   and processes: two different programs that happen to both define
//!   `f` get different keys, while the same source always maps to the
//!   same key (compilation is deterministic).
//! * [`encode_function`] / [`decode_function`] — a versioned,
//!   checksummed, dependency-free binary codec for the packed word
//!   stream, constant pool, signature, spans and name tables. Only
//!   functions the packer could represent (`packed.is_some()`) are
//!   encodable; the enum instruction stream is *reconstructed* on load
//!   by running [`crate::pack::decode`] over the stored words, so the
//!   words are the single source of truth and an entry can never hold a
//!   word stream that disagrees with its enum stream.
//! * [`DiskStore`] — the `CHEF_CACHE_DIR` directory of entries, one
//!   `<32-hex-key>.cfn` file per variant, written atomically (unique
//!   temp file + `sync_all` + rename) and revalidated on load through
//!   [`crate::vm::validate_function`] before the function can reach the
//!   unchecked packed dispatch loop. Anything invalid — bad magic,
//!   wrong version, checksum mismatch, key mismatch, undecodable word,
//!   failed validation — is quarantined by renaming the entry to
//!   `<name>.bad` and counted (`cache.disk.corrupt`), and the caller
//!   sees an ordinary miss.
//!
//! See the "Persistent variant cache" section of the crate docs for the
//! on-disk format table and the atomicity/invalidation argument.

use crate::bytecode::{CompiledFunction, ParamKind, ParamSpec, RetKind};
use crate::compile::CompileOptions;
use crate::pack::{decode, PackedCode};
use crate::vm::validate_function;
use chef_ir::ast::Function;
use chef_ir::span::Span;
use chef_ir::types::FloatTy;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// On-disk codec version. Bump on any layout change — old entries then
/// fail the version check, are quarantined, and get recompiled; the
/// version also feeds [`content_key`], so a bump changes every key and
/// stale-format entries are simply never looked up again. Bump it too
/// when codegen or fusion changes what a source compiles to (version 4:
/// loops rotated, tested at the bottom; version 5: `IMul` ; `IAdd`
/// fused into `IMulAdd`), since the key hashes the source
/// and the options but no codegen revision, and an old entry would
/// otherwise warm-hit the old code.
pub const FORMAT_VERSION: u32 = 5;

/// Entry file magic.
const MAGIC: [u8; 8] = *b"CHEFFUNC";

/// Extension of a valid entry (`<32 hex>.cfn`).
const ENTRY_EXT: &str = "cfn";

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// Streaming 64-bit FNV-1a hasher (dependency-free, stable across
/// platforms and processes — unlike `DefaultHasher`, which is randomly
/// seeded per process and therefore useless as a disk key).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A hasher starting from the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// A hasher starting from a custom offset basis (used to derive the
    /// independent second half of a [`ContentKey`]).
    pub fn with_offset(offset: u64) -> Self {
        Fnv64(offset)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (so `("ab","c")` and `("a","bc")`
    /// hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a of a whole buffer — the entry checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// The 128-bit content hash identifying one compiled variant: two
/// independent FNV-1a streams over the same canonical input. 64 bits of
/// FNV is already a fingerprint; doubling the width pushes accidental
/// collision out of reach for any realistic cache population. The key
/// is the **only** cache key — in the in-memory [`VariantCache`] tier
/// and on disk (its 32-hex rendering is the entry's file name).
///
/// [`VariantCache`]: https://docs.rs/chef-tuner
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey {
    /// First FNV-1a stream (standard offset basis).
    pub hi: u64,
    /// Second FNV-1a stream (alternate offset basis).
    pub lo: u64,
}

impl ContentKey {
    /// File name of this key's store entry: 32 hex digits + `.cfn`.
    pub fn file_name(&self) -> String {
        format!("{self}.{ENTRY_EXT}")
    }
}

impl std::fmt::Display for ContentKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Computes the [`ContentKey`] of compiling `primal` under `opts`.
///
/// The canonical input is the *printed source* of the function (the
/// parser/printer round-trip is the repo's canonical form), so the key
/// can be computed **without compiling** — a warm process resolves a
/// variant with zero `compile`/`fuse`/`pack` work. Precision overrides
/// are hashed by *variable name* (ids are only meaningful within one
/// program instance); entries whose id no longer resolves hash the raw
/// id, which can only make keys differ — never collide.
pub fn content_key(primal: &Function, opts: &CompileOptions) -> ContentKey {
    let src = chef_ir::printer::print_function(primal);
    let mut entries: Vec<(String, FloatTy)> = opts
        .precisions
        .sorted_entries()
        .into_iter()
        .map(|(id, ty)| {
            let name = primal
                .vars_iter()
                .find(|(vid, _)| *vid == id)
                .map(|(_, v)| v.name.clone())
                .unwrap_or_else(|| format!("#{}", id.0));
            (name, ty)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let absorb = |h: &mut Fnv64| {
        h.write_u32(FORMAT_VERSION);
        h.write_str(&src);
        h.write(&[opts.fuse as u8, opts.pack as u8, opts.cfg as u8]);
        // The compaction tier's revision is part of a variant's
        // identity: a process running another revision must never
        // warm-hit an entry this one produced, and vice versa.
        h.write_u32(if opts.cfg {
            crate::cfg::CFG_TIER_VERSION
        } else {
            0
        });
        h.write_u32(entries.len() as u32);
        for (name, ty) in &entries {
            h.write_str(name);
            h.write(&[float_ty_tag(*ty)]);
        }
    };
    let mut hi = Fnv64::new();
    absorb(&mut hi);
    let mut lo = Fnv64::with_offset(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
    absorb(&mut lo);
    ContentKey {
        hi: hi.finish(),
        lo: lo.finish(),
    }
}

fn float_ty_tag(ty: FloatTy) -> u8 {
    FloatTy::ALL
        .iter()
        .position(|&t| t == ty)
        .expect("FloatTy::ALL is exhaustive") as u8
}

fn float_ty_from_tag(tag: u8) -> Result<FloatTy, String> {
    FloatTy::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| format!("invalid FloatTy tag {tag}"))
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------
//
// Layout (all integers little-endian):
//
//   magic    8  b"CHEFFUNC"
//   version  4  FORMAT_VERSION
//   key     16  hi, lo — echo of the content key (detects a file whose
//                bytes are internally consistent but sits under the
//                wrong name, e.g. after a manual copy)
//   payload  …  name, register counts, return kind, params,
//                fvar/avar name tables, packed words, constant pool,
//                spans (one per word)
//   checksum 8  FNV-1a over everything above
//
// The enum instruction stream is deliberately NOT stored: it is
// reconstructed by `pack::decode` over the words, so the two streams
// cannot disagree on disk, and `validate_function`'s word-for-word
// re-decode on load is checking exactly what will execute.

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or("truncated entry")?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in entry".to_string())
    }
    /// An element count, sanity-bounded by the bytes actually left in
    /// the buffer (`elem_size` ≥ 1 per element) so a crafted length
    /// field cannot force a huge allocation before the loop fails.
    fn count(&mut self, elem_size: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.buf.len() - self.at {
            return Err("count exceeds entry size".to_string());
        }
        Ok(n)
    }
}

fn ret_tag(ret: RetKind) -> (u8, u8) {
    match ret {
        RetKind::F(ty) => (0, float_ty_tag(ty)),
        RetKind::I => (1, 0),
        RetKind::B => (2, 0),
        RetKind::Void => (3, 0),
    }
}

fn param_tag(kind: ParamKind) -> (u8, u8) {
    match kind {
        ParamKind::F(ty) => (0, float_ty_tag(ty)),
        ParamKind::I => (1, 0),
        ParamKind::B => (2, 0),
        ParamKind::FArr(ty) => (3, float_ty_tag(ty)),
        ParamKind::IArr => (4, 0),
    }
}

/// Serializes `func` under `key`. Returns `None` when the function has
/// no packed stream (compiled with packing off, or built by hand): such
/// functions are never stored, since the enum stream can't be
/// reconstructed without the words. Everything `compile` returns by
/// default is packed.
pub fn encode_function(key: &ContentKey, func: &CompiledFunction) -> Option<Vec<u8>> {
    let packed = func.packed.as_ref()?;
    debug_assert_eq!(packed.words.len(), func.instrs.len());
    debug_assert_eq!(func.spans.len(), func.instrs.len());
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(key.hi);
    w.u64(key.lo);
    w.str(&func.name);
    w.u32(func.n_fregs);
    w.u32(func.n_iregs);
    w.u32(func.n_aregs);
    let (rt, rty) = ret_tag(func.ret);
    w.u8(rt);
    w.u8(rty);
    w.u32(func.params.len() as u32);
    for p in &func.params {
        w.str(&p.name);
        let (kt, kty) = param_tag(p.kind);
        w.u8(kt);
        w.u8(kty);
        w.u8(p.by_ref as u8);
        w.u32(p.reg);
    }
    w.u32(func.fvar_names.len() as u32);
    for (reg, name) in &func.fvar_names {
        w.u32(*reg);
        w.str(name);
    }
    w.u32(func.avar_names.len() as u32);
    for (reg, name) in &func.avar_names {
        w.u32(*reg);
        w.str(name);
    }
    w.u32(packed.words.len() as u32);
    for &word in &packed.words {
        w.u64(word);
    }
    w.u32(packed.pool.len() as u32);
    for &c in &packed.pool {
        w.u64(c);
    }
    w.u32(func.spans.len() as u32);
    for s in &func.spans {
        w.u32(s.lo);
        w.u32(s.hi);
    }
    let checksum = fnv64(&w.buf);
    w.u64(checksum);
    Some(w.buf)
}

/// Deserializes an entry, verifying (in order) length, magic, version,
/// checksum, and the key echo, then reconstructing the enum stream by
/// decoding every stored word. The result has **not** yet passed
/// [`validate_function`] — [`DiskStore::load`] runs that before handing
/// the function out; call it yourself if you use the codec directly.
pub fn decode_function(bytes: &[u8], expected: &ContentKey) -> Result<CompiledFunction, String> {
    // magic + version + key + checksum is the minimum envelope.
    if bytes.len() < 8 + 4 + 16 + 8 {
        return Err("entry too short".to_string());
    }
    if bytes[..8] != MAGIC {
        return Err("bad magic".to_string());
    }
    let body = &bytes[..bytes.len() - 8];
    let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let mut r = Reader { buf: body, at: 8 };
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version}, expected {FORMAT_VERSION}"
        ));
    }
    if fnv64(body) != stored_sum {
        return Err("checksum mismatch".to_string());
    }
    let hi = r.u64()?;
    let lo = r.u64()?;
    if (ContentKey { hi, lo }) != *expected {
        return Err("content key mismatch".to_string());
    }
    let name = r.str()?;
    let n_fregs = r.u32()?;
    let n_iregs = r.u32()?;
    let n_aregs = r.u32()?;
    let rt = r.u8()?;
    let rty = r.u8()?;
    let ret = match rt {
        0 => RetKind::F(float_ty_from_tag(rty)?),
        1 => RetKind::I,
        2 => RetKind::B,
        3 => RetKind::Void,
        t => return Err(format!("invalid return tag {t}")),
    };
    let n_params = r.count(7)?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let name = r.str()?;
        let kt = r.u8()?;
        let kty = r.u8()?;
        let kind = match kt {
            0 => ParamKind::F(float_ty_from_tag(kty)?),
            1 => ParamKind::I,
            2 => ParamKind::B,
            3 => ParamKind::FArr(float_ty_from_tag(kty)?),
            4 => ParamKind::IArr,
            t => return Err(format!("invalid param tag {t}")),
        };
        let by_ref = r.u8()? != 0;
        let reg = r.u32()?;
        params.push(ParamSpec {
            name,
            kind,
            by_ref,
            reg,
        });
    }
    let read_names = |r: &mut Reader| -> Result<Vec<(u32, String)>, String> {
        let n = r.count(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let reg = r.u32()?;
            let name = r.str()?;
            v.push((reg, name));
        }
        Ok(v)
    };
    let fvar_names = read_names(&mut r)?;
    let avar_names = read_names(&mut r)?;
    let n_words = r.count(8)?;
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    let n_pool = r.count(8)?;
    let mut pool = Vec::with_capacity(n_pool);
    for _ in 0..n_pool {
        pool.push(r.u64()?);
    }
    let n_spans = r.count(8)?;
    if n_spans != n_words {
        return Err(format!("{n_spans} spans for {n_words} words"));
    }
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let lo = r.u32()?;
        let hi = r.u32()?;
        spans.push(Span { lo, hi });
    }
    if r.at != body.len() {
        return Err("trailing bytes after payload".to_string());
    }
    let packed = PackedCode { words, pool };
    let mut instrs = Vec::with_capacity(packed.words.len());
    for (pc, &word) in packed.words.iter().enumerate() {
        instrs.push(decode(word, &packed).ok_or_else(|| format!("undecodable word at pc {pc}"))?);
    }
    Ok(CompiledFunction {
        name,
        instrs,
        spans,
        n_fregs,
        n_iregs,
        n_aregs,
        params,
        ret,
        fvar_names,
        avar_names,
        packed: Some(packed),
    })
}

// ---------------------------------------------------------------------------
// Disk store
// ---------------------------------------------------------------------------

/// The `CHEF_CACHE_DIR` store: a flat directory of `<key>.cfn` entries.
///
/// All operations degrade to a miss, never an error: a load that fails
/// for any reason (absent, unreadable, corrupt, stale version, failed
/// revalidation) returns `None` and the caller compiles as if the store
/// did not exist; a store that fails leaves no partial entry behind
/// (writes go to a unique temp file and are renamed into place only
/// after `sync_all`). Corrupt entries are quarantined to `<name>.bad`
/// so the next process does not pay the parse-and-reject cost again.
///
/// Counters (`hits`/`misses`/`writes`/`corrupt`) are kept both as
/// per-store fields and as the process-global telemetry counters
/// `cache.disk.{hits,misses,writes,corrupt}`.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The process-wide store named by `CHEF_CACHE_DIR`, or `None` when
    /// the variable is unset/empty or the directory cannot be created.
    /// Read once per process (the `CHEF_EXEC_FUSE` pattern); every
    /// caller shares one instance, so the counters are process totals.
    pub fn from_env() -> Option<Arc<DiskStore>> {
        static ENV_STORE: OnceLock<Option<Arc<DiskStore>>> = OnceLock::new();
        ENV_STORE
            .get_or_init(|| {
                let dir = std::env::var_os("CHEF_CACHE_DIR")?;
                if dir.is_empty() {
                    return None;
                }
                DiskStore::open(PathBuf::from(dir)).ok().map(Arc::new)
            })
            .clone()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of `key`'s entry file (whether or not it exists).
    pub fn entry_path(&self, key: &ContentKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Successful loads.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that found no entry (or an unreadable one).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries written.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Entries found invalid and quarantined (each also counts as a
    /// miss: the caller recompiles).
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Loads `key`'s entry, fully revalidated and ready for dispatch.
    ///
    /// Returns `None` on any failure: absent/unreadable file (counted
    /// as a miss) or an invalid entry (quarantined to `.bad`, counted
    /// as corrupt **and** miss). A function returned here has passed
    /// the codec's checksum + key echo, had its enum stream rebuilt
    /// from the packed words, and passed [`validate_function`]'s
    /// register-bound and word-for-word equivalence checks — the same
    /// gate a freshly compiled function passes before unchecked packed
    /// dispatch.
    pub fn load(&self, key: &ContentKey) -> Option<CompiledFunction> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                chef_telemetry::counter!("cache.disk.misses").inc();
                return None;
            }
        };
        let checked = decode_function(&bytes, key).and_then(|f| validate_function(&f).map(|()| f));
        match checked {
            Ok(func) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                chef_telemetry::counter!("cache.disk.hits").inc();
                Some(func)
            }
            Err(_why) => {
                self.quarantine(&path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                chef_telemetry::counter!("cache.disk.corrupt").inc();
                chef_telemetry::counter!("cache.disk.misses").inc();
                None
            }
        }
    }

    /// Writes `func` under `key`, atomically: encode to a unique temp
    /// file in the same directory, `sync_all`, then rename over the
    /// final name. A crash at any point leaves either no entry, the old
    /// entry, or the complete new entry — never a torn file under a
    /// `.cfn` name (leftover `*.tmp` files are ignored by [`Self::load`] and
    /// overwritten harmlessly). Returns `false` (without touching the
    /// store) for unpackable functions or on any I/O failure.
    pub fn store(&self, key: &ContentKey, func: &CompiledFunction) -> bool {
        let Some(bytes) = encode_function(key, func) else {
            return false;
        };
        let final_path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            ".{key}.{}.{}.tmp",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, &bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &final_path)
        })();
        match written {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                chef_telemetry::counter!("cache.disk.writes").inc();
                true
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                false
            }
        }
    }

    /// Moves an invalid entry aside as `<file_name>.bad` (best-effort:
    /// if the rename fails — e.g. read-only store — the entry stays and
    /// will be rejected again next time, which is still safe).
    fn quarantine(&self, path: &Path) {
        let mut bad = path.as_os_str().to_owned();
        bad.push(".bad");
        let _ = std::fs::rename(path, PathBuf::from(bad));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, PrecisionMap};
    use chef_ir::prelude::*;

    fn program(src: &str) -> chef_ir::ast::Program {
        let mut p = parse_program(src).unwrap();
        check_program(&mut p).unwrap();
        p
    }

    fn compiled(src: &str, name: &str) -> (chef_ir::ast::Program, CompiledFunction) {
        let p = program(src);
        let f = compile(p.function(name).unwrap(), &CompileOptions::default()).unwrap();
        (p, f)
    }

    const LOOPY: &str = "double acc(double x, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i = i + 1) { s = s + x * x; }
        return s;
    }";

    #[test]
    fn codec_round_trips_a_compiled_function() {
        let (p, func) = compiled(LOOPY, "acc");
        let key = content_key(p.function("acc").unwrap(), &CompileOptions::default());
        let bytes = encode_function(&key, &func).expect("packed function encodes");
        let back = decode_function(&bytes, &key).expect("decodes");
        assert_eq!(back.name, func.name);
        assert_eq!(back.instrs, func.instrs);
        assert_eq!(back.spans, func.spans);
        assert_eq!(back.n_fregs, func.n_fregs);
        assert_eq!(back.n_iregs, func.n_iregs);
        assert_eq!(back.n_aregs, func.n_aregs);
        assert_eq!(back.params, func.params);
        assert_eq!(back.ret, func.ret);
        assert_eq!(back.fvar_names, func.fvar_names);
        assert_eq!(back.avar_names, func.avar_names);
        assert_eq!(back.packed, func.packed);
        validate_function(&back).expect("round-tripped function validates");
    }

    #[test]
    fn unpackable_functions_are_not_encodable() {
        let (p, mut func) = compiled(LOOPY, "acc");
        func.packed = None;
        let key = content_key(p.function("acc").unwrap(), &CompileOptions::default());
        assert!(encode_function(&key, &func).is_none());
    }

    #[test]
    fn content_key_distinguishes_same_name_different_body() {
        let a = program("double f(double x) { return x + 1.0; }");
        let b = program("double f(double x) { return x + 2.0; }");
        let opts = CompileOptions::default();
        let ka = content_key(a.function("f").unwrap(), &opts);
        let kb = content_key(b.function("f").unwrap(), &opts);
        assert_ne!(ka, kb, "same name, different body must not collide");
    }

    #[test]
    fn content_key_distinguishes_precision_maps() {
        let p = program("double f(double x) { double y = x * x; return y; }");
        let f = p.function("f").unwrap();
        let base = CompileOptions::default();
        let (yid, _) = f.vars_iter().find(|(_, v)| v.name == "y").unwrap();
        let demoted = CompileOptions {
            precisions: PrecisionMap::empty().with(yid, FloatTy::F32),
            ..CompileOptions::default()
        };
        assert_ne!(content_key(f, &base), content_key(f, &demoted));
        // …and is stable for a re-parsed identical program.
        let p2 = program("double f(double x) { double y = x * x; return y; }");
        assert_eq!(
            content_key(f, &base),
            content_key(p2.function("f").unwrap(), &base)
        );
    }

    #[test]
    fn decode_rejects_truncation_flip_version_and_key_mismatch() {
        let (p, func) = compiled(LOOPY, "acc");
        let key = content_key(p.function("acc").unwrap(), &CompileOptions::default());
        let bytes = encode_function(&key, &func).unwrap();

        // Truncation at every prefix length fails, never panics.
        for cut in [0, 7, 12, 27, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_function(&bytes[..cut], &key).is_err(), "cut={cut}");
        }
        // Any single flipped bit fails the checksum (or an earlier check).
        for at in [8, 15, 40, bytes.len() / 2, bytes.len() - 3] {
            let mut b = bytes.clone();
            b[at] ^= 0x01;
            assert!(decode_function(&b, &key).is_err(), "flip at {at}");
        }
        // Wrong version header.
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = decode_function(&b, &key).unwrap_err();
        assert!(err.contains("version"), "{err}");
        // Valid bytes under the wrong key.
        let other = ContentKey {
            hi: key.hi ^ 1,
            lo: key.lo,
        };
        let err = decode_function(&bytes, &other).unwrap_err();
        assert!(err.contains("key"), "{err}");
    }

    #[test]
    fn disk_store_round_trip_and_counters() {
        let dir = std::env::temp_dir().join(format!("chef-store-ut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let (p, func) = compiled(LOOPY, "acc");
        let key = content_key(p.function("acc").unwrap(), &CompileOptions::default());

        assert!(store.load(&key).is_none());
        assert_eq!(store.misses(), 1);
        assert!(store.store(&key, &func));
        assert_eq!(store.writes(), 1);
        let back = store.load(&key).expect("stored entry loads");
        assert_eq!(store.hits(), 1);
        assert_eq!(back.instrs, func.instrs);
        assert_eq!(back.packed, func.packed);

        // No temp files linger after a successful store.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
