//! Corrupt-store robustness: every way an on-disk entry can rot —
//! truncation, a flipped checksum byte, a wrong version header, a torn
//! write left behind as a temp file — must degrade to a *counted* miss
//! that falls back to a cold compile with bit-identical results. A
//! corrupt entry is quarantined (renamed to `.bad`), never trusted,
//! and never panics the loader.

use chef_exec::prelude::*;
use chef_exec::store::{content_key, ContentKey, DiskStore};

const KERNEL: &str = "double f(double x, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += sin(x + i * 0.01) * 0.5; }
    return s;
}";

struct Fixture {
    dir: std::path::PathBuf,
    func: CompiledFunction,
    key: ContentKey,
    cold_bits: u64,
}

impl Fixture {
    /// Compile the kernel cold, record its reference output, and write
    /// one valid entry into a fresh store directory named `tag`.
    fn new(tag: &str) -> Fixture {
        let mut p = chef_ir::parser::parse_program(KERNEL).unwrap();
        chef_ir::typeck::check_program(&mut p).unwrap();
        let func = compile_default(&p.functions[0]).unwrap();
        let key = content_key(&p.functions[0], &CompileOptions::default());
        let cold_bits = run_f64(&func).to_bits();

        let dir = std::env::temp_dir().join(format!("chef-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.store(&key, &func));
        assert_eq!(store.writes(), 1);
        Fixture {
            dir,
            func,
            key,
            cold_bits,
        }
    }

    fn store(&self) -> DiskStore {
        DiskStore::open(&self.dir).unwrap()
    }

    fn entry(&self) -> std::path::PathBuf {
        self.store().entry_path(&self.key)
    }

    /// Assert that a load from the (corrupted) store misses, bumps the
    /// corrupt counter, quarantines the entry, and that recompiling
    /// reproduces the cold-run bits exactly.
    fn assert_degrades_to_counted_miss(&self) {
        let store = self.store();
        assert!(store.load(&self.key).is_none(), "corrupt entry must miss");
        assert_eq!(store.misses(), 1, "corruption counts as a miss");
        assert_eq!(store.corrupt(), 1, "corruption must be counted");
        assert_eq!(store.hits(), 0);
        assert!(!self.entry().exists(), "corrupt entry must be quarantined");
        assert!(
            self.entry().with_extension("cfn.bad").exists() || quarantined_count(&self.dir) == 1,
            "quarantined file must remain for forensics"
        );
        // The fallback path: compile again, bit-identical to cold.
        let recompiled_bits = run_f64(&self.func).to_bits();
        assert_eq!(recompiled_bits, self.cold_bits);
        // And the store recovers: a fresh write round-trips again.
        assert!(store.store(&self.key, &self.func));
        let reloaded = store.load(&self.key).expect("rewritten entry loads");
        assert_eq!(run_f64(&reloaded).to_bits(), self.cold_bits);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run_f64(func: &CompiledFunction) -> f64 {
    let out = run(func, vec![ArgValue::F(0.37), ArgValue::I(50)]).unwrap();
    match out.ret {
        Some(Value::F(v)) => v,
        other => panic!("expected float, got {other:?}"),
    }
}

fn quarantined_count(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".bad"))
        .count()
}

#[test]
fn truncated_entry_degrades_to_counted_miss() {
    let fx = Fixture::new("trunc");
    let bytes = std::fs::read(fx.entry()).unwrap();
    std::fs::write(fx.entry(), &bytes[..bytes.len() / 2]).unwrap();
    fx.assert_degrades_to_counted_miss();
}

#[test]
fn flipped_checksum_byte_degrades_to_counted_miss() {
    let fx = Fixture::new("bitflip");
    let mut bytes = std::fs::read(fx.entry()).unwrap();
    // Flip one bit in the trailing checksum word itself.
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(fx.entry(), &bytes).unwrap();
    fx.assert_degrades_to_counted_miss();
}

#[test]
fn flipped_payload_byte_degrades_to_counted_miss() {
    let fx = Fixture::new("payload");
    let mut bytes = std::fs::read(fx.entry()).unwrap();
    // Flip a bit in the middle of the payload; the checksum catches it.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(fx.entry(), &bytes).unwrap();
    fx.assert_degrades_to_counted_miss();
}

#[test]
fn wrong_version_header_degrades_to_counted_miss() {
    let fx = Fixture::new("version");
    let mut bytes = std::fs::read(fx.entry()).unwrap();
    // Bytes 8..12 hold the little-endian format version after the
    // 8-byte magic. Pretend a future version wrote this entry.
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(fx.entry(), &bytes).unwrap();
    fx.assert_degrades_to_counted_miss();
}

#[test]
fn cfg_tier_variants_never_cross_hit() {
    // The compaction flag (and the tier's revision) are part of a
    // variant's content key: bytecode compacted by the tier must never
    // be served to a `cfg: false` compile, and vice versa — a stale
    // cross-hit would silently change the register numbering a caller
    // asked for.
    let mut p = chef_ir::parser::parse_program(KERNEL).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let func = &p.functions[0];
    let with_cfg = |on: bool| CompileOptions {
        cfg: on,
        ..Default::default()
    };
    let key_on = content_key(func, &with_cfg(true));
    let key_off = content_key(func, &with_cfg(false));
    assert_ne!(
        key_on.to_string(),
        key_off.to_string(),
        "cfg on/off must produce distinct content keys"
    );

    let dir = std::env::temp_dir().join(format!("chef-disk-cfgkey-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();
    let compiled_on = compile(func, &with_cfg(true)).unwrap();
    assert!(store.store(&key_on, &compiled_on));
    // The cfg-off key misses despite the cfg-on entry sitting next to it.
    assert!(store.load(&key_off).is_none(), "cfg-off must not cross-hit");
    assert_eq!(store.misses(), 1);
    assert_eq!(store.corrupt(), 0);
    // And the matching key still round-trips.
    let loaded = store.load(&key_on).expect("cfg-on entry hits its own key");
    assert_eq!(run_f64(&loaded).to_bits(), run_f64(&compiled_on).to_bits());
    assert_eq!(store.hits(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_leaves_store_consistent() {
    // A crash mid-write leaves a temp file but never a partial entry:
    // the final name only ever appears via rename. Loads on the key
    // miss cleanly (plain miss, NOT corruption — no entry exists), and
    // stray temp files do not shadow or break later writes.
    let mut p = chef_ir::parser::parse_program(KERNEL).unwrap();
    chef_ir::typeck::check_program(&mut p).unwrap();
    let func = compile_default(&p.functions[0]).unwrap();
    let key = content_key(&p.functions[0], &CompileOptions::default());
    let cold_bits = run_f64(&func).to_bits();

    let dir = std::env::temp_dir().join(format!("chef-disk-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DiskStore::open(&dir).unwrap();

    // Simulate the torn write: a half-serialized temp file on disk.
    let torn = dir.join(format!(".{}.9999.0.tmp", key));
    std::fs::write(&torn, b"CHEFFUNC\x01\x00\x00").unwrap();

    assert!(store.load(&key).is_none());
    assert_eq!(store.misses(), 1, "absent entry is a plain counted miss");
    assert_eq!(store.corrupt(), 0, "a torn temp file is not corruption");

    // Recovery: a real write lands atomically despite the debris, and
    // the loaded copy is bit-identical to the cold compile.
    assert!(store.store(&key, &func));
    let loaded = store.load(&key).expect("entry must load after rename");
    assert_eq!(run_f64(&loaded).to_bits(), cold_bits);
    assert_eq!(store.hits(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
