//! The checked-in `.cargo/config.toml` aligns every loop header to a
//! 64-byte line, so the VM dispatch loop's speed does not depend on where
//! the linker happens to place it. Cargo drops that setting without a
//! word whenever `RUSTFLAGS` or `CARGO_ENCODED_RUSTFLAGS` is set (and a
//! `CARGO_BUILD_RUSTFLAGS` or `CARGO_TARGET_<triple>_RUSTFLAGS` variable,
//! or a `[target]` table's `rustflags`, takes precedence over it too), so
//! these tests fail when the config loses the flag or a CI workflow sets
//! any such variable without it.

use std::path::{Path, PathBuf};

const FLAG: &str = "-align-loops=64";

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn cargo_config_aligns_loops() {
    let config = read(&repo_path(".cargo/config.toml"));
    assert!(
        config.lines().any(|l| l.trim() == "[build]"),
        ".cargo/config.toml has no [build] table:\n{config}"
    );
    let mut settings = 0;
    for (at, _) in config.match_indices("rustflags") {
        // The value runs to the array's closing bracket, over lines.
        let value = &config[at..];
        let value = &value[..value.find(']').map_or(value.len(), |end| end + 1)];
        assert!(
            value.contains(FLAG),
            ".cargo/config.toml sets rustflags without {FLAG}: {value}"
        );
        settings += 1;
    }
    assert!(
        settings > 0,
        ".cargo/config.toml sets no rustflags:\n{config}"
    );
}

#[test]
fn workflows_keep_the_loop_alignment() {
    let dir = repo_path(".github/workflows");
    let mut workflows = 0;
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if !matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("yml" | "yaml")
        ) {
            continue;
        }
        workflows += 1;
        for (n, line) in read(&path).lines().enumerate() {
            assert!(
                !line.contains("RUSTFLAGS") || line.contains(FLAG),
                "{}:{}: sets rustflags without {FLAG}, which drops \
                 .cargo/config.toml's: {line}",
                path.display(),
                n + 1
            );
        }
    }
    assert!(workflows > 0, "no workflow found in {}", dir.display());
}
