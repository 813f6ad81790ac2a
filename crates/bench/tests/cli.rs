//! The `repro` command line refuses arguments it does not know.

use std::process::Command;

#[test]
fn unknown_argument_exits_2_before_running_anything() {
    for args in [&["--smoek"][..], &["table1", "--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro starts");
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran a selector");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: repro"), "repro {args:?}: {err}");
    }
}
