//! The `harness` command line: a section name it does not know is a
//! usage error, so a mistyped gate (`harness chek`) fails instead of
//! printing nothing and passing.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness")).args(args).output().expect("run harness")
}

#[test]
fn unknown_section_is_a_usage_error() {
    for args in [&["e9"][..], &["chek"], &["e1", "e9"], &["check", "e1"]] {
        let out = harness(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        // Nothing runs before the arguments are validated.
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert!(stderr.contains("unknown section"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("e1 e2 e3 e4 e5 e6 e7 e8 faults transforms a1 a2 a3"),
            "{args:?} should list the valid sections: {stderr}"
        );
    }
}

#[test]
fn a_known_section_prints_its_table() {
    let out = harness(&["a1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== A1: "), "{stdout}");
    assert!(!stdout.contains("== A2: "), "{stdout}");
}
