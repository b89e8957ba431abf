//! The bench binaries reject arguments they cannot parse instead of
//! silently running the default size.

use std::process::Command;

#[test]
fn a_garbage_size_is_a_usage_error_not_the_default() {
    let out = Command::new(env!("CARGO_BIN_EXE_msg_table"))
        .arg("12x")
        .output()
        .expect("msg_table spawns");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: msg_table [n] [s]"), "{err}");
    assert!(err.contains("n: `12x`"), "{err}");
    assert!(out.stdout.is_empty(), "nothing ran");

    let out = Command::new(env!("CARGO_BIN_EXE_msg_table"))
        .args(["8", "2"])
        .output()
        .expect("msg_table spawns");
    assert!(out.status.success(), "a well-formed size still runs");
}
