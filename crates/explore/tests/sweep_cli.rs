//! The `sweep` binary's command line.

use std::process::{Command, Stdio};

/// A rejected flag exits 2 with the usage line on stderr, and still exits
/// 2 when stderr is `/dev/full`, where every diagnostic write fails.
#[test]
fn usage_error_exits_2_whether_or_not_stderr_is_writable() {
    let sweep = || {
        let mut command = Command::new(env!("CARGO_BIN_EXE_sweep"));
        command.arg("--bogus").stdout(Stdio::null());
        command
    };
    let readable = sweep().output().expect("sweep runs");
    let stderr = String::from_utf8_lossy(&readable.stderr);
    assert_eq!(readable.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option --bogus"), "{stderr}");
    assert!(stderr.contains("usage: sweep"), "{stderr}");

    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").unwrap();
    let status = sweep().stderr(full).status().expect("sweep runs");
    assert_eq!(status.code(), Some(2));
}
