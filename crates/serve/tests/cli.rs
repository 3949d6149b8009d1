//! Command-line validation of the `fracdram-serve` binary: integer
//! flags that do not fit their field are rejected with a named error
//! and exit status 2 instead of being truncated.

use std::process::Command;

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_fracdram-serve");

#[test]
fn out_of_range_integer_flags_exit_2_with_a_named_error() {
    for (flag, value) in [
        ("--port", "70000"),
        ("--breaker-trip", "4294967296"),
        ("--breaker-open", "4294967299"),
    ] {
        // Offline replay of a missing log: a daemon that accepted the
        // flag exits 1 on the read instead of binding a port.
        let output = Command::new(SERVE_BIN)
            .args([flag, value, "--replay", "/nonexistent/requests.log"])
            .env_remove("RUST_BACKTRACE")
            .output()
            .expect("run fracdram-serve");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} {value} is out of range")),
            "{flag} {value}: {stderr}"
        );
    }
}
