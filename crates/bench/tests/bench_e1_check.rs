//! `bench_e1 --check` is CI's round-drift gate: a reference it cannot
//! read a round count from must stop it with a usage error (exit 2)
//! instead of letting the gate pass unchecked.

use std::process::Command;

fn check_against(name: &str, reference: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir();
    let ref_path = dir.join(format!("qcc-bench-e1-{name}-{}.json", std::process::id()));
    std::fs::write(&ref_path, reference).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e1"))
        .args(["--n", "4", "--out"])
        .arg(dir.join(format!(
            "qcc-bench-e1-{name}-out-{}.json",
            std::process::id()
        )))
        .arg("--check")
        .arg(&ref_path)
        .output()
        .unwrap();
    std::fs::remove_file(&ref_path).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_reference_without_rounds_is_a_usage_error() {
    let (code, stderr) = check_against("no-rounds", "{\"min_ms\": 10.0}");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("has no rounds"), "{stderr}");
}

#[test]
fn a_reference_with_non_integer_rounds_is_a_usage_error() {
    for (name, rounds) in [("fraction", "1.5"), ("string", "\"12\"")] {
        let (code, stderr) =
            check_against(name, &format!("{{\"min_ms\": 10.0, \"rounds\": {rounds}}}"));
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stderr.contains("rounds"), "{name}: {stderr}");
    }
}

#[test]
fn a_reference_that_is_not_json_is_a_usage_error() {
    let (code, stderr) = check_against("garbage", "\"min_ms\": 10.0, \"rounds\": 7");
    assert_eq!(code, Some(2), "{stderr}");
}
