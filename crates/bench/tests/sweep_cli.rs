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

/// The numbers that follow `"key":` in `json`, in document order.
fn numbers_after(json: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[at + needle.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse().expect("a number")
        })
        .collect()
}

/// A sweep exports one boundary-event count, with or without `--metrics`:
/// the sum of its scenarios' own `boundary_events` (offers plus output
/// writes), in the Prometheus exposition and in the JSON report's
/// snapshot alike.
#[test]
fn exported_boundary_events_sum_the_scenarios() {
    let dir = std::env::temp_dir().join(format!("sweep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for metrics in [true, false] {
        let (out, prom) = (dir.join("sweep.json"), dir.join("metrics.prom"));
        let mut command = Command::new(env!("CARGO_BIN_EXE_sweep"));
        command.args(["--threads", "1", "--scenarios", "8", "--tokens", "100", "--out"]);
        command.arg(&out).stderr(Stdio::null());
        if metrics {
            command.arg("--metrics").arg(&prom);
        }
        assert!(command.status().expect("sweep runs").success());

        let report = std::fs::read_to_string(&out).unwrap();
        let (snapshot, scenarios) = report.split_once("\"scenarios\":[").expect("scenarios");
        let per_scenario = numbers_after(scenarios, "boundary_events");
        assert_eq!(per_scenario.len(), 8);
        let total: u64 = per_scenario.iter().sum();
        assert_eq!(numbers_after(snapshot, "boundary_events"), vec![total], "--metrics {metrics}");
        if metrics {
            let exposition = std::fs::read_to_string(&prom).unwrap();
            let line = format!("\nevolve_boundary_events_total {total}\n");
            assert!(exposition.contains(&line), "{exposition}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
