//! `swbench run --smoke` of all four workloads, untraced and traced, as
//! separate processes, writing only to a temporary directory.

use std::process::Command;

use swbench::report::{END_TO_END, PER_LAYER};
use swbench::WORKLOADS;

#[test]
fn smoke_run_of_every_workload_checks_out() {
    let out = std::env::temp_dir().join(format!("swbench-smoke-{}", std::process::id()));
    for (trace, names) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let run = Command::new(env!("CARGO_BIN_EXE_swbench"))
            .args([
                "run",
                "--smoke",
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                trace,
                "--out",
            ])
            .arg(&out)
            .output()
            .expect("swbench starts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{stderr}");
        let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), WORKLOADS.len(), "{stdout}");
        for line in lines {
            assert!(line.contains("\"correct\":true"), "{line}");
            assert!(line.contains("\"failed\":0"), "{line}");
            for (name, unit) in names {
                assert!(
                    line.contains(&format!("\"{name}\":{{\"unit\":\"{unit}\"")),
                    "{name} in {line}"
                );
            }
        }
        for w in WORKLOADS {
            assert!(out.join(w).join("result.json").is_file(), "{w}");
            assert_eq!(
                out.join(w).join("spans.json").is_file(),
                trace == "1",
                "{w}"
            );
        }
    }
    std::fs::remove_dir_all(&out).expect("temporary directory removed");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["walk"],
        &["run", "--trace", "2"],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_swbench"))
            .args(args)
            .output()
            .expect("swbench starts");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
