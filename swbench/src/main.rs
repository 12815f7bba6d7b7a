//! `swbench` — the repository benchmark driver.
//!
//! ```text
//! swbench run [--workload scan|msa|serve|align] [--seed N] [--seconds S]
//!             [--trace 0|1] [--out DIR] [--smoke]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints the
//! result as the last line of standard output. Without it, runs every
//! workload, each in its own child process so its peak memory and
//! set-up time are its own. `--out DIR` also writes
//! `DIR/<workload>/result.json` (per-round values, quartiles, host
//! facts) and, for traced runs, `DIR/<workload>/spans.json`. The exit
//! code is nonzero when any operation failed or any answer was wrong.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::json;
use swbench::host::{self, HostLoad};
use swbench::inputs::Sizes;
use swbench::report::{finite, END_TO_END, PER_LAYER};
use swbench::{trace, workloads, Run, WORKLOADS};

const USAGE: &str = "usage: swbench run [--workload scan|msa|serve|align] [--seed N] \
[--seconds S] [--trace 0|1] [--out DIR] [--smoke]";

struct Args {
    workload: Option<String>,
    run: Run,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    if cmd != "run" {
        return Err(format!("unknown command {cmd}\n{USAGE}"));
    }
    let mut a = Args {
        workload: None,
        run: Run {
            seed: 1,
            seconds: 25.0,
            trace: false,
            sizes: Sizes::FULL,
        },
        smoke: false,
        out: None,
    };
    let mut it = rest.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.run.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.run.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = Some(value("a directory")?.into()),
            "--smoke" => {
                a.smoke = true;
                a.run.sizes = Sizes::SMOKE;
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    if !(a.run.seconds.is_finite() && a.run.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &parsed.workload {
        Some(w) => run_one(w, &parsed),
        None => run_all(&args),
    }
}

/// Run every workload in its own child process, forwarding its output.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(args)
            .args(["--workload", w])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output();
        match child {
            Ok(o) => {
                let _ = std::io::stdout().write_all(&o.stdout);
                if !o.status.success() {
                    failed.push(w);
                }
            }
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                failed.push(w);
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {failed:?}");
        ExitCode::FAILURE
    }
}

fn run_one(name: &str, a: &Args) -> ExitCode {
    let load_start = HostLoad::now();
    let mut out = workloads::run(name, &a.run).expect("workload name validated");
    let names = if a.run.trace { PER_LAYER } else { END_TO_END };
    out.metrics.insert("rss_peak_mb", host::rss_peak_mb());
    let load_end = HostLoad::now();
    let engine = swbench::layers::Kernel::new().engine.name();

    eprintln!(
        "swbench {name} seed={} trace={} engine={engine} nproc={} attempted={} failed={}",
        a.run.seed,
        u8::from(a.run.trace),
        host::nproc(),
        out.attempted,
        out.failed
    );
    for &(metric, unit) in names {
        let value = finite(out.metrics.get(metric).copied().unwrap_or(0.0));
        eprintln!("  {metric:<40} {value:>14.4} {unit}");
    }

    if let Some(dir) = &a.out {
        let dir = dir.join(name);
        let mut record = out.record(names);
        record["workload"] = json!(name);
        record["seed"] = json!(a.run.seed);
        record["seconds"] = json!(a.run.seconds);
        record["trace"] = json!(a.run.trace);
        record["smoke"] = json!(a.smoke);
        record["host"] = json!({
            "nproc": host::nproc(),
            "cpu_model": host::cpu_model(),
            "engine": engine,
            "start": load_start.to_json(),
            "end": load_end.to_json(),
        });
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("result.json"), format!("{record}\n")))
            .and_then(|()| {
                if a.run.trace {
                    trace::write_spans(&dir.join("spans.json"), &out.spans)
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    println!("{}", out.result_line(names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
