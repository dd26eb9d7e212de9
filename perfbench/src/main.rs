//! Command-line entry of the benchmark.
//!
//! ```text
//! hc-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (`figures`, `suite_cold`, `suite_warm`,
//! `suite_resume`) from the current directory, using `.perfbench_work/`
//! for scratch files and writing a traced run's Chrome trace to
//! `.perfbench_out/`.  Progress goes to stderr; the last line of stdout is
//! the JSON result.  Exits non-zero on a usage error.
//!
//! An untraced run measures each repetition in a child process of this
//! executable, started as `--rep K --work-dir DIR [--scale paper|tiny]`
//! alongside the workload and seed; the child prints one JSON repetition
//! record as its last stdout line.

use hc_perfbench::{run, run_rep, Config, Scale, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("hc-perfbench: {problem}");
    eprintln!("usage: hc-perfbench --workload figures|suite_cold|suite_warm|suite_resume [--seed N] [--seconds S] [--trace 0|1]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut scale = Scale::PAPER;
    let mut rep = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(n) => seed = n,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace flag `{value}`")),
            },
            "--scale" => match Scale::parse(&value) {
                Some(s) => scale = s,
                None => return usage(&format!("unknown scale `{value}`")),
            },
            "--rep" => match value.parse() {
                Ok(k) => rep = Some(k),
                Err(_) => return usage(&format!("bad repetition `{value}`")),
            },
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown argument `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let name = workload.name();
    if let Some(index) = rep {
        let Some(dir) = work_dir else {
            return usage("--rep needs --work-dir");
        };
        let record = run_rep(workload, scale, seed, &dir, index);
        println!("{}", serde::json::to_string(&record));
        return ExitCode::SUCCESS;
    }
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale,
        work_dir: work_dir.unwrap_or_else(|| {
            PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id()))
        }),
        trace_out: trace
            .then(|| PathBuf::from(".perfbench_out").join(format!("trace_{name}_seed{seed}.json"))),
        fault: None,
        rep_exe: std::env::current_exe().ok(),
    };
    eprintln!(
        "hc-perfbench: {name} seed {seed}, {seconds} s, trace {}, {} worker threads",
        u8::from(trace),
        hc_perfbench::worker_threads()
    );
    let outcome = run(&cfg);
    // Drop the scratch root too once no other run is using it.
    let _ = std::fs::remove_dir(".perfbench_work");
    eprintln!(
        "hc-perfbench: {name}: {} reps, error_rate {} ({} of {} operations failed)",
        outcome.reps,
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
