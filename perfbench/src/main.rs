//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --brc PATH`
//!
//! Runs one workload (or, with `--trace 1`, the traced per-layer run)
//! and prints its result as the last line of standard output. Exits 1
//! when an output check failed and 2 when the run could not complete.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::{self, Args};

const WORKLOADS: [&str; 2] = ["pipeline", "adapt"];

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --brc PATH",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace, mut brc) = (None, None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--brc" => brc = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(brc)) =
        (workload, seed, seconds, trace, brc)
    else {
        return usage("missing or malformed flag");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    if !std::path::Path::new("perfbench")
        .join("Cargo.toml")
        .is_file()
    {
        return usage("run from the root of the repository (run.py does)");
    }
    let work = perfbench::work_dir().join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        return usage(&format!("cannot create {}: {e}", work.display()));
    }
    let args = Args {
        seed,
        seconds,
        brc,
        work: work.clone(),
    };
    let result = if trace {
        perfbench::layers::traced(&args)
    } else {
        match workload.as_str() {
            "pipeline" => workloads::pipeline(&args),
            _ => workloads::adapt(&args),
        }
    };
    // Keep the spans of a traced run; drop every other scratch file.
    if trace {
        let _ = std::fs::rename(
            work.join("spans.txt"),
            perfbench::work_dir().join(format!("spans-{workload}-seed{seed}.txt")),
        );
    }
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            for p in report.problems.iter().take(20) {
                eprintln!("check failed: {p}");
            }
            println!("{}", report.to_json());
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}
