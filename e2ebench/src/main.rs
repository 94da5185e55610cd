//! `hmem-e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]`
//!
//! Prints human-readable lines, then one JSON result as the last line of
//! standard output. Exits 1 when an output check fails, 2 on a bad command
//! line.

use hmem_e2ebench::{run, Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    for line in &report.notes {
        println!("{line}");
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
