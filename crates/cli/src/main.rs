//! `pmr` — command-line interface for FX declustering.
//!
//! ```text
//! pmr distribute --fields 2,8 --devices 4 [--strategy theorem-9|basic|cycle-iu1|cycle-iu2]
//! pmr analyze    --fields 8,8,8,8,8,8 --devices 32 [--strategy …]
//! pmr simulate   --fields 8,8,8 --devices 16 --records 10000 [--seed N] [--trace T] [--json]
//!                [--faults SPEC] [--retry POLICY] [--redundancy R] [--batch B]
//! pmr throughput [--fields F1,... --devices M] [--records N] [--batch B] [--json]
//! pmr serve      [--nodes K] [--deadline-ms D] [--queries Q] [--json]
//! pmr loadgen    [--nodes K] [--queries Q] [--batch B] [--concurrency C]
//!                [--kill-node I --kill-at Q] [--drop P] [--check] [--json]
//! pmr chaos      [--rates R1,R2,...] [--outage D] [--redundancy R] [--json]
//! pmr experiment <table1..table9|figure1..figure4|all> [--trace T] [--csv] [--empirical]
//! pmr stats      <trace.jsonl>
//! ```

/// The CLI's one output boundary: every `print!` in this crate is this
/// macro (a `macro_rules!` shadows the std prelude's for every module
/// declared after it) and writes through [`write_stdout`].
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// [`print!`] plus a newline, through [`write_stdout`].
macro_rules! println {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;
mod fixture;

use std::io::Write as _;
use std::process::ExitCode;

/// Writes to stdout. A closed stdout (the reader of a pipe exited, as in
/// `pmr experiment all | head -1`) ends the process quietly with exit 0:
/// no one is left to read the rest. Any other write error panics, as
/// std's `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        return Err("missing command".into());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "distribute" => commands::distribute(rest),
        "analyze" => commands::analyze(rest),
        "simulate" => commands::simulate(rest),
        "throughput" => commands::throughput(rest),
        "serve" => commands::serve(rest),
        "loadgen" => commands::loadgen(rest),
        "chaos" => commands::chaos(rest),
        "optimize" => commands::optimize(rest),
        "design" => commands::design(rest),
        "verify" => commands::verify(rest),
        "experiment" => commands::experiment(rest),
        "stats" => commands::stats(rest),
        "help" | "--help" | "-h" => {
            println!("{}", args::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
