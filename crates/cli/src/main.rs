//! `mkp` — command-line interface to the workspace.
//!
//! ```sh
//! mkp generate /tmp/a.mkp --class gk --n 100 --m 5
//! mkp stats    /tmp/a.mkp
//! mkp solve    /tmp/a.mkp --mode cts2 --p 4
//! mkp exact    /tmp/a.mkp --workers 4
//! ```

mod args;
mod commands;

use args::Args;
use commands::{
    cmd_exact, cmd_generate, cmd_serve, cmd_slave, cmd_solve, cmd_stats, cmd_submit,
    cmd_validate_metrics, CliError, EXACT_FLAGS, GEN_FLAGS, SERVE_FLAGS, SLAVE_FLAGS, SOLVE_FLAGS,
    SUBMIT_FLAGS, USAGE,
};
use std::process::ExitCode;

/// A subcommand's entry point: parsed arguments in, text to print out.
type Command = fn(&Args) -> Result<String, CliError>;

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = raw.collect();

    let (flags, run): (&[&str], Command) = match command.as_str() {
        "generate" => (GEN_FLAGS, cmd_generate),
        "stats" => (&[], cmd_stats),
        "solve" => (SOLVE_FLAGS, cmd_solve),
        "slave" => (SLAVE_FLAGS, cmd_slave),
        "serve" => (SERVE_FLAGS, cmd_serve),
        "submit" => (SUBMIT_FLAGS, cmd_submit),
        "exact" => (EXACT_FLAGS, cmd_exact),
        "validate-metrics" => (&[], cmd_validate_metrics),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = Args::parse(rest, flags)
        .map_err(Into::into)
        .and_then(|a| run(&a));

    match outcome {
        Ok(text) => {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        // A degraded solve still produced a result: print it like a
        // success, but exit 2 so scripts can tell the difference.
        Err(CliError::Degraded(text)) => {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
