//! `experiments` — the registry front-end binary.
//!
//! The one binary that runs any of the `e1`–`e14` experiments:
//!
//! ```text
//! experiments                 list the registered experiments
//! experiments --list          same
//! experiments e3 --fast       run e3 under the shared CLI flags
//! experiments e6 --vcd w.vcd  flags are forwarded verbatim
//! ```
//!
//! `experiments --help` exits 0; an unknown experiment name or a bad
//! flag prints usage and exits 2.

use sim_runtime::cli::{self, Args, CliError};
use sim_runtime::Registry;

/// The experiment named first, or `None` for the listing.
fn pick(args: &mut Args, registry: &Registry) -> Result<Option<String>, CliError> {
    match args.next_arg()? {
        None => Ok(None),
        Some(arg) if arg == "--list" => Ok(None),
        Some(name) if registry.get(&name).is_some() => Ok(Some(name)),
        Some(name) => Err(CliError::Usage(format!("unknown experiment `{name}`"))),
    }
}

fn main() {
    let registry = bench::registry();
    let usage = format!(
        "usage: experiments [--list] | experiments <name> [experiment flags]\n\
         \n\
         registered experiments:\n{}",
        registry.listing()
    );
    let mut args = Args::from_env();
    let code = match cli::resolve(&usage, pick(&mut args, &registry)) {
        Ok(Some(name)) => sim_runtime::run_cli_args(&registry, &name, args),
        Ok(None) => {
            print!("{}", registry.listing());
            0
        }
        Err(code) => code,
    };
    std::process::exit(code);
}
