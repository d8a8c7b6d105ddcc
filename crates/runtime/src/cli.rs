//! The one command-line contract every binary in the workspace keeps:
//!
//! * `--help`/`-h` prints the binary's usage on stdout and exits 0;
//! * a malformed, missing or unknown flag prints the reason, then the
//!   usage, on stderr and exits 2.
//!
//! A binary walks its flags with an [`Args`] cursor, reports a bad one
//! as a [`CliError`], and hands the result to [`resolve`], which prints
//! and returns the exit code or passes the parsed options through. Rules
//! that span flags (one mode of several, an even stage count) stay in
//! the binary as [`CliError::Usage`] errors.
//!
//! ```
//! use sim_runtime::cli::{self, Args, CliError};
//!
//! fn parse(mut args: Args) -> Result<u64, CliError> {
//!     let mut seed = 1;
//!     while let Some(arg) = args.next_arg()? {
//!         match arg.as_str() {
//!             "--seed" => seed = args.parse("--seed", "a non-negative integer")?,
//!             other => return Err(cli::unknown(other)),
//!         }
//!     }
//!     Ok(seed)
//! }
//!
//! assert_eq!(parse(Args::new(["--seed", "7"])), Ok(7));
//! assert_eq!(parse(Args::new(["-h"])), Err(CliError::Help));
//! assert_eq!(cli::resolve("usage: demo", parse(Args::new(["--seed"]))), Err(2));
//! ```

use crate::sweep::ParallelSweep;
use std::str::FromStr;

/// Why parsing stopped before producing options.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given: print usage, exit 0.
    Help,
    /// The arguments are unusable; the message says why (exit 2).
    Usage(String),
}

/// A cursor over the arguments after the binary name.
#[derive(Debug)]
pub struct Args {
    it: std::vec::IntoIter<String>,
}

impl Args {
    /// A cursor over `args` (binary name already stripped).
    pub fn new<I>(args: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        Args {
            it: args.into_iter(),
        }
    }

    /// The process's own arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// The next flag or operand, `None` at the end.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help` or `-h`.
    pub fn next_arg(&mut self) -> Result<Option<String>, CliError> {
        match self.it.next() {
            Some(arg) if arg == "--help" || arg == "-h" => Err(CliError::Help),
            next => Ok(next),
        }
    }

    /// The value following `flag`.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or empty.
    pub fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.it
            .next()
            .filter(|v| !v.is_empty())
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    }

    /// The value following `flag`, parsed as a `T`; `what` names the
    /// expected form in the error ("a non-negative integer").
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or does not parse.
    pub fn parse<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("{flag} needs {what}, got `{raw}`")))
    }

    /// The value following `flag` as a worker-thread count, under the
    /// rule every binary shares: a positive count is taken as given,
    /// and `0` means the default — `SIM_THREADS`, else every core
    /// ([`ParallelSweep::from_env`]).
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or not a non-negative
    /// integer.
    pub fn threads(&mut self, flag: &str) -> Result<usize, CliError> {
        match self.parse(flag, "a non-negative integer")? {
            0 => Ok(ParallelSweep::from_env().threads()),
            n => Ok(n),
        }
    }

    /// The value following `flag` as a finite, non-negative number:
    /// NaN, infinities and negatives are refused, so a threshold
    /// compared against it can always trip.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing, malformed or out of
    /// range.
    pub fn finite(&mut self, flag: &str, what: &str) -> Result<f64, CliError> {
        let raw = self.value(flag)?;
        raw.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs {what}, got `{raw}`")))
    }
}

impl IntoIterator for Args {
    type Item = String;
    type IntoIter = std::vec::IntoIter<String>;

    /// The arguments the cursor has not consumed yet.
    fn into_iter(self) -> Self::IntoIter {
        self.it
    }
}

/// The error for a flag the binary does not know.
#[must_use]
pub fn unknown(arg: &str) -> CliError {
    CliError::Usage(format!("unknown argument `{arg}`"))
}

/// Applies the contract to a parse result: parsed options pass through;
/// [`CliError::Help`] prints `usage` on stdout and yields exit code 0;
/// [`CliError::Usage`] prints the reason, then `usage`, on stderr and
/// yields 2. Returning the code instead of exiting keeps it testable.
///
/// # Errors
///
/// The exit code when the program should stop here.
pub fn resolve<T>(usage: &str, parsed: Result<T, CliError>) -> Result<T, i32> {
    match parsed {
        Ok(opts) => Ok(opts),
        Err(CliError::Help) => {
            println!("{usage}");
            Err(0)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}\n{usage}");
            Err(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(args: &[&str]) -> Result<u64, CliError> {
        let mut args = Args::new(args.iter().copied());
        let mut seed = 0;
        while let Some(arg) = args.next_arg()? {
            match arg.as_str() {
                "--seed" => seed = args.parse("--seed", "a non-negative integer")?,
                other => return Err(unknown(other)),
            }
        }
        Ok(seed)
    }

    fn usage(err: Result<impl std::fmt::Debug, CliError>) -> String {
        match err {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn help_stops_parsing_and_exits_zero() {
        for flag in ["--help", "-h"] {
            assert_eq!(seed(&[flag]), Err(CliError::Help));
            assert_eq!(seed(&["--seed", "3", flag, "--bogus"]), Err(CliError::Help));
            assert_eq!(resolve("usage: t", seed(&[flag])), Err(0));
        }
        // A help flag in value position is a value, not a request.
        assert!(usage(seed(&["--seed", "-h"])).contains("got `-h`"));
    }

    #[test]
    fn a_missing_or_empty_value_is_a_usage_error() {
        assert_eq!(usage(seed(&["--seed"])), "--seed needs a value");
        assert_eq!(usage(seed(&["--seed", ""])), "--seed needs a value");
        assert_eq!(resolve("usage: t", seed(&["--seed"])), Err(2));
    }

    #[test]
    fn a_malformed_number_names_the_flag_form_and_value() {
        assert_eq!(
            usage(seed(&["--seed", "-3"])),
            "--seed needs a non-negative integer, got `-3`"
        );
        assert_eq!(seed(&["--seed", "9"]), Ok(9));
    }

    #[test]
    fn finite_refuses_nan_infinities_and_negatives() {
        let finite = |raw: &str| Args::new([raw]).finite("--tol", "a percentage");
        for bad in ["NaN", "nan", "inf", "-inf", "-1", "-0.5", "x"] {
            assert!(
                usage(finite(bad)).starts_with("--tol needs a percentage"),
                "{bad}"
            );
        }
        assert_eq!(finite("0"), Ok(0.0));
        assert_eq!(finite("2.5"), Ok(2.5));
        assert_eq!(finite("1e30"), Ok(1e30));
    }

    #[test]
    fn zero_threads_means_the_environment_default() {
        let threads = |raw: &str| Args::new([raw]).threads("--threads");
        let default = ParallelSweep::from_env().threads();
        assert_eq!(threads("0"), Ok(default));
        assert_eq!(threads("3"), Ok(3));
        for bad in ["-1", "x", "1.5"] {
            assert!(
                usage(threads(bad)).starts_with("--threads needs a non-negative integer"),
                "{bad}"
            );
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        assert_eq!(
            usage(seed(&["--frobnicate"])),
            "unknown argument `--frobnicate`"
        );
        assert_eq!(resolve("usage: t", seed(&["--frobnicate"])), Err(2));
        assert_eq!(resolve("usage: t", seed(&[])), Ok(0));
    }

    #[test]
    fn the_unconsumed_rest_is_iterable() {
        let mut args = Args::new(["e6", "--fast", "--seed", "2"]);
        assert_eq!(args.next_arg(), Ok(Some("e6".to_owned())));
        let rest: Vec<String> = args.into_iter().collect();
        assert_eq!(rest, ["--fast", "--seed", "2"]);
    }
}
