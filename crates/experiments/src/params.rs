//! Typed experiment parameters and the one `--flag value` parser.
//!
//! Each parameterised experiment owns a `Params` struct whose
//! [`Flags::at`] is the committed shape at a [`Scale`]. `xp <name>
//! --flag value ...` starts there and applies overrides through
//! [`parse`], which is the only place argv is checked: an unknown flag,
//! a missing value, garbage or a number that overflows its field is a
//! usage error (exit 2, naming the flag); a well-formed value the runner
//! cannot execute, such as a zero shape, is invalid (exit 1, naming the
//! field). Everything that reaches a runner has passed both checks.

use std::fmt;
use std::str::FromStr;

use crate::harness::Scale;

/// Why `xp` refused an argv.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// Unknown flag, missing value, garbage or overflow (exit 2).
    Usage(String),
    /// A parsed value the runner cannot execute (exit 1).
    Invalid(String),
}

impl ArgError {
    /// The process exit status this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            ArgError::Usage(_) => 2,
            ArgError::Invalid(_) => 1,
        }
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Usage(m) | ArgError::Invalid(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ArgError {}

/// An experiment's typed parameters, settable by `--flag value`.
pub trait Flags: Sized {
    /// The committed shape at `scale`: what a run without flags uses.
    fn at(scale: &Scale) -> Self;
    /// Applies one override. An unknown flag is [`unknown`].
    fn set(&mut self, flag: &str, value: &str) -> Result<(), ArgError>;
    /// Rejects shapes the runner cannot execute, naming the flag.
    fn validate(&self) -> Result<(), String>;
}

/// Starts at `P::at(scale)`, applies `args` as `--flag value` pairs in
/// order, and validates the result.
pub fn parse<P: Flags>(scale: &Scale, args: &[String]) -> Result<P, ArgError> {
    let mut params = P::at(scale);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| ArgError::Usage(format!("{flag} needs a value")))?;
        params.set(flag, value)?;
    }
    params.validate().map_err(ArgError::Invalid)?;
    Ok(params)
}

/// The error for a flag the experiment does not take.
pub(crate) fn unknown(flag: &str) -> ArgError {
    ArgError::Usage(format!("unknown flag {flag}"))
}

/// Parses `value` at its destination width, so an out-of-range value is
/// a usage error instead of a silent truncation.
pub(crate) fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, ArgError> {
    value
        .parse()
        .map_err(|_| ArgError::Usage(format!("bad value for {flag}: {value:?}")))
}

/// Parses `value` in units of `unit` (bytes, nanoseconds); a product
/// that overflows `u64` is a usage error like any other overflow.
pub(crate) fn scaled(flag: &str, value: &str, unit: u64) -> Result<u64, ArgError> {
    num::<u64>(flag, value)?
        .checked_mul(unit)
        .ok_or_else(|| ArgError::Usage(format!("bad value for {flag}: {value:?} overflows")))
}

/// Parses a comma-separated list of numbers.
pub(crate) fn list<T: FromStr>(flag: &str, value: &str) -> Result<Vec<T>, ArgError> {
    value.split(',').map(|v| num(flag, v.trim())).collect()
}

/// Picks one of `choices` by name; the error lists every name.
pub(crate) fn pick<T: Clone>(
    flag: &str,
    value: &str,
    choices: &[(&str, T)],
) -> Result<T, ArgError> {
    match choices.iter().find(|(name, _)| *name == value) {
        Some((_, c)) => Ok(c.clone()),
        None => {
            let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
            Err(ArgError::Usage(format!(
                "bad value for {flag}: {value:?} (expected {})",
                names.join("|")
            )))
        }
    }
}

/// Picks one of `choices` by name, or all of them for `both`.
pub(crate) fn one_or_both<T: Copy>(
    flag: &str,
    value: &str,
    choices: &[(&str, T)],
) -> Result<Vec<T>, ArgError> {
    let mut named: Vec<(&str, Vec<T>)> = choices.iter().map(|&(n, c)| (n, vec![c])).collect();
    named.push(("both", choices.iter().map(|&(_, c)| c).collect()));
    pick(flag, value, &named)
}

/// The first `(flag, value)` that is zero, as an error naming the flag.
pub(crate) fn positive(fields: &[(&str, u64)]) -> Result<(), String> {
    match fields.iter().find(|&&(_, v)| v == 0) {
        Some((flag, _)) => Err(format!("{flag} must be at least 1")),
        None => Ok(()),
    }
}
