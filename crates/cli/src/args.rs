//! Minimal argument parsing: `--key value` flags and positionals, no
//! external dependency. Each subcommand declares the flags it understands;
//! unknown flags are reported with the valid set.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed invocation: positionals in order, flags by name.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Argument errors carry enough context for a one-line message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared without a value.
    MissingValue(String),
    /// A flag not in the accepted set.
    UnknownFlag {
        /// The offending flag.
        flag: String,
        /// Accepted flags for the subcommand.
        accepted: Vec<&'static str>,
    },
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
    },
    /// A required positional is missing.
    MissingPositional(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::UnknownFlag { flag, accepted } => {
                write!(f, "unknown flag --{flag}; accepted: ")?;
                for (i, a) in accepted.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "--{a}")?;
                }
                Ok(())
            }
            ArgError::BadValue { flag, value } => {
                write!(f, "cannot parse value {value:?} for --{flag}")
            }
            ArgError::MissingPositional(name) => write!(f, "missing <{name}>"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw arguments against the accepted flag set.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        accepted: &[&'static str],
    ) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(ArgError::UnknownFlag {
                        flag: name.to_string(),
                        accepted: accepted.to_vec(),
                    });
                }
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                out.flags.insert(name.to_string(), value);
            } else {
                out.positionals.push(token);
            }
        }
        Ok(out)
    }

    /// Positional at index, or an error naming it.
    pub fn positional(&self, index: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positionals
            .get(index)
            .map(String::as_str)
            .ok_or(ArgError::MissingPositional(name))
    }

    /// Number of positionals.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// Typed flag lookup with a default.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_opt(flag)?.unwrap_or(default))
    }

    /// Typed flag lookup, `None` when the flag is absent.
    pub fn get_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError> {
        self.flags
            .get(flag)
            .map(|raw| {
                raw.parse().map_err(|_| ArgError::BadValue {
                    flag: flag.to_string(),
                    value: raw.clone(),
                })
            })
            .transpose()
    }

    /// Raw flag value, if present.
    pub fn get_str(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = Args::parse(
            raw(&["file.mkp", "--seed", "7", "--p", "4"]),
            &["seed", "p"],
        )
        .unwrap();
        assert_eq!(a.positional_count(), 1);
        assert_eq!(a.positional(0, "file").unwrap(), "file.mkp");
        assert_eq!(a.get::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.get::<usize>("p", 1).unwrap(), 4);
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let a = Args::parse(raw(&[]), &["seed"]).unwrap();
        assert_eq!(a.get::<u64>("seed", 42).unwrap(), 42);
        assert!(a.get_str("seed").is_none());
    }

    #[test]
    fn unknown_flag_lists_accepted() {
        let err = Args::parse(raw(&["--bogus", "1"]), &["seed", "p"]).unwrap_err();
        match err {
            ArgError::UnknownFlag { flag, accepted } => {
                assert_eq!(flag, "bogus");
                assert_eq!(accepted, vec!["seed", "p"]);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn missing_value_detected() {
        let err = Args::parse(raw(&["--seed"]), &["seed"]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("seed".into()));
    }

    #[test]
    fn bad_value_detected() {
        let a = Args::parse(raw(&["--seed", "abc"]), &["seed"]).unwrap();
        assert!(matches!(
            a.get::<u64>("seed", 0),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn missing_positional_named() {
        let a = Args::parse(raw(&[]), &[]).unwrap();
        assert_eq!(
            a.positional(0, "instance"),
            Err(ArgError::MissingPositional("instance"))
        );
    }

    #[test]
    fn error_messages_read_well() {
        let e = ArgError::UnknownFlag {
            flag: "x".into(),
            accepted: vec!["a", "b"],
        };
        assert_eq!(e.to_string(), "unknown flag --x; accepted: --a, --b");
    }
}
