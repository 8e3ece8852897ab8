//! Plain-text instance format, compatible with the OR-Library `mknap1`
//! layout:
//!
//! ```text
//! n m optimum        (optimum = 0 when unknown)
//! c_1 … c_n          (profits)
//! a_11 … a_1n        (one row per constraint)
//! …
//! a_m1 … a_mn
//! b_1 … b_m          (capacities)
//! ```
//!
//! Tokens may be separated by any whitespace including newlines, exactly as
//! in the published files.

use crate::instance::{Instance, InstanceError};
use std::fmt::Write as _;

/// Errors raised while parsing an instance file.
#[allow(missing_docs)] // field names are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Ran out of tokens while expecting `what`.
    UnexpectedEof { what: &'static str },
    /// A token failed to parse as an integer.
    BadToken { what: &'static str, token: String },
    /// Extra non-whitespace content after a complete instance.
    TrailingData { token: String },
    /// The parsed data failed instance validation.
    Invalid(InstanceError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input, expected {what}")
            }
            ParseError::BadToken { what, token } => write!(f, "cannot parse {what} from {token:?}"),
            ParseError::TrailingData { token } => {
                write!(f, "trailing data after instance: {token:?}")
            }
            ParseError::Invalid(e) => write!(f, "invalid instance data: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Pre-allocation cap for header-declared sizes (see `parse_instance`).
const CAP_HINT: usize = 1 << 16;

struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn next_i64(&mut self, what: &'static str) -> Result<i64, ParseError> {
        let token = self.iter.next().ok_or(ParseError::UnexpectedEof { what })?;
        token.parse().map_err(|_| ParseError::BadToken {
            what,
            token: token.to_string(),
        })
    }

    fn next_usize(&mut self, what: &'static str) -> Result<usize, ParseError> {
        let v = self.next_i64(what)?;
        usize::try_from(v).map_err(|_| ParseError::BadToken {
            what,
            token: v.to_string(),
        })
    }
}

/// Parse a single instance from text. `name` labels the result.
pub fn parse_instance(name: &str, text: &str) -> Result<Instance, ParseError> {
    let mut t = Tokens {
        iter: text.split_whitespace(),
    };
    let n = t.next_usize("n")?;
    let m = t.next_usize("m")?;
    let optimum = t.next_i64("optimum")?;
    // Capacity hints are capped: a corrupt header must not trigger a huge
    // allocation before the missing-token errors get a chance to fire.
    let mut profits = Vec::with_capacity(n.min(CAP_HINT));
    for _ in 0..n {
        profits.push(t.next_i64("profit")?);
    }
    let cells = n.saturating_mul(m);
    let mut weights = Vec::with_capacity(cells.min(CAP_HINT));
    for _ in 0..cells {
        weights.push(t.next_i64("weight")?);
    }
    let mut capacities = Vec::with_capacity(m.min(CAP_HINT));
    for _ in 0..m {
        capacities.push(t.next_i64("capacity")?);
    }
    if let Some(extra) = t.iter.next() {
        return Err(ParseError::TrailingData {
            token: extra.to_string(),
        });
    }
    let inst =
        Instance::new(name, n, m, profits, weights, capacities).map_err(ParseError::Invalid)?;
    Ok(if optimum > 0 {
        inst.with_best_known(optimum)
    } else {
        inst
    })
}

/// Parse a multi-instance file (the OR-Library convention: an instance
/// count followed by the concatenated instances). Instance `k` is named
/// `{name}#{k+1}`.
pub fn parse_instances(name: &str, text: &str) -> Result<Vec<Instance>, ParseError> {
    let mut t = Tokens {
        iter: text.split_whitespace(),
    };
    let count = t.next_usize("instance count")?;
    let mut out = Vec::with_capacity(count.min(CAP_HINT));
    for k in 0..count {
        let n = t.next_usize("n")?;
        let m = t.next_usize("m")?;
        let optimum = t.next_i64("optimum")?;
        let mut profits = Vec::with_capacity(n.min(CAP_HINT));
        for _ in 0..n {
            profits.push(t.next_i64("profit")?);
        }
        let cells = n.saturating_mul(m);
        let mut weights = Vec::with_capacity(cells.min(CAP_HINT));
        for _ in 0..cells {
            weights.push(t.next_i64("weight")?);
        }
        let mut capacities = Vec::with_capacity(m.min(CAP_HINT));
        for _ in 0..m {
            capacities.push(t.next_i64("capacity")?);
        }
        let inst = Instance::new(
            format!("{name}#{}", k + 1),
            n,
            m,
            profits,
            weights,
            capacities,
        )
        .map_err(ParseError::Invalid)?;
        out.push(if optimum > 0 {
            inst.with_best_known(optimum)
        } else {
            inst
        });
    }
    if let Some(extra) = t.iter.next() {
        return Err(ParseError::TrailingData {
            token: extra.to_string(),
        });
    }
    Ok(out)
}

/// Serialize several instances in the multi-instance layout accepted by
/// [`parse_instances`].
pub fn write_instances(instances: &[Instance]) -> String {
    let mut out = format!("{}\n", instances.len());
    for inst in instances {
        out.push_str(&write_instance(inst));
    }
    out
}

/// Serialize an instance in the `mknap1` layout. Round-trips with
/// [`parse_instance`].
pub fn write_instance(inst: &Instance) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} {} {}",
        inst.n(),
        inst.m(),
        inst.best_known().unwrap_or(0)
    );
    let join = |row: &[i64]| {
        row.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out, "{}", join(inst.profits()));
    for i in 0..inst.m() {
        let _ = writeln!(out, "{}", join(inst.constraint_row(i)));
    }
    let _ = writeln!(out, "{}", join(inst.capacities()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "3 2 16\n10 6 4\n5 4 3\n1 2 3\n8 4\n";

    #[test]
    fn parse_sample() {
        let inst = parse_instance("s", SAMPLE).unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.m(), 2);
        assert_eq!(inst.profits(), &[10, 6, 4]);
        assert_eq!(inst.constraint_row(1), &[1, 2, 3]);
        assert_eq!(inst.capacities(), &[8, 4]);
        assert_eq!(inst.best_known(), Some(16));
    }

    #[test]
    fn zero_optimum_means_unknown() {
        let text = "1 1 0\n5\n3\n10\n";
        let inst = parse_instance("u", text).unwrap();
        assert_eq!(inst.best_known(), None);
    }

    #[test]
    fn whitespace_is_flexible() {
        let text = "3   2\t16 10 6 4 5 4 3 1 2 3 8 4";
        let inst = parse_instance("w", text).unwrap();
        assert_eq!(inst.capacities(), &[8, 4]);
    }

    #[test]
    fn roundtrip() {
        let inst = parse_instance("rt", SAMPLE).unwrap();
        let text = write_instance(&inst);
        let back = parse_instance("rt", &text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn eof_error() {
        let err = parse_instance("e", "3 2 0 10 6").unwrap_err();
        assert!(matches!(err, ParseError::UnexpectedEof { what: "profit" }));
    }

    #[test]
    fn bad_token_error() {
        let err = parse_instance("e", "3 x 0").unwrap_err();
        assert!(matches!(err, ParseError::BadToken { what: "m", .. }));
    }

    #[test]
    fn trailing_data_error() {
        let text = format!("{SAMPLE} 99");
        let err = parse_instance("e", &text).unwrap_err();
        assert!(matches!(err, ParseError::TrailingData { .. }));
    }

    #[test]
    fn negative_data_rejected() {
        let err = parse_instance("e", "1 1 0\n-5\n3\n10\n").unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
    }

    #[test]
    fn data_that_could_overflow_is_rejected() {
        // A capacity of i64::MAX: `slack + 1` would overflow.
        let err = parse_instance("e", "3 1 0\n5 4 3\n1 1 1\n9223372036854775807\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Invalid(InstanceError::TooLarge { .. })),
            "{err}"
        );
        // Two weights of i64::MAX: packing both would wrap the load.
        let text = "2 1 0\n1 1\n9223372036854775807 9223372036854775807\n9223372036854775807\n";
        let err = parse_instance("e", text).unwrap_err();
        assert!(
            matches!(err, ParseError::Invalid(InstanceError::TooLarge { .. })),
            "{err}"
        );
    }

    #[test]
    fn error_messages_name_the_field() {
        let err = parse_instance("e", "2 1 0 1 2 3").unwrap_err();
        assert!(err.to_string().contains("weight"));
    }

    #[test]
    fn multi_instance_roundtrip() {
        let a = parse_instance("a", SAMPLE).unwrap();
        let b = parse_instance("b", "1 1 0\n5\n3\n10\n").unwrap();
        let text = write_instances(&[a.clone(), b.clone()]);
        let parsed = parse_instances("suite", &text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name(), "suite#1");
        assert_eq!(parsed[0].profits(), a.profits());
        assert_eq!(parsed[0].best_known(), Some(16));
        assert_eq!(parsed[1].capacities(), b.capacities());
        assert_eq!(parsed[1].best_known(), None);
    }

    #[test]
    fn multi_instance_empty_file() {
        assert_eq!(parse_instances("e", "0").unwrap().len(), 0);
    }

    #[test]
    fn multi_instance_truncation_detected() {
        // Claims two instances, provides one.
        let text = format!("2\n{SAMPLE}");
        assert!(matches!(
            parse_instances("t", &text),
            Err(ParseError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn absurd_header_sizes_error_without_allocating() {
        // A multi-terabyte claim must fail on missing tokens, not abort on
        // allocation.
        let err = parse_instance("h", "99999999999 99999999 0 1 2 3").unwrap_err();
        assert!(matches!(err, ParseError::UnexpectedEof { .. }));
        let err = parse_instances("h", "98765432109 3 2 0").unwrap_err();
        assert!(matches!(err, ParseError::UnexpectedEof { .. }));
    }

    mod fuzz {
        use super::*;
        use crate::prop_check;
        use crate::testkit::gen;

        /// The parser must never panic, whatever bytes arrive.
        #[test]
        fn prop_parser_never_panics() {
            prop_check!(|rng| gen::string_any(rng, 400), |text| {
                let _ = parse_instance("fuzz", text);
                let _ = parse_instances("fuzz", text);
            });
        }

        /// Random token streams of digits are also handled gracefully.
        #[test]
        fn prop_numeric_garbage_handled() {
            prop_check!(
                |rng| gen::vec_of(rng, 0, 60, |r| gen::i64_in(r, -1000, 1000)),
                |nums| {
                    let text = nums
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(" ");
                    let _ = parse_instance("fuzz", &text);
                    let _ = parse_instances("fuzz", &text);
                }
            );
        }
    }

    #[test]
    fn multi_instance_trailing_detected() {
        let text = format!("1\n{SAMPLE} 123");
        assert!(matches!(
            parse_instances("t", &text),
            Err(ParseError::TrailingData { .. })
        ));
    }
}
