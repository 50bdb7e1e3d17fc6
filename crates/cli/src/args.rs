//! Minimal `--flag value` argument parsing shared by the subcommands.

#![warn(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};

use limba_workloads::Imbalance;

/// Parsed positional arguments, `--flag value` options, and bare
/// `--flag` switches.
#[derive(Debug, Clone, Default)]
pub(crate) struct Parsed {
    pub positional: Vec<String>,
    pub options: BTreeMap<String, String>,
    pub switches: BTreeSet<String>,
}

/// The flags one command accepts.
pub(crate) struct Flags {
    /// The command, as `limba <command>` names it.
    pub command: &'static str,
    /// Groups of flags that take a value.
    pub options: &'static [&'static [&'static str]],
    /// Groups of bare switches that take none (e.g. `--resume`).
    pub switches: &'static [&'static [&'static str]],
}

/// Splits `args` into positionals, `--flag value` options and bare
/// switches. A flag `flags` does not name is an error.
pub(crate) fn parse(args: &[String], flags: &Flags) -> Result<Parsed, String> {
    let named = |groups: &[&[&str]], flag: &str| groups.iter().any(|g| g.contains(&flag));
    let mut parsed = Parsed::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            if named(flags.switches, flag) {
                parsed.switches.insert(flag.to_string());
            } else if named(flags.options, flag) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{flag} expects a value"))?;
                parsed.options.insert(flag.to_string(), value.clone());
            } else {
                return Err(format!(
                    "unknown option --{flag} for limba {}; see limba help",
                    flags.command
                ));
            }
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl Parsed {
    /// The option's value parsed as `T`, or `default` when absent.
    pub(crate) fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.options.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{flag}")),
        }
    }

    /// The option's raw value, if present.
    pub(crate) fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(|s| s.as_str())
    }

    /// Whether a bare switch was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.switches.contains(flag)
    }
}

/// Parses an imbalance spec such as `linear:0.4` or `block:3,2.5`.
pub(crate) fn parse_imbalance(spec: &str) -> Result<Imbalance, String> {
    let (kind, params) = match spec.split_once(':') {
        Some((k, p)) => (k, p),
        None => (spec, ""),
    };
    let bad = || format!("invalid imbalance spec {spec:?}");
    match kind {
        "none" => Ok(Imbalance::None),
        "linear" => Ok(Imbalance::LinearSkew {
            spread: params.parse().map_err(|_| bad())?,
        }),
        "jitter" => Ok(Imbalance::RandomJitter {
            amplitude: params.parse().map_err(|_| bad())?,
        }),
        "block" => {
            let (heavy, factor) = params.split_once(',').ok_or_else(bad)?;
            Ok(Imbalance::BlockSkew {
                heavy: heavy.parse().map_err(|_| bad())?,
                factor: factor.parse().map_err(|_| bad())?,
            })
        }
        "hotspot" => {
            let (rank, factor) = params.split_once(',').ok_or_else(bad)?;
            Ok(Imbalance::Hotspot {
                rank: rank.parse().map_err(|_| bad())?,
                factor: factor.parse().map_err(|_| bad())?,
            })
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const FLAGS: Flags = Flags {
        command: "test",
        options: &[&["ranks"], &["iterations"]],
        switches: &[&["resume", "json"]],
    };

    #[test]
    fn parses_flags_and_positionals() {
        let p = parse(&strs(&["cfd", "--ranks", "8", "extra"]), &FLAGS).unwrap();
        assert_eq!(p.positional, vec!["cfd", "extra"]);
        assert_eq!(p.get("ranks"), Some("8"));
        assert_eq!(p.get_or("ranks", 16usize).unwrap(), 8);
        assert_eq!(p.get_or("iterations", 3usize).unwrap(), 3);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&strs(&["--ranks"]), &FLAGS).is_err());
        let p = parse(&strs(&["--ranks", "x"]), &FLAGS).unwrap();
        assert!(p.get_or::<usize>("ranks", 1).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let p = parse(&strs(&["--resume", "--ranks", "8", "--json"]), &FLAGS).unwrap();
        assert!(p.has("resume"));
        assert!(p.has("json"));
        assert!(!p.has("verbose"));
        assert_eq!(p.get("ranks"), Some("8"));
        // A trailing switch needs no value.
        assert!(parse(&strs(&["--resume"]), &FLAGS).is_ok());
    }

    #[test]
    fn unknown_flags_are_named() {
        for bad in [&["--rnaks", "4"][..], &["cfd", "--verbose"], &["--ranks=4"]] {
            let err = parse(&strs(bad), &FLAGS).unwrap_err();
            let flag = bad.iter().find(|a| a.starts_with("--")).unwrap();
            assert_eq!(
                err,
                format!("unknown option {flag} for limba test; see limba help")
            );
        }
    }

    #[test]
    fn imbalance_specs() {
        assert_eq!(parse_imbalance("none").unwrap(), Imbalance::None);
        assert_eq!(
            parse_imbalance("linear:0.4").unwrap(),
            Imbalance::LinearSkew { spread: 0.4 }
        );
        assert_eq!(
            parse_imbalance("block:3,2.5").unwrap(),
            Imbalance::BlockSkew {
                heavy: 3,
                factor: 2.5
            }
        );
        assert_eq!(
            parse_imbalance("hotspot:5,4").unwrap(),
            Imbalance::Hotspot {
                rank: 5,
                factor: 4.0
            }
        );
        assert_eq!(
            parse_imbalance("jitter:0.2").unwrap(),
            Imbalance::RandomJitter { amplitude: 0.2 }
        );
        assert!(parse_imbalance("zigzag:1").is_err());
        assert!(parse_imbalance("block:3").is_err());
        assert!(parse_imbalance("linear:x").is_err());
    }
}
