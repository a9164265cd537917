//! Minimal argument parsing: positionals plus `--key value` flags.

use std::collections::HashMap;
use std::fmt;

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    pub positionals: Vec<String>,
    pub flags: HashMap<String, String>,
    /// Bare switches (`--json`).
    pub switches: Vec<String>,
}

/// Argument errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgError {
    MissingValue(String),
    BadNumber { flag: String, value: String },
    MissingPositional(&'static str),
    MissingFlag(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::BadNumber { flag, value } => {
                write!(f, "flag --{flag}: '{value}' is not a number")
            }
            ArgError::MissingPositional(name) => {
                write!(f, "missing argument: {name}")
            }
            ArgError::MissingFlag(name) => write!(f, "missing flag: --{name}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Switches that never take a value.
const SWITCHES: &[&str] = &[
    "json",
    "help",
    "pin-cores",
    "counters",
    "segment-counters",
    "serial",
    "first-touch",
    "per-worker-warmup",
    "trace",
    "adapt",
    "no-counters",
    "check",
    "history",
    "no-append",
];

impl Args {
    /// Parse raw arguments (excluding `argv[0]` and the subcommand). A
    /// flag whose value would be another `--flag` is an error, so an
    /// unknown switch cannot silently swallow the next argument.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    let value = iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                    args.flags.insert(name.to_string(), value);
                }
            } else if let Some(name) = a.strip_prefix("-o") {
                // `-o path` or `-opath`
                let value = if name.is_empty() {
                    iter.next()
                        .ok_or_else(|| ArgError::MissingValue("o".into()))?
                } else {
                    name.to_string()
                };
                args.flags.insert("out".into(), value);
            } else {
                args.positionals.push(a);
            }
        }
        Ok(args)
    }

    pub fn positional(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positionals
            .get(i)
            .map(|s| s.as_str())
            .ok_or(ArgError::MissingPositional(name))
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    pub fn required_u64(&self, name: &'static str) -> Result<u64, ArgError> {
        let v = self.flag(name).ok_or(ArgError::MissingFlag(name))?;
        v.parse().map_err(|_| ArgError::BadNumber {
            flag: name.to_string(),
            value: v.to_string(),
        })
    }

    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadNumber {
                flag: name.to_string(),
                value: v.to_string(),
            }),
        }
    }

    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn mixed_positionals_and_flags() {
        let a = parse(&["graph.json", "--m", "1024", "--b", "16", "--json"]);
        assert_eq!(a.positional(0, "graph").unwrap(), "graph.json");
        assert_eq!(a.required_u64("m").unwrap(), 1024);
        assert_eq!(a.u64_or("b", 8).unwrap(), 16);
        assert_eq!(a.u64_or("missing", 7).unwrap(), 7);
        assert!(a.has("json"));
        assert!(!a.has("help"));
    }

    #[test]
    fn output_flag_forms() {
        let a = parse(&["-o", "out.json"]);
        assert_eq!(a.flag("out"), Some("out.json"));
        let b = parse(&["-oout.json"]);
        assert_eq!(b.flag("out"), Some("out.json"));
    }

    #[test]
    fn missing_value_is_error() {
        let err = Args::parse(vec!["--m".to_string()]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("m".into()));
    }

    #[test]
    fn flag_value_that_is_a_flag_is_error() {
        // An unknown (say, since-removed) switch is parsed as a flag; it
        // must not swallow `--json` as its value.
        let words = ["g.json", "--m", "64", "--old-switch", "--json"];
        let err = Args::parse(words.iter().map(|s| s.to_string())).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("old-switch".into()));
        // Negative numbers and plain words are still values.
        let a = parse(&["--seed", "-3", "--name", "x"]);
        assert_eq!(a.flag("seed"), Some("-3"));
        assert_eq!(a.flag("name"), Some("x"));
    }

    #[test]
    fn bad_number_reported() {
        let a = parse(&["--m", "abc"]);
        assert!(matches!(
            a.required_u64("m"),
            Err(ArgError::BadNumber { .. })
        ));
    }

    #[test]
    fn missing_positional_and_flag() {
        let a = parse(&[]);
        assert_eq!(
            a.positional(0, "graph").unwrap_err(),
            ArgError::MissingPositional("graph")
        );
        assert_eq!(a.required_u64("m").unwrap_err(), ArgError::MissingFlag("m"));
    }
}
