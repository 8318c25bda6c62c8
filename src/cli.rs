//! Typed command-line flag parsing for `mars-cli`.
//!
//! The binary's flags all follow the same `--key value` / `--switch`
//! grammar; this module parses that grammar once and layers typed
//! accessors on top so every command rejects malformed values with an
//! error naming the flag ("invalid value 'abc' for --budget") instead
//! of silently substituting a default. [`COMMAND_FLAGS`] lists what
//! each command reads; [`Flags::parse_for`] refuses everything else, so
//! a typo or a removed flag cannot run as if it meant something.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// The flags `config_from_flags` in the binary resolves into a
/// `MarsConfig`; every command that builds a config reads all of them.
const CONFIG_FLAGS: &[&str] = &[
    "profile",
    "dgi-iters",
    "eval-threads",
    "no-eval-cache",
    "max-eval-retries",
    "eval-timeout-s",
    "auto-checkpoint",
];

/// Every flag each `mars-cli` command reads, as groups of names. A
/// flag a command starts reading is added here, or the command refuses
/// it.
pub const COMMAND_FLAGS: &[(&str, &[&[&str]])] = &[
    ("inspect", &[&["profile"]]),
    ("train", &[CONFIG_FLAGS, &["agent", "budget", "seed", "save", "telemetry", "fault-plan"]]),
    ("pretrain", &[CONFIG_FLAGS, &["seed", "save", "telemetry"]]),
    ("trace", &[&["profile", "placement"]]),
    ("dot", &[&["profile", "max-nodes"]]),
    ("evaluate", &[CONFIG_FLAGS, &["placement", "seed", "fault-plan"]]),
    ("place", &[&["profile", "connect", "top-k", "repeat", "fail-device", "shutdown"]]),
    (
        "serve",
        &[
            CONFIG_FLAGS,
            &["listen", "seed", "devices", "cache-capacity", "max-requests"],
            &["checkpoint", "store", "telemetry"],
        ],
    ),
    (
        "bench-gate",
        &[
            &["current", "baseline", "min-ratio"],
            &["kernels", "kernels-baseline", "min-kernel-ratio", "only"],
            &["serve", "serve-baseline", "min-serve-ratio"],
        ],
    ),
    ("metrics summarize", &[]),
    ("metrics tail", &[&["lines", "follow"]]),
    ("metrics flame", &[]),
];

/// Parsed `--key value` / `--switch` command-line flags.
///
/// Use the typed accessors ([`Flags::parsed`], [`Flags::parsed_opt`],
/// [`Flags::switch`]) rather than reading raw values: they produce
/// uniform, user-facing error strings for malformed input.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    map: HashMap<String, String>,
}

impl Flags {
    /// Parse raw arguments. A flag followed by another `--flag` (or by
    /// nothing) is a boolean switch, e.g. `--no-eval-cache`; bare
    /// positional tokens are ignored (the caller consumes those first).
    pub fn parse(args: &[String]) -> Flags {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(value) => {
                        map.insert(key.to_string(), value.clone());
                        i += 2;
                    }
                    None => {
                        map.insert(key.to_string(), String::new());
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        Flags { map }
    }

    /// [`Flags::parse`] for `command`, refusing any flag it does not
    /// read ([`COMMAND_FLAGS`]) with an error naming both. A command
    /// missing from the table is the caller's error to report.
    pub fn parse_for(command: &str, args: &[String]) -> Result<Flags, String> {
        let flags = Flags::parse(args);
        let Some((_, groups)) = COMMAND_FLAGS.iter().find(|(c, _)| *c == command) else {
            return Ok(flags);
        };
        let reads = |key: &str| groups.iter().any(|g| g.contains(&key));
        // The smallest, not the first: map order differs between runs.
        match flags.map.keys().map(String::as_str).filter(|k| !reads(k)).min() {
            None => Ok(flags),
            Some(key) => {
                let known: Vec<String> =
                    groups.iter().flat_map(|g| g.iter()).map(|k| format!("--{k}")).collect();
                let known =
                    if known.is_empty() { "no flags".to_string() } else { known.join(", ") };
                Err(format!("unknown flag --{key} for '{command}' (it reads {known})"))
            }
        }
    }

    /// Raw string value of `--key`, if present (empty for switches).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Was `--key` given at all (with or without a value)?
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// `--key value` parsed as `T`, or `default` when absent.
    /// Malformed or missing values are errors, never silent defaults.
    pub fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parsed_opt(key)?.unwrap_or(default))
    }

    /// `--key value` parsed as `T`, `None` when the flag is absent.
    pub fn parsed_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some("") => Err(format!("missing value for --{key}")),
            Some(v) => v.parse().map(Some).map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// `--key value` restricted to an allow-list of spellings; returns
    /// the matched spelling (so callers can `match` on `&'static str`).
    pub fn one_of(
        &self,
        key: &str,
        allowed: &[&'static str],
        default: &'static str,
    ) -> Result<&'static str, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => allowed.iter().copied().find(|a| *a == v).ok_or_else(|| {
                format!("invalid value '{v}' for --{key} (expected one of: {})", allowed.join(", "))
            }),
        }
    }

    /// A boolean switch: present with no value → `true`, absent →
    /// `false`. Giving a switch a value is an error — it is the most
    /// common way to typo a flag (`--no-eval-cache yes`).
    pub fn switch(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(false),
            Some("") => Ok(true),
            Some(v) => Err(format!("--{key} is a switch and takes no value (got '{v}')")),
        }
    }

    /// `--key value` kept as a string, `None` when absent; an empty
    /// value is an error (a path-taking flag with nothing after it).
    pub fn string_opt(&self, key: &str) -> Result<Option<String>, String> {
        match self.get(key) {
            None => Ok(None),
            Some("") => Err(format!("missing value for --{key}")),
            Some(v) => Ok(Some(v.to_string())),
        }
    }
}

/// Print a flag error to stderr and map it to a failing exit code.
/// All commands funnel their `Result<(), String>` through this.
pub fn fail(err: impl Display) -> std::process::ExitCode {
    eprintln!("error: {err}");
    std::process::ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_values_and_switches() {
        let f = flags(&["--budget", "100", "--no-eval-cache", "--seed", "7"]);
        assert_eq!(f.parsed("budget", 0usize).unwrap(), 100);
        assert_eq!(f.parsed("seed", 0u64).unwrap(), 7);
        assert!(f.switch("no-eval-cache").unwrap());
        assert!(!f.switch("absent").unwrap());
    }

    #[test]
    fn absent_flag_yields_default() {
        let f = flags(&[]);
        assert_eq!(f.parsed("budget", 400usize).unwrap(), 400);
        assert_eq!(f.parsed_opt::<u64>("seed").unwrap(), None);
    }

    #[test]
    fn malformed_value_is_an_error_naming_the_flag() {
        let f = flags(&["--budget", "lots"]);
        let err = f.parsed("budget", 0usize).unwrap_err();
        assert!(err.contains("'lots'") && err.contains("--budget"), "{err}");
    }

    #[test]
    fn switch_with_value_is_rejected() {
        let f = flags(&["--no-eval-cache", "yes"]);
        let err = f.switch("no-eval-cache").unwrap_err();
        assert!(err.contains("--no-eval-cache") && err.contains("'yes'"), "{err}");
    }

    #[test]
    fn valueless_value_flag_is_rejected() {
        let f = flags(&["--save", "--seed", "3"]);
        assert!(f.string_opt("save").unwrap_err().contains("--save"));
        assert_eq!(f.parsed("seed", 0u64).unwrap(), 3);
    }

    #[test]
    fn one_of_restricts_spellings() {
        let f = flags(&["--agent", "grouper"]);
        assert_eq!(f.one_of("agent", &["mars", "grouper"], "mars").unwrap(), "grouper");
        assert_eq!(f.one_of("profile", &["small", "full"], "small").unwrap(), "small");
        let bad = flags(&["--agent", "zeus"]);
        let err = bad.one_of("agent", &["mars", "grouper"], "mars").unwrap_err();
        assert!(err.contains("zeus") && err.contains("mars, grouper"), "{err}");
    }
}
