//! One argument-parsing surface for every experiment binary.
//!
//! `exp_sweep`, `paper_tables` and `exp_farm` all speak the same flag
//! dialect, defined once here: canonical names with legacy aliases
//! (`--workers` was born `--threads`, `--out-dir` was `--out`), `--flag
//! value` and `--flag=value` forms, positional arguments, and a generated
//! `--help`. The shared sweep-facing conveniences live on
//! [`ParsedArgs`] — [`ParsedArgs::runner`] builds the configured
//! [`SweepRunner`], [`ParsedArgs::out_dir`] resolves the artifact
//! directory — and [`resolve_spec`] turns a `spec.json` path or `@preset`
//! token into a validated [`SweepSpec`] the same way for every binary.

use std::collections::HashMap;
use std::path::PathBuf;

use crate::{presets, SweepRunner, SweepSpec};

/// One flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Canonical name (no leading `--`); the key [`ParsedArgs`] stores
    /// under whichever spelling arrived.
    pub name: &'static str,
    /// Accepted legacy spellings.
    pub aliases: &'static [&'static str],
    /// Whether the flag consumes a value (`--flag V` or `--flag=V`).
    pub takes_value: bool,
    /// One-line description for `--help`.
    pub help: &'static str,
}

/// `--workers N` (alias `--threads`): worker pool size.
pub const WORKERS: FlagSpec = FlagSpec {
    name: "workers",
    aliases: &["threads"],
    takes_value: true,
    help: "worker pool threads (default: all cores)",
};

/// `--out-dir DIR` (alias `--out`): artifact directory.
pub const OUT_DIR: FlagSpec = FlagSpec {
    name: "out-dir",
    aliases: &["out"],
    takes_value: true,
    help: "artifact directory (default: target/experiments)",
};

/// `--seeds N`: override the spec's seed count.
pub const SEEDS: FlagSpec = FlagSpec {
    name: "seeds",
    aliases: &[],
    takes_value: true,
    help: "seeds per cell (preset default: 5)",
};

/// `--quiet`: suppress progress output.
pub const QUIET: FlagSpec =
    FlagSpec { name: "quiet", aliases: &[], takes_value: false, help: "suppress progress output" };

/// `--addr HOST:PORT`: farm coordinator endpoint.
pub const ADDR: FlagSpec = FlagSpec {
    name: "addr",
    aliases: &[],
    takes_value: true,
    help: "coordinator address (default: 127.0.0.1:7700)",
};

/// `--list-presets`: print the `@preset` catalog and exit.
pub const LIST_PRESETS: FlagSpec = FlagSpec {
    name: "list-presets",
    aliases: &[],
    takes_value: false,
    help: "list the @preset names and exit",
};

/// The `--list-presets` output: one `@name  description` line per preset.
pub fn preset_listing() -> String {
    let mut out = String::new();
    for (name, desc) in presets::CATALOG {
        out.push_str(&format!("@{name:<13} {desc}\n"));
    }
    out
}

/// Renders the `--help` text: synopsis plus one line per flag.
pub fn usage(prog: &str, synopsis: &str, flags: &[FlagSpec]) -> String {
    let mut out = format!("usage: {prog} {synopsis}\n");
    for f in flags {
        let mut spelling = format!("--{}", f.name);
        for a in f.aliases {
            spelling.push_str(&format!(" | --{a}"));
        }
        if f.takes_value {
            spelling.push_str(" VALUE");
        }
        out.push_str(&format!("  {spelling:<28} {}\n", f.help));
    }
    out
}

/// The parsed command line: canonical-keyed flag values plus positionals.
#[derive(Debug, Default)]
pub struct ParsedArgs {
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

/// Parses `args` against `flags`. `--help`/`-h` short-circuits with the
/// usage text as the error, so binaries print it through their normal
/// error path.
///
/// # Errors
///
/// Unknown flags, missing values, and `--help`, each with the usage
/// appended.
pub fn parse<I>(
    prog: &str,
    synopsis: &str,
    flags: &[FlagSpec],
    args: I,
) -> Result<ParsedArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let find = |token: &str| flags.iter().find(|f| f.name == token || f.aliases.contains(&token));
    let mut parsed = ParsedArgs::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(usage(prog, synopsis, flags));
        }
        let Some(rest) = arg.strip_prefix("--") else {
            parsed.positionals.push(arg);
            continue;
        };
        let (name, inline) = match rest.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (rest, None),
        };
        let Some(flag) = find(name) else {
            return Err(format!("unknown flag --{name}\n{}", usage(prog, synopsis, flags)));
        };
        if flag.takes_value {
            let value = match inline {
                Some(v) => v,
                None => it.next().ok_or_else(|| format!("--{name} needs a value"))?,
            };
            parsed.values.insert(flag.name, value);
        } else {
            if inline.is_some() {
                return Err(format!("--{name} takes no value"));
            }
            parsed.switches.push(flag.name);
        }
    }
    Ok(parsed)
}

/// [`parse`] over the process arguments.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_env(prog: &str, synopsis: &str, flags: &[FlagSpec]) -> Result<ParsedArgs, String> {
    parse(prog, synopsis, flags, std::env::args().skip(1))
}

impl ParsedArgs {
    /// Whether `name` (canonical) was given, as switch or value.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name) || self.values.contains_key(name)
    }

    /// The raw value of `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `name` parsed as `T`.
    ///
    /// # Errors
    ///
    /// Describes the malformed value.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("bad --{name} {v:?}: {e}")))
            .transpose()
    }

    /// Positional (non-flag) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Exactly one positional argument, or an error built from `what`.
    ///
    /// # Errors
    ///
    /// Zero or several positionals.
    pub fn one_positional(&self, what: &str) -> Result<&str, String> {
        match self.positionals.as_slice() {
            [one] => Ok(one),
            [] => Err(format!("missing {what}")),
            more => Err(format!("expected one {what}, got {}", more.len())),
        }
    }

    /// `--out-dir` (default `target/experiments`).
    pub fn out_dir(&self) -> PathBuf {
        self.value("out-dir").map(PathBuf::from).unwrap_or_else(|| "target/experiments".into())
    }

    /// `--workers`, parsed.
    ///
    /// # Errors
    ///
    /// Malformed value.
    pub fn workers(&self) -> Result<Option<usize>, String> {
        self.parsed("workers")
    }

    /// `--seeds`, parsed and checked positive.
    ///
    /// # Errors
    ///
    /// Malformed or zero value.
    pub fn seeds(&self) -> Result<Option<usize>, String> {
        match self.parsed::<usize>("seeds")? {
            Some(0) => Err("--seeds must be positive".into()),
            other => Ok(other),
        }
    }

    /// A [`SweepRunner`] configured from `--workers` and `--quiet`.
    ///
    /// # Errors
    ///
    /// Malformed `--workers`.
    pub fn runner(&self) -> Result<SweepRunner, String> {
        let mut runner = SweepRunner::new().progress(!self.has("quiet"));
        if let Some(n) = self.workers()? {
            runner = runner.threads(n);
        }
        Ok(runner)
    }
}

/// Resolves a spec token — `@preset` or a `spec.json` path — applying the
/// `--seeds` override when given. The one spec-loading path every binary
/// shares.
///
/// # Errors
///
/// Unknown presets, unreadable files, and parse failures, described.
pub fn resolve_spec(token: &str, seeds: Option<usize>) -> Result<SweepSpec, String> {
    let mut spec = if let Some(preset) = token.strip_prefix('@') {
        presets::by_name(preset, seeds.unwrap_or(5))?
    } else {
        let text = std::fs::read_to_string(token).map_err(|e| format!("read {token}: {e}"))?;
        SweepSpec::parse(&text).map_err(|e| format!("parse {token}: {e}"))?
    };
    if let Some(n) = seeds {
        spec.seeds.count = n;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn canonical_and_alias_spellings_coincide() {
        for spelling in ["--workers", "--threads"] {
            let p = parse("t", "", &[WORKERS], argv(&[spelling, "8"])).unwrap();
            assert_eq!(p.workers().unwrap(), Some(8));
        }
        for spelling in ["--out-dir", "--out"] {
            let p = parse("t", "", &[OUT_DIR], argv(&[spelling, "x"])).unwrap();
            assert_eq!(p.out_dir(), PathBuf::from("x"));
        }
    }

    #[test]
    fn equals_form_switches_and_positionals() {
        let p = parse(
            "t",
            "",
            &[WORKERS, QUIET, SEEDS],
            argv(&["a.json", "--workers=4", "--quiet", "b.json", "--seeds", "3"]),
        )
        .unwrap();
        assert_eq!(p.workers().unwrap(), Some(4));
        assert!(p.has("quiet"));
        assert_eq!(p.seeds().unwrap(), Some(3));
        assert_eq!(p.positionals(), ["a.json", "b.json"]);
        assert!(p.one_positional("spec").is_err());
    }

    #[test]
    fn errors_are_described() {
        assert!(parse("t", "", &[WORKERS], argv(&["--nope"])).unwrap_err().contains("--nope"));
        assert!(parse("t", "", &[WORKERS], argv(&["--workers"]))
            .unwrap_err()
            .contains("needs a value"));
        let p = parse("t", "", &[WORKERS], argv(&["--workers", "many"])).unwrap();
        assert!(p.workers().unwrap_err().contains("bad --workers"));
        let p = parse("t", "", &[SEEDS], argv(&["--seeds", "0"])).unwrap();
        assert!(p.seeds().unwrap_err().contains("positive"));
        assert!(parse("t", "synopsis", &[WORKERS], argv(&["--help"]))
            .unwrap_err()
            .starts_with("usage: t synopsis"));
    }

    #[test]
    fn preset_listing_covers_the_catalog() {
        let listing = preset_listing();
        for (name, _) in presets::CATALOG {
            assert!(listing.contains(&format!("@{name}")), "listing missing @{name}");
            assert!(resolve_spec(&format!("@{name}"), Some(1)).is_ok());
        }
    }

    #[test]
    fn resolve_spec_handles_presets_and_seed_overrides() {
        let spec = resolve_spec("@smoke", None).unwrap();
        let overridden = resolve_spec("@smoke", Some(2)).unwrap();
        assert_eq!(overridden.name, spec.name);
        assert_eq!(overridden.seeds.count, 2);
        assert!(resolve_spec("@no_such_preset", None).is_err());
        assert!(resolve_spec("no/such/file.json", None).is_err());
    }
}
