//! Minimal flag parsing: `--flag value` pairs and positionals, checked
//! against the flags the subcommand accepts.

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Parsed command-line arguments (after the subcommand).
#[derive(Debug, Default)]
pub struct Args {
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Splits the arguments of subcommand `command` into positionals,
    /// switches and `--flag value` pairs. `switches` (boolean, queried
    /// with [`Args::has`]) and `valued` (taking a value) list the flags
    /// `command` accepts, separated by spaces. Any other flag is an
    /// error naming the flag and the subcommand, so a misspelt or
    /// retired flag never runs silently with defaults.
    pub fn parse(
        argv: &[String],
        command: &str,
        switches: &str,
        valued: &str,
    ) -> Result<Self, String> {
        let lists = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a.starts_with('-') && a.len() > 1 {
                if lists(switches, a) {
                    args.switches.push(a.clone());
                    continue;
                }
                if !lists(valued, a) {
                    return Err(format!("unknown flag {a} for `{command}`"));
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag {a} needs a value"))?
                    .clone();
                args.flags.push((a.clone(), value));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|f| f == flag)
    }

    /// Last value of `flag`, if present.
    pub fn get(&self, flag: &str) -> Option<String> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.clone())
    }

    /// All values of a repeatable flag.
    pub fn get_all(&self, flag: &str) -> Vec<String> {
        self.flags
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// Numeric flag value.
    pub fn num(&self, flag: &str) -> Result<Option<u64>, String> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag {flag} expects a number, got {v}")),
        }
    }

    /// Numeric flag value that must lie in `range`. A value outside it,
    /// or too wide for `T`, is an error naming the flag and the range,
    /// never a wrapped or panicking value further down.
    pub fn num_in<T>(&self, flag: &str, range: RangeInclusive<T>) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd + Display,
    {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if range.contains(&n) => Ok(Some(n)),
                _ => Err(format!(
                    "flag {flag} expects a number in {}..={}, got {v}",
                    range.start(),
                    range.end()
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        Args::parse(&argv, "test", "--json", "--seed --watch --skip")
    }

    #[test]
    fn positionals_and_flags_mix() {
        let a = parse(&["file.dlrn", "--seed", "9", "--watch", "1", "--watch", "2"]).unwrap();
        assert_eq!(a.positional, vec!["file.dlrn"]);
        assert_eq!(a.num("--seed").unwrap(), Some(9));
        assert_eq!(a.num_in("--seed", 1..=9u32).unwrap(), Some(9));
        assert_eq!(a.get_all("--watch"), vec!["1", "2"]);
        assert_eq!(a.get("--missing"), None);
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["run.dlrn", "--json", "--skip", "static"]).unwrap();
        assert!(a.has("--json"));
        assert!(!a.has("--quiet"));
        assert_eq!(a.positional, vec!["run.dlrn"]);
        assert_eq!(a.get("--skip"), Some("static".to_string()));
    }

    #[test]
    fn dangling_flag_is_an_error() {
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse(&["--seed", "zebra"]).unwrap();
        assert!(a.num("--seed").is_err());
        let a = parse(&["--seed", "4294967296"]).unwrap();
        assert_eq!(
            a.num_in("--seed", 1..=u32::MAX).unwrap_err(),
            "flag --seed expects a number in 1..=4294967295, got 4294967296"
        );
    }

    #[test]
    fn unknown_flag_names_the_flag_and_the_command() {
        let err = parse(&["run.dlrn", "--sed", "5"]).unwrap_err();
        assert_eq!(err, "unknown flag --sed for `test`");
        // A switch of another command is still unknown here.
        assert!(parse(&["--verbose"]).is_err());
    }
}
