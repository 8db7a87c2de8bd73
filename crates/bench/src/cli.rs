//! The argv reader every bench binary parses its flags with.
//!
//! Each binary keeps its own flag vocabulary and validation; [`Args`]
//! only walks the arguments, pulls flag values, and returns a
//! [`CliError`] instead of exiting, so each binary maps an error to its
//! own `usage()` (exit 2) and the parsing itself stays testable.
//!
//! ```text
//! let mut a = Args::from_env();
//! while let Some(flag) = a.next_flag() {
//!     match flag.as_str() {
//!         "--runs" => o.runs = a.parse_with(|s| s.parse().ok().filter(|&n| n >= 1))?,
//!         "--app" => o.app = a.app()?,
//!         _ => return Err(a.unknown()),
//!     }
//! }
//! ```

use ompx_hecbench::{ProgVersion, System, APP_NAMES};
use std::fmt;
use std::str::FromStr;

/// Why an argument list was rejected.
#[derive(Debug, PartialEq)]
pub enum CliError {
    /// A flag that takes a value came last.
    Missing { flag: String },
    /// A flag's value did not parse or failed the binary's validation.
    Invalid { flag: String, value: String },
    /// An argument the binary does not know.
    Unknown { arg: String },
    /// A whole-command constraint (`need --app or --fixture`).
    Usage(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Missing { flag } => write!(f, "{flag} needs a value"),
            CliError::Invalid { flag, value } => write!(f, "bad value {value:?} for {flag}"),
            CliError::Unknown { arg } => write!(f, "unknown argument {arg:?}"),
            CliError::Usage(msg) => f.write_str(msg),
        }
    }
}

/// A cursor over the command-line arguments.
pub struct Args {
    items: Vec<String>,
    next: usize,
    flag: String,
}

impl Args {
    /// Walk `items` (the arguments after the program name).
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(items: I) -> Self {
        Args { items: items.into_iter().map(Into::into).collect(), next: 0, flag: String::new() }
    }

    /// The process's own arguments.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// The next argument, which becomes the current flag; `None` at the end.
    pub fn next_flag(&mut self) -> Option<String> {
        let arg = self.items.get(self.next)?.clone();
        self.next += 1;
        self.flag.clone_from(&arg);
        Some(arg)
    }

    /// Consume the next argument if it is exactly `word` (an optional
    /// leading subcommand such as `analyze extract`).
    pub fn eat(&mut self, word: &str) -> bool {
        let hit = self.items.get(self.next).is_some_and(|a| a == word);
        self.next += usize::from(hit);
        hit
    }

    /// The current flag's value.
    pub fn value(&mut self) -> Result<String, CliError> {
        let v = self.items.get(self.next).cloned();
        let v = v.ok_or_else(|| CliError::Missing { flag: self.flag.clone() })?;
        self.next += 1;
        Ok(v)
    }

    /// The current flag's value mapped by `f`; `None` is an invalid value.
    pub fn parse_with<T>(&mut self, f: impl FnOnce(&str) -> Option<T>) -> Result<T, CliError> {
        let v = self.value()?;
        f(&v).ok_or_else(|| CliError::Invalid { flag: self.flag.clone(), value: v })
    }

    /// The current flag's value parsed as `T`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, CliError> {
        self.parse_with(|s| s.parse().ok())
    }

    /// The error for the current flag when the binary does not know it.
    pub fn unknown(&self) -> CliError {
        CliError::Unknown { arg: self.flag.clone() }
    }

    /// `--app NAME`: one of [`APP_NAMES`].
    pub fn app(&mut self) -> Result<&'static str, CliError> {
        self.parse_with(app_named)
    }

    /// `--system nvidia|amd`.
    pub fn system(&mut self) -> Result<System, CliError> {
        self.parse_with(system_named)
    }

    /// `--version ompx|omp|native|vendor`.
    pub fn version(&mut self) -> Result<ProgVersion, CliError> {
        self.parse_with(version_named)
    }
}

/// The benchmark app called `name`.
pub fn app_named(name: &str) -> Option<&'static str> {
    APP_NAMES.iter().copied().find(|a| *a == name)
}

/// The system called `name` (`nvidia` or `amd`).
pub fn system_named(name: &str) -> Option<System> {
    match name {
        "nvidia" => Some(System::Nvidia),
        "amd" => Some(System::Amd),
        _ => None,
    }
}

/// The program version called `name` on the command line.
fn version_named(name: &str) -> Option<ProgVersion> {
    match name {
        "ompx" => Some(ProgVersion::Ompx),
        "omp" => Some(ProgVersion::Omp),
        "native" => Some(ProgVersion::Native),
        "vendor" => Some(ProgVersion::NativeVendor),
        _ => None,
    }
}

/// Write `content` to `path`, creating parent directories; on failure
/// print `tool: cannot write …` and exit 2.
pub fn write_file(tool: &str, path: &str, content: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("{tool}: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature binary vocabulary, parsed the way the real ones are.
    fn parse(argv: &[&str]) -> Result<(u32, Option<System>, Vec<&'static str>), CliError> {
        let mut a = Args::new(argv.iter().copied());
        let (mut runs, mut system, mut seen) = (1, None, Vec::new());
        while let Some(flag) = a.next_flag() {
            match flag.as_str() {
                "--runs" => runs = a.parse_with(|s| s.parse().ok().filter(|&n| n >= 1))?,
                "--system" => system = Some(a.system()?),
                "--app" => seen.push(a.app()?),
                "--version" => {
                    a.version()?;
                }
                "--test-scale" => {}
                _ => return Err(a.unknown()),
            }
        }
        Ok((runs, system, seen))
    }

    #[test]
    fn flags_and_values_parse() {
        let got = parse(&["--runs", "3", "--test-scale", "--system", "amd", "--app", "su3"]);
        assert_eq!(got, Ok((3, Some(System::Amd), vec!["su3"])));
        assert_eq!(parse(&[]), Ok((1, None, vec![])));
        assert!(parse(&["--version", "vendor"]).is_ok());
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert_eq!(parse(&["--runs"]), Err(CliError::Missing { flag: "--runs".into() }));
        assert_eq!(
            parse(&["--test-scale", "--app"]),
            Err(CliError::Missing { flag: "--app".into() })
        );
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        assert_eq!(
            parse(&["--tolerance", "0.5"]),
            Err(CliError::Unknown { arg: "--tolerance".into() })
        );
        assert_eq!(parse(&["extract"]), Err(CliError::Unknown { arg: "extract".into() }));
    }

    #[test]
    fn bad_app_system_version_and_values_are_errors() {
        let invalid = |flag: &str, value: &str| {
            Err(CliError::Invalid { flag: flag.into(), value: value.into() })
        };
        assert_eq!(parse(&["--app", "lulesh"]), invalid("--app", "lulesh"));
        assert_eq!(parse(&["--system", "both"]), invalid("--system", "both"));
        assert_eq!(parse(&["--version", "cuda"]), invalid("--version", "cuda"));
        assert_eq!(parse(&["--runs", "0"]), invalid("--runs", "0"));
        assert_eq!(parse(&["--runs", "x"]), invalid("--runs", "x"));
    }

    #[test]
    fn eat_consumes_only_a_matching_subcommand() {
        let mut a = Args::new(["extract", "--diff"]);
        assert!(!a.eat("--diff"));
        assert!(a.eat("extract"));
        assert_eq!(a.next_flag().as_deref(), Some("--diff"));
        assert_eq!(a.next_flag(), None);
    }

    #[test]
    fn write_file_creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!("ompx-cli-{}", std::process::id()));
        let path = dir.join("a/b/out.json");
        write_file("test", path.to_str().unwrap(), "{}\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
