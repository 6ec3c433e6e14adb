//! The command line every harness binary shares: flags, positional
//! arguments, usage errors and the report files they write.
//!
//! Each binary keeps one exit-status contract: 0 when the run is ok, 1
//! when a check it runs fails (a bench regression, a diverged run, an
//! invalid trace), 2 on a usage error or an output it cannot write. A
//! usage error prints the binary's usage text. Output paths are created
//! and checked before any work starts, so a bad `--out` fails at once
//! instead of after a long run.

use crate::host::bench_host;
use dtnflow_obs::json::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;

/// A binary's arguments, read flag by flag. Reading a flag declares it;
/// [`Args::positionals`] ends the reading, and a flag still unread then
/// was never declared, which is a usage error.
pub struct Args {
    usage: String,
    rest: Vec<String>,
}

impl Args {
    /// This process's arguments; `usage` is printed with every usage
    /// error.
    pub fn from_env(usage: impl Into<String>) -> Args {
        Args::new(usage, std::env::args().skip(1).collect())
    }

    fn new(usage: impl Into<String>, rest: Vec<String>) -> Args {
        Args {
            usage: usage.into(),
            rest,
        }
    }

    /// Print `msg` and the usage text, then exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}");
        eprintln!("{}", self.usage);
        exit(2)
    }

    /// Remove flag `name` and return where it stood. A flag given twice
    /// is a usage error.
    fn take(&mut self, name: &str) -> Option<usize> {
        let i = self.rest.iter().position(|a| a == name)?;
        self.rest.remove(i);
        if self.rest[i..].iter().any(|a| a == name) {
            self.fail(&format!("{name} is given more than once"));
        }
        Some(i)
    }

    /// Whether the boolean flag `name` is given.
    pub fn switch(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// The value of flag `name`: the argument after it, unless that
    /// starts with `--`. A flag without a value is a usage error.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let i = self.take(name)?;
        match self.rest.get(i) {
            Some(v) if !v.starts_with("--") => Some(self.rest.remove(i)),
            _ => self.fail(&format!("{name} requires a value")),
        }
    }

    /// [`Args::value`] parsed as a `T`; a value that does not parse is a
    /// usage error.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        match v.parse() {
            Ok(t) => Some(t),
            Err(_) => self.fail(&format!(
                "{name} requires a {}, got `{v}`",
                std::any::type_name::<T>()
            )),
        }
    }

    /// The subcommand: the first argument, unless it is a flag.
    pub fn command(&mut self) -> Option<String> {
        match self.rest.first() {
            Some(a) if !a.starts_with("--") => Some(self.rest.remove(0)),
            _ => None,
        }
    }

    /// End the flags and return the positional arguments. A flag not
    /// read by now was never declared: a usage error.
    pub fn positionals(&mut self) -> Vec<String> {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with("--")) {
            self.fail(&format!("unknown flag `{flag}`"));
        }
        std::mem::take(&mut self.rest)
    }

    /// [`Args::positionals`], of which there must be exactly `N`.
    pub fn finish<const N: usize>(&mut self) -> [String; N] {
        let got = self.positionals();
        let n = got.len();
        got.try_into()
            .unwrap_or_else(|_| self.fail(&format!("expected {N} positional argument(s), got {n}")))
    }
}

/// Create the directory of output file `path` and check that `path` can
/// be written; exit 2 if not. An existing file is opened without
/// truncation and left as it was; a new one is removed again until the
/// report is written.
pub fn out_file(path: impl Into<PathBuf>) -> PathBuf {
    let path = path.into();
    let existed = path.exists();
    let opened = fs::create_dir_all(path.parent().unwrap_or(Path::new("")))
        .and_then(|()| fs::OpenOptions::new().append(true).create(true).open(&path));
    if let Err(e) = opened {
        unwritable(&path, e);
    }
    if !existed {
        let _ = fs::remove_file(&path);
    }
    path
}

/// Create the output directory `dir`; exit 2 if that fails.
pub fn out_dir(dir: impl Into<PathBuf>) -> PathBuf {
    let dir = dir.into();
    if let Err(e) = fs::create_dir_all(&dir) {
        unwritable(&dir, e);
    }
    dir
}

/// Write `contents` to `path`; exit 2 if it cannot be written.
pub fn write(path: &Path, contents: &str) {
    if let Err(e) = fs::write(path, contents) {
        unwritable(path, e);
    }
}

/// Write a `BENCH_*.json` report to `path` and say so: its `schema`,
/// the run mode (`quick` or `full`), the measuring host, then `fields`.
/// Exit 2 if it cannot be written.
pub fn write_bench(path: &Path, schema: &str, quick: bool, fields: Vec<(&str, Value)>) {
    let head = [
        ("schema", Value::str(schema)),
        ("mode", Value::str(if quick { "quick" } else { "full" })),
        ("host", bench_host().to_json_value()),
    ];
    let doc = Value::object(
        head.into_iter()
            .chain(fields)
            .map(|(k, v)| (k.to_owned(), v)),
    );
    write(path, &doc.render_pretty());
    println!("wrote {}", path.display());
}

/// Report an output that cannot be written, then exit 2.
pub fn unwritable(path: &Path, e: io::Error) -> ! {
    eprintln!("cannot write {}: {e}", path.display());
    exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new("usage: t", list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_are_read_wherever_they_stand() {
        let mut a = args(&[
            "gen", "x", "--seed", "7", "--quick", "--dx", "-1", "--out", "f",
        ]);
        assert_eq!(a.command().as_deref(), Some("gen"));
        assert!(a.switch("--quick"));
        assert!(!a.switch("--obs"));
        assert_eq!(a.parsed::<u64>("--seed"), Some(7));
        // Only a `--` argument is a flag, so `-1` is a value.
        assert_eq!(a.parsed::<i64>("--dx"), Some(-1));
        assert_eq!(a.value("--out").as_deref(), Some("f"));
        assert_eq!(a.value("--against"), None);
        assert_eq!(a.finish::<1>(), ["x"]);
        assert_eq!(args(&["--quick", "gen"]).command(), None);
    }

    #[test]
    fn out_file_keeps_an_existing_file_and_leaves_no_new_one() {
        let dir = std::env::temp_dir().join(format!("dtnflow-cli-test-{}", std::process::id()));
        let kept = dir.join("kept.json");
        fs::create_dir_all(&dir).unwrap();
        fs::write(&kept, "old").unwrap();
        assert_eq!(out_file(&kept), kept);
        assert_eq!(fs::read_to_string(&kept).unwrap(), "old");
        let fresh = dir.join("sub/new.json");
        assert_eq!(out_file(&fresh), fresh);
        assert!(fresh.parent().unwrap().is_dir() && !fresh.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
