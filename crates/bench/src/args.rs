//! Tiny `key=value` argument parsing for the `repro` binary — enough to
//! override experiment parameters without pulling in a CLI framework.
//!
//! ```text
//! repro e1-rounds n=32 seeds=5000
//! repro fig1-trace n=6 schedule="p1@r1:mid-control/2"
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::str::FromStr;

/// Parsed `key=value` overrides (keys are case-sensitive).  Every lookup
/// is remembered, so a caller can refuse the keys nothing asked for.
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    map: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Overrides {
    /// Parses every `key=value` token; other tokens are ignored.
    pub fn from_args(args: &[String]) -> Self {
        let mut map = BTreeMap::new();
        for a in args {
            if let Some((k, v)) = a.split_once('=') {
                map.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
        Overrides {
            map,
            read: RefCell::default(),
        }
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.map.get(key).map(String::as_str)
    }

    /// The given keys no lookup has asked for so far, in key order: a
    /// misspelt key, or one the experiments that ran do not take.
    pub fn unread(&self) -> Vec<&str> {
        let read = self.read.borrow();
        self.map
            .keys()
            .filter(|key| !read.contains(key.as_str()))
            .map(String::as_str)
            .collect()
    }

    /// `usize` lookup with a default; a malformed value is an error
    /// naming its `key=value` token (CLI surface — refused before
    /// anything runs).
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        self.parsed_or(key, default)
    }

    /// `u64` lookup with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        self.parsed_or(key, default)
    }

    /// Comma-separated `usize` list with a default.
    pub fn usize_list_or(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        self.list_or(key, default)
    }

    /// Comma-separated `u64` list with a default.
    pub fn u64_list_or(&self, key: &str, default: &[u64]) -> Result<Vec<u64>, String> {
        self.list_or(key, default)
    }

    fn parsed_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{key}={v}`: expected an integer")),
        }
    }

    fn list_or<T: FromStr + Clone>(&self, key: &str, default: &[T]) -> Result<Vec<T>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => (v.split(','))
                .map(|p| {
                    (p.trim().parse())
                        .map_err(|_| format!("`{key}={v}`: bad list entry '{}'", p.trim()))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ov(args: &[&str]) -> Overrides {
        Overrides::from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_key_values_and_ignores_rest() {
        let o = ov(&["e1-rounds", "n=32", "--csv", "seeds=5000"]);
        assert_eq!(o.get("n"), Some("32"));
        assert_eq!(o.usize_or("n", 8), Ok(32));
        assert_eq!(o.u64_or("seeds", 10), Ok(5000));
        assert_eq!(o.usize_or("missing", 7), Ok(7));
    }

    #[test]
    fn lists() {
        let o = ov(&["sizes=4, 8,16"]);
        assert_eq!(o.usize_list_or("sizes", &[1]), Ok(vec![4, 8, 16]));
        assert_eq!(o.u64_list_or("ds", &[5]), Ok(vec![5]));
    }

    #[test]
    fn malformed_values_are_errors_naming_their_token() {
        let o = ov(&["n=banana", "sizes=4,x"]);
        let error = o.usize_or("n", 1).unwrap_err();
        assert!(error.contains("`n=banana`"), "{error}");
        let error = o.usize_list_or("sizes", &[1]).unwrap_err();
        assert!(
            error.contains("`sizes=4,x`") && error.contains("'x'"),
            "{error}"
        );
        assert!(o.u64_or("n", 1).is_err() && o.u64_list_or("sizes", &[1]).is_err());
    }

    #[test]
    fn unread_keys_are_the_ones_no_lookup_asked_for() {
        let o = ov(&["e1-rounds", "n=32", "N=5", "seeds=7"]);
        assert_eq!(o.unread(), ["N", "n", "seeds"]);
        let _ = o.usize_or("n", 8);
        let _ = o.u64_or("absent", 1);
        assert_eq!(o.unread(), ["N", "seeds"]);
        let _ = o.get("seeds");
        assert_eq!(o.unread(), ["N"]);
    }

    #[test]
    fn schedule_strings_pass_through() {
        let o = ov(&["schedule=p1@r1:mid-control/2"]);
        assert_eq!(o.get("schedule"), Some("p1@r1:mid-control/2"));
    }
}
