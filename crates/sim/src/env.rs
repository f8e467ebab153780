//! The workspace's one `TWOSTEP_*` environment-knob policy.
//!
//! Every knob resolves the same way: unset means the default, silently;
//! a value its parser accepts is honored; anything else is **never
//! silently ignored** — one stderr line per variable per process names
//! the variable, the offending value and what happens instead, then the
//! default applies.  [`EnvKnob`] is that policy, written once; each knob
//! is one `const` naming its variable, its fallback text and its parser.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Keys already warned about in this process.
static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Prints `twostep: {message}` on stderr the first time `key` is seen in
/// this process; later calls with the same key are silent.
pub(crate) fn warn_once(key: &'static str, message: &str) {
    if WARNED.lock().expect("warn-once set poisoned").insert(key) {
        eprintln!("twostep: {message}");
    }
}

/// One environment knob: the variable's name, the text that finishes the
/// warning `NAME="raw" …` when the value is unusable, and the parser
/// deciding which (whitespace-trimmed) values are usable.
#[derive(Clone, Copy, Debug)]
pub struct EnvKnob<T> {
    /// The environment variable, e.g. `TWOSTEP_THREADS`.
    pub name: &'static str,
    /// What is wrong and what happens instead, e.g. `is not a step
    /// count; walks are unbounded`.
    pub fallback: &'static str,
    /// Accepts a trimmed value or rejects it with `None`.
    pub parse: fn(&str) -> Option<T>,
}

impl<T> EnvKnob<T> {
    /// The pure policy over the variable's raw value (`None` = unset):
    /// the resolved value, plus the warning a rejected value earns.
    /// Split from [`get`](Self::get) so it is testable without touching
    /// the process environment.
    pub fn resolve(&self, raw: Option<&str>) -> (Option<T>, Option<String>) {
        let Some(raw) = raw else {
            return (None, None);
        };
        match (self.parse)(raw.trim()) {
            Some(value) => (Some(value), None),
            None => (
                None,
                Some(format!("{}={raw:?} {}", self.name, self.fallback)),
            ),
        }
    }

    /// Resolves the knob from the process environment, warning once per
    /// process about a rejected value.
    pub fn get(&self) -> Option<T> {
        let (value, warning) = self.resolve(std::env::var(self.name).ok().as_deref());
        if let Some(warning) = warning {
            warn_once(self.name, &warning);
        }
        value
    }
}
