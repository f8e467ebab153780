//! Where the benchmark writes: `benchmark/out/` under the working directory
//! (the checkout root the driver runs from), and a per-process scratch
//! directory inside it for everything the engines put on disk.

use std::path::{Path, PathBuf};

/// `benchmark/out`, created on demand.  Refuses to run from anywhere but
/// the repository root, so nothing is ever written outside the checkout.
pub fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root (no benchmark/Cargo.toml here)".to_string());
    }
    let out = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    Ok(out)
}

/// A scratch directory owned by this process, removed when dropped —
/// which covers every exit path, because `main` returns its exit code
/// instead of calling `process::exit` while one is alive, and a panic
/// unwinds through it.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create(label: &str) -> Result<Self, String> {
        let path = out_dir()?.join(format!("scratch-{}-{label}", std::process::id()));
        // A previous process with this pid may have been killed mid-run.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
