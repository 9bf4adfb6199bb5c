//! Run context (git rev, cores, filesystem) and the benchmark's
//! on-disk working stores.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::onboard::{Ctx, Res};

/// Directory, relative to the working directory, under which each run
/// creates its own store root and removes it when done.
pub const STORE_DIR: &str = ".perfbench-stores";

/// Short git revision of the working directory, suffixed `-dirty`
/// when tracked files differ from it; `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let rev = git(&["rev-parse", "--short", "HEAD"])?;
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])?;
    Some(if dirty.is_empty() {
        rev
    } else {
        format!("{rev}-dirty")
    })
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// High-water resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type and mount point holding `path` (longest matching
/// mount in `/proc/self/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{kind} at {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, desc)| desc)
}

/// A run's private store root. Every store the run opens is a fresh
/// subdirectory of it; the root is removed when dropped.
#[derive(Debug)]
pub struct StoreRoot {
    root: PathBuf,
}

impl StoreRoot {
    /// Creates the root `<STORE_DIR>/<name>-<pid>`, refusing one that
    /// already holds anything: a reused refit store would restore old
    /// refits and skip the work being measured.
    pub fn create(name: &str) -> Res<Self> {
        let root = Path::new(STORE_DIR).join(format!("{name}-{}", std::process::id()));
        refuse_non_empty(&root)?;
        fs::create_dir_all(&root).ctx("create store root")?;
        Ok(StoreRoot { root })
    }

    /// The root directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty store directory `name` under the root.
    pub fn fresh(&self, name: &str) -> Res<PathBuf> {
        let dir = self.root.join(name);
        refuse_non_empty(&dir)?;
        fs::create_dir_all(&dir).ctx("create store")?;
        Ok(dir)
    }

    /// Removes store directory `name` and everything in it.
    pub fn remove(&self, name: &str) -> Res<()> {
        fs::remove_dir_all(self.root.join(name)).ctx("remove store")
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Leave the parent only if another run still uses it.
        let _ = fs::remove_dir(STORE_DIR);
    }
}

fn refuse_non_empty(dir: &Path) -> Res<()> {
    let occupied = fs::read_dir(dir).is_ok_and(|mut entries| entries.next().is_some());
    if occupied {
        return Err(format!(
            "refusing to start on non-empty store {}",
            dir.display()
        ));
    }
    Ok(())
}

/// Payload files in a checkpoint store directory (manifest, temp files
/// and the quarantine directory excluded).
pub fn store_entries(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                e.path().is_file() && !name.starts_with('.') && name != thermal_ckpt::MANIFEST_NAME
            })
            .count() as u64
    })
}
