//! File discovery: every `crates/*/src/**/*.rs` under the repo root.
//!
//! The walk is sorted at every level, so the file list — and therefore
//! the finding order even before the final sort — is independent of
//! filesystem enumeration order. Test directories (`crates/*/tests/`)
//! are deliberately out of scope: they host fixtures (including this
//! crate's deliberately-violating ones) and client-side test drivers.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Repo-relative (`/`-separated) paths of every lintable file, sorted.
#[expect(clippy::disallowed_methods, reason = "the linter walks the source tree it audits")]
pub fn lintable_files(root: &Path) -> io::Result<Vec<String>> {
    let crates = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    let mut files = Vec::new();
    for member in members {
        let src = member.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

/// Append every `*.rs` file under `dir` to `out`, sorted at every level.
#[expect(clippy::disallowed_methods, reason = "the linter walks the source tree it audits")]
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Walk upward from `start` to the workspace root: the first directory
/// holding both `Cargo.toml` and a `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
