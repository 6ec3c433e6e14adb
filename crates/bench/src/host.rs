//! The host stamp every committed `results/BENCH_*.json` file carries:
//! cores, build profile and the measured tree's git revision.

use dtnflow_obs::BenchHost;

/// The working directory's git revision, suffixed `-dirty` when the
/// tree has uncommitted changes ("unknown" outside a checkout or without
/// git).
fn git_revision() -> String {
    std::process::Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=40",
            "--exclude=*",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The measuring host: cores available to this process, the build
/// profile, and the git revision of the working directory.
pub fn bench_host() -> BenchHost {
    BenchHost {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_owned(),
        git_revision: git_revision(),
    }
}
