//! What the benchmark needs from its host: CPU time and peak memory of
//! this process and of one child process, the pinned `ISF_*` environment,
//! and the stamp that keeps numbers from different machines, commits or
//! seeds apart.

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus};
use std::time::Duration;

use isf_obs::Json;

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `Rusage` matches the C layout of `struct rusage` on 64-bit
    // Linux and `usage` is a valid, writable, exclusively borrowed value.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/CHILDREN");
    usage
}

fn cpu_of(usage: &Rusage) -> Duration {
    let micros = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Duration::from_secs_f64(micros(usage.utime) + micros(usage.stime))
}

/// User + system CPU time this process has consumed (all threads).
pub fn self_cpu() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF))
}

/// Peak resident set size of this process, MiB.
pub fn self_peak_rss_mib() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

/// What one child process used, by its own accounting.
pub struct ChildUsage {
    /// How it exited.
    pub status: ExitStatus,
    /// Its user + system CPU time.
    pub cpu: Duration,
    /// Its peak resident set size, MiB.
    pub peak_rss_mib: f64,
}

/// Waits for `child` and returns its exit status and resource use. Taken
/// from `wait4` on its pid, so the figures are that process's alone:
/// `RUSAGE_CHILDREN` would fold in every child reaped before it (a cargo
/// build, say), and its peak RSS is the largest of them all.
pub fn wait_with_usage(child: Child) -> io::Result<ChildUsage> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, writable and exclusively
        // borrowed, and `Rusage` matches the C layout of `struct rusage`.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // Reaped: dropping the handle neither waits nor kills.
    drop(child);
    Ok(ChildUsage {
        status: ExitStatus::from_raw(status),
        cpu: cpu_of(&usage),
        peak_rss_mib: usage.maxrss as f64 / 1024.0,
    })
}

/// Values every child process runs under. The harness reads its defaults
/// from `ISF_*` variables, so a stray setting (say `ISF_FUSE=0` or
/// `ISF_PROFILE=1`) would silently change what is measured.
pub const PINNED_ENV: &[(&str, &str)] = &[("ISF_JOBS", "1"), ("ISF_LOG", "cells")];

/// Removes every `ISF_*` variable from this process's environment (the
/// libraries read some of them, children inherit all of them), then sets
/// [`PINNED_ENV`]. Returns the variables found and cleared. Must run
/// before any thread is spawned.
pub fn pin_env() -> Vec<(String, String)> {
    let mut cleared: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("ISF_"))
        .collect();
    cleared.sort();
    for (k, _) in &cleared {
        std::env::remove_var(k);
    }
    for (k, v) in PINNED_ENV {
        std::env::set_var(k, v);
    }
    cleared
}

/// 64-bit FNV-1a, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the program's sources (`crates/`, the workspace manifest and
/// lock file), so results are tied to the code that produced them even
/// where the checkout carries no git metadata.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, f| {
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
        let h = fnv1a(h, rel.as_bytes());
        fnv1a(h, &std::fs::read(f).unwrap_or_default())
    })
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Keep git from searching above the checkout for a repository.
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The stamp printed with every result: commit (or `unknown` outside a
/// git checkout) plus a source digest, host fingerprint, workload, seed
/// and the environment the measurement ran under.
pub fn stamp(workload: &str, seed: u64, trace: bool, cleared: &[(String, String)]) -> Json {
    let root = Path::new(".");
    Json::obj([
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_owned())
                .into(),
        ),
        (
            "source_digest",
            format!("{:016x}", source_digest(root)).into(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZeroUsize::get)
                .into(),
        ),
        ("cpu_model", cpu_model().into()),
        (
            "rustc",
            command_line("rustc", &["--version"])
                .unwrap_or_else(|| "unknown".to_owned())
                .into(),
        ),
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("trace", trace.into()),
        (
            "env_cleared",
            Json::Obj(
                cleared
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().into()))
                    .collect(),
            ),
        ),
        (
            "env_pinned",
            Json::Obj(
                PINNED_ENV
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), (*v).into()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Stdio;

    const RUSAGE_CHILDREN: i32 = -1;
    const HOG_MIB: usize = 96;

    /// The memory-hungry child process of the test below; does nothing
    /// unless `PERFBENCH_HOG` is set.
    #[test]
    #[ignore = "child process of a_large_earlier_child_does_not_change_the_reading"]
    fn hog() {
        if std::env::var_os("PERFBENCH_HOG").is_some() {
            std::hint::black_box(vec![1u8; HOG_MIB << 20]);
        }
    }

    #[test]
    fn a_large_earlier_child_does_not_change_the_reading() {
        let exe = std::env::current_exe().expect("test binary");
        let hog = Command::new(&exe)
            .args(["--exact", "sys::tests::hog", "--ignored", "--quiet"])
            .env("PERFBENCH_HOG", "1")
            .stdout(Stdio::null())
            .status()
            .expect("start the hog");
        assert!(hog.success());
        let all_children = rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0;
        assert!(all_children >= HOG_MIB as f64, "{all_children} MiB");
        let small = Command::new(&exe)
            .arg("--list")
            .stdout(Stdio::null())
            .spawn()
            .expect("start a small child");
        let usage = wait_with_usage(small).expect("wait4");
        assert!(usage.status.success());
        assert!(
            usage.peak_rss_mib > 0.0 && usage.peak_rss_mib < HOG_MIB as f64 / 2.0,
            "{} MiB",
            usage.peak_rss_mib
        );
    }
}
