//! Building with cargo, and spawning a child to measure its wall time and
//! peak RSS from `wait4`'s resource usage.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kibibytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How one child invocation ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Seconds from spawn until `wait4` returned.
    pub wall_s: f64,
    /// Peak resident set size in KiB (`ru_maxrss`).
    pub max_rss_kib: i64,
    /// The exit code, or `None` if a signal ended the child.
    pub code: Option<i32>,
}

/// Runs `bin args…` in `dir` with stdout and stderr sent to `dir/stdout.txt`
/// and `dir/stderr.txt`, and waits for it.
pub fn run_timed(bin: &Path, args: &[String], dir: &Path) -> Result<Exit, String> {
    let out = File::create(dir.join("stdout.txt")).map_err(|e| format!("stdout file: {e}"))?;
    let err = File::create(dir.join("stderr.txt")).map_err(|e| format!("stderr file: {e}"))?;
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    let reaped = loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage` are
        // live, writable, and laid out as the C `int` and `struct rusage`.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r != -1 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break r;
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    // The child is reaped here, so `child` must not be waited on again;
    // dropping a `Child` neither waits nor kills.
    drop(child);
    if reaped != pid {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        wall_s,
        max_rss_kib: usage.ru_maxrss,
        code,
    })
}

/// The cargo target directory: `$CARGO_TARGET_DIR` (relative to `root` when
/// relative), else `root/target`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// `cargo build --release` with the extra `args`, into `target`. Cargo's
/// messages go to stderr, so stdout keeps only the benchmark's own lines.
pub fn cargo_build(root: &Path, target: &Path, args: &[&str]) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(args)
        .arg("--target-dir")
        .arg(target)
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build {} failed ({status})", args.join(" ")))
    }
}
