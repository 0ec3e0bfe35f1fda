//! The host a result came from: every result carries this fingerprint,
//! because the environment moves host-time numbers.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Host and build facts recorded next to every result.
#[derive(Clone, Debug)]
pub struct Host {
    /// Available parallelism as the process sees it.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on `PATH` (or `$RUSTC`).
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, when it is a git
    /// checkout.
    pub commit: String,
    /// Measured cost of one `Instant::now()` call, in nanoseconds.
    pub instant_now_ns: f64,
}

impl Host {
    /// Probe the current host.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            rustc: command_line(
                &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
                &["-V"],
            )
            .unwrap_or_else(|| "unavailable".into()),
            commit: git_commit().unwrap_or_else(|| "unavailable (not a git checkout)".into()),
            instant_now_ns: instant_now_ns(),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"instant_now_ns\":{:.2}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.commit),
            self.instant_now_ns
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory itself. Git may not
/// look above it: a checkout that is not a repository must not report the
/// commit of a repository that happens to contain it.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut git).filter(|c| c.len() == 40 && c.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// First stdout line of a command that exits successfully.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    first_line(Command::new(program).args(args))
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

/// Median over five rounds of the per-call cost of `Instant::now()`.
fn instant_now_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    crate::stats::median(&rounds)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
