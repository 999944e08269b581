//! Result rendering: the metrics line, the result file, the host
//! fingerprint and the order statistics the metrics are reported as.

use std::fmt::Write as _;
use std::process::Command;

/// Version of the result-file layout.
pub const SCHEMA_VERSION: u32 = 1;

/// One named metric with its unit and every sample it was derived from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Trace ops one replay of the workload simulates.
    pub ops: u64,
    /// Median calibration-kernel time over its nominal time, for runs
    /// whose times are normalized by it.
    pub host_slowdown: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed run or check.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A metric reported as the median of its samples.
    pub fn median(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: median(&samples),
            samples,
        });
    }

    /// A metric measured once or derived from other metrics.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: Vec::new(),
        });
    }

    /// Counts one attempted run or check, and its failure if `error` is
    /// set.
    pub fn attempt(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit of `v` (`null` is never needed: every
/// metric is finite by construction, and a non-finite one is written as
/// 0 so the line stays valid JSON).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The host a result was measured on.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub profile: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Stop git at the working directory's parent, so a checkout that
        // is not a repository reports "unknown" rather than the revision
        // of some enclosing repository.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.to_path_buf()))
            .unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            rustc: command_line(Command::new("rustc").arg("-V")),
            git_rev: command_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            ),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\"profile\":{}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.git_rev),
            json_string(self.profile)
        )
    }
}

/// First line of a command's standard output, or "unknown" when it
/// cannot run or fails.
fn command_line(cmd: &mut Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
