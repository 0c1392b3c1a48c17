//! Where a result was measured: a wall-clock number means nothing
//! without the machine, the toolchain and the commit that produced it.

use crate::json::escape;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The facts printed with every result.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Cores the process may run on.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

impl Environment {
    /// Probe the machine.
    #[must_use]
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu_model,
            rustc: first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit: first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// As a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.commit)
        )
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in kB; `0`
/// where `/proc` does not say.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size of this process right now, in kB (`VmRSS`); `0`
/// where `/proc` does not say.
#[must_use]
pub fn rss_kb() -> u64 {
    // /proc/self/statm counts pages; every Linux target this runs on
    // uses 4 kB pages for it
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|text| text.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4)
}

/// How often [`mean_rss_during`] samples.
pub const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Run `work` while a second thread samples this process's resident set
/// size; returns `work`'s result and the mean of the samples in kB.
pub fn mean_rss_during<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (mut sum, mut samples) = (0u64, 0u64);
            // SeqCst: the flag is all the threads share, its cost is nothing
            while !done.load(Ordering::SeqCst) {
                sum += rss_kb();
                samples += 1;
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
            sum as f64 / samples as f64
        });
        let out = work();
        done.store(true, Ordering::SeqCst);
        (out, sampler.join().expect("sampler thread panicked"))
    })
}
