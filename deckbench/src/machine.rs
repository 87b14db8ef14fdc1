//! Machine context recorded with every result, so records from different
//! boxes can be read against each other. It is recorded, never compared.

use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub workers: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub commit: String,
    /// Millions of iterations per second of [`calibration_loop`].
    pub calib_mops: f64,
}

/// The worker count the benchmark pins its pools to: two, or fewer on a
/// smaller machine.
fn pinned_workers(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

impl Machine {
    pub fn probe() -> Machine {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let cache = |index: u32| {
            std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
            ))
            .map_or_else(|_| "unknown".into(), |size| size.trim().to_string())
        };
        Machine {
            nproc,
            workers: pinned_workers(nproc),
            cpu_model,
            l2: cache(2),
            l3: cache(3),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            calib_mops: calibration_score(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"machine\": {{\"nproc\": {}, \"workers\": {}, \"cpu_model\": \"{}\", \"l2\": \"{}\", \
             \"l3\": \"{}\", \"commit\": \"{}\", \"calib_mops\": {}}}}}",
            self.nproc,
            self.workers,
            escape(&self.cpu_model),
            escape(&self.l2),
            escape(&self.l3),
            escape(&self.commit),
            self.calib_mops
        )
    }
}

fn escape(text: &str) -> String {
    text.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; `None` outside a checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}

/// A fixed dependent chain of integer and floating-point work.
fn calibration_loop(iterations: u64) -> f64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0.0_f64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64);
    }
    acc
}

/// Best of five timings of a 4M-iteration [`calibration_loop`], in millions
/// of iterations per second.
fn calibration_score() -> f64 {
    const ITERATIONS: u64 = 4_000_000;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(calibration_loop(black_box(ITERATIONS)));
            ITERATIONS as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_are_pinned_to_at_most_two_and_at_least_one() {
        assert_eq!(pinned_workers(0), 1);
        assert_eq!(pinned_workers(1), 1);
        assert_eq!(pinned_workers(2), 2);
        assert_eq!(pinned_workers(64), 2);
    }

    #[test]
    fn the_context_line_is_one_json_object() {
        let line = Machine::probe().to_json();
        assert!(line.starts_with("{\"machine\": {") && line.ends_with("}}"));
        assert!(!line.contains('\n'));
    }
}
