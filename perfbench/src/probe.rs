//! Process-level instruments: `/proc` readers for CPU time, page faults and
//! peak memory, and the summary statistics the report uses.

/// Process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// User CPU seconds so far (all threads).
    pub user_s: f64,
    /// System CPU seconds so far (all threads).
    pub sys_s: f64,
    /// Minor page faults so far.
    pub minflt: u64,
}

impl Sample {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Reads the counters now.
    pub fn now() -> Self {
        let (user_s, sys_s, minflt) = cpu_times();
        Self {
            user_s,
            sys_s,
            minflt,
        }
    }

    /// Counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: &Sample) -> Sample {
        Sample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

/// Linux reports CPU times in clock ticks of `USER_HZ`, which is 100 on
/// every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// `(user s, sys s, minor faults)` of this process from `/proc/self/stat`,
/// zeros where it cannot be read.
fn cpu_times() -> (f64, f64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0, 0);
    };
    // Fields after the parenthesised command name start at field 3 (state).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0, 0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields.get(n - 3).and_then(|f| f.parse().ok()).unwrap_or(0) };
    (
        field(14) as f64 / TICKS_PER_S,
        field(15) as f64 / TICKS_PER_S,
        field(10),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile (0..=1) of `values` with linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quartile spread of `values` as a share of their median; 0 for fewer
/// than two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m
}
