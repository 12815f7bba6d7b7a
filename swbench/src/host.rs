//! Facts about the host a run was measured on, read from `/proc`.

use serde_json::{json, Value};

/// Snapshot of host load, taken at the start and end of a run so a
/// reader can tell a quiet run from one that shared the machine.
pub struct HostLoad {
    /// 1, 5 and 15 minute load averages.
    pub loadavg: [f64; 3],
    /// Cumulative `steal` ticks of the aggregate `cpu` line of
    /// `/proc/stat` (time the hypervisor gave this VM's CPUs away).
    pub steal_ticks: u64,
}

impl HostLoad {
    /// Read the current load; missing files read as zeros.
    pub fn now() -> Self {
        let mut loadavg = [0.0; 3];
        if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
            for (slot, field) in loadavg.iter_mut().zip(text.split_whitespace()) {
                *slot = field.parse().unwrap_or(0.0);
            }
        }
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|t| {
                let cpu = t.lines().find(|l| l.starts_with("cpu "))?;
                cpu.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        Self {
            loadavg,
            steal_ticks,
        }
    }

    /// JSON form for the result file.
    pub fn to_json(&self) -> Value {
        json!({"loadavg": self.loadavg.to_vec(), "steal_ticks": self.steal_ticks})
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
