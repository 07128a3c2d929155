//! Peak resident memory, read from `/proc/<pid>/status`.

/// `VmHWM` of a process, in kB.
pub fn peak_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident memory of this process, in MB.
pub fn self_peak_mb() -> f64 {
    peak_kb(std::process::id()).unwrap_or(0) as f64 / 1024.0
}

/// Direct children of a process, found by their `PPid`.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let Some(child) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(format!("/proc/{child}/status")) else {
            continue;
        };
        let ppid = status
            .lines()
            .find_map(|l| l.strip_prefix("PPid:"))
            .and_then(|v| v.trim().parse::<u32>().ok());
        if ppid == Some(pid) {
            out.push(child);
        }
    }
    out.sort_unstable();
    out
}
