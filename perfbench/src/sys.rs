//! Process-level facts a run records: the CPU it is pinned to and its peak
//! resident set. Linux only (`sched_setaffinity`, `/proc/self/status`).

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a glibc `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Pins the calling thread to the highest-numbered CPU it may run on and
/// returns that CPU. Threads spawned afterwards inherit the mask, so called
/// first thing in `main` it pins the whole process: the load generator,
/// the in-process server and every pipeline thread.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the process may run on no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// One field of `/proc/self/status`, trimmed (`None` when absent).
fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key == name).then(|| value.trim().to_string())
    })
}

/// The CPUs the process may run on, as the kernel lists them (`"1"`).
pub fn cpus_allowed() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let field = status_field("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = field
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM {field:?}: {e}"))?;
    Ok(kib / 1024.0)
}
