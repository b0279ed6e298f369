//! Process memory readings from `/proc/self` and CPU affinity.

extern "C" {
    /// glibc: return free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: read the calling thread's CPU affinity mask (`pid` 0).
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    /// glibc: set the calling thread's CPU affinity mask (`pid` 0).
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    /// glibc: set the calling thread's scheduling policy (`pid` 0).
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux `SCHED_IDLE`: run only when the CPU has nothing else to run.
const SCHED_IDLE: i32 = 5;

/// A CPU affinity mask of up to 1024 CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; 16]);

impl CpuMask {
    /// The CPUs in the mask, in increasing order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// A mask holding only `cpu`.
    pub fn single(cpu: usize) -> Self {
        let mut bits = [0u64; 16];
        bits[cpu / 64] = 1 << (cpu % 64);
        CpuMask(bits)
    }
}

/// The calling thread's CPU affinity, if it can be read.
pub fn affinity() -> Option<CpuMask> {
    let mut bits = [0u64; 16];
    // SAFETY: the kernel writes at most `size_of_val(&bits)` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&bits), bits.as_mut_ptr()) };
    (rc == 0).then_some(CpuMask(bits))
}

/// Bind the calling thread, and the threads it spawns afterwards, to the
/// CPUs in `mask`. Returns whether it worked.
pub fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: the kernel reads `size_of_val(&mask.0)` bytes of the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) == 0 }
}

/// Return freed heap memory to the operating system, then reset the
/// peak-RSS high-water mark (`VmHWM`) to the current RSS by writing `5`
/// to `/proc/self/clear_refs`, so the next reading covers only what runs
/// after this call. Returns whether the reset worked.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds unused; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since start or the last reset, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Move the calling thread to the `SCHED_IDLE` policy, under which it
/// runs only when its CPU would otherwise idle. Returns whether it
/// worked.
pub fn become_idle_priority() -> bool {
    let priority = 0i32;
    // SAFETY: the kernel reads one `int` (`sched_priority`) from `param`.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}
