//! Restricting the whole process to one CPU.
//!
//! The serve workloads run client and server threads in one process.
//! Left unpinned on a small shared host, the same binary flips between
//! two throughput levels depending on whether a client and its worker
//! happen to share a core (cross-CPU wake-ups), which measures the
//! scheduler, not the program. Pinned, every hand-off is a same-core
//! context switch, every time.

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered CPU it is currently allowed on (CPU 0 takes most
/// interrupts on small VMs). Returns the CPUs the process is restricted to
/// afterwards: one id on success, empty where pinning is unsupported or
/// refused, in which case the run goes on unpinned and says so.
pub fn pin_to_one_cpu() -> Vec<usize> {
    imp::pin()
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t` is 1024 bits on Linux.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin() -> Vec<usize> {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the
        // byte size passed; pid 0 names the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        let Some(cpu) = (0..WORDS * 64)
            .rev()
            .find(|&c| allowed[c / 64] & (1u64 << (c % 64)) != 0)
        else {
            return Vec::new();
        };
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the byte size passed,
        // only read by the call; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        if rc == 0 {
            vec![cpu]
        } else {
            Vec::new()
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin() -> Vec<usize> {
        Vec::new()
    }
}
