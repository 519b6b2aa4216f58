//! The benchmark's clocks.
//!
//! Every reported timing is **on-CPU time** of the measuring thread (or,
//! where worker threads do the work, of the whole process): on the 2-core
//! sandbox the wall-clock median of an unchanged workload moves ~17 %
//! between identical sets of repetitions while the on-CPU median moves
//! ~5 % (README "Clock"). Wall time is read only to honour `--seconds`
//! and to print beside the CPU numbers as information.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clk_id: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable, correctly laid-out `timespec`
    // (two 64-bit fields on every 64-bit Linux target, which the
    // compile-time check below pins), and `clock_gettime` writes nothing
    // else. Both clock ids are defined for every Linux process.
    let rc = unsafe { clock_gettime(clk_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark's CPU clocks and VmHWM reader assume 64-bit Linux");

/// On-CPU nanoseconds of the calling thread since it started.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU nanoseconds of the whole process (all threads).
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`, which the kernel reports in kB).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - t0;
        assert!(slept < 20_000_000, "sleeping is not on-CPU time, got {slept} ns");
        let t1 = thread_cpu_ns();
        let mut x = 0u64;
        while thread_cpu_ns() - t1 < 5_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ns() >= thread_cpu_ns() - t0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.5);
    }
}
