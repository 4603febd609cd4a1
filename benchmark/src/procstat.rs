//! What the benchmark reads about its own process: CPU clocks, peak RSS and
//! the machine fingerprint.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit words
    // on every 64-bit Linux target this benchmark builds for) and both clock
    // ids are valid constants, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by every thread of this process so far. `/proc/self/stat`
/// only resolves 10 ms ticks; the POSIX clock is the same counter in ns.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU the system under test spent: the process total minus what the
/// benchmark's own generator and receiver threads burnt. Clamped at zero
/// (clock reads are not simultaneous).
pub fn system_cpu(process: Duration, generator_own: Duration, receiver: Duration) -> Duration {
    process
        .saturating_sub(generator_own)
        .saturating_sub(receiver)
}

fn status_field_kb(status: &str, field: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field_kb(&status, "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// `(nproc, cpu model, kernel)` for the result file.
pub fn machine() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    (nproc, model, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_cpu_subtracts_both_benchmark_threads_and_clamps() {
        let ms = Duration::from_millis;
        assert_eq!(system_cpu(ms(1000), ms(200), ms(50)), ms(750));
        assert_eq!(system_cpu(ms(100), ms(80), ms(50)), Duration::ZERO);
        assert_eq!(system_cpu(ms(100), Duration::ZERO, Duration::ZERO), ms(100));
    }

    #[test]
    fn thread_clock_advances_with_work_and_stays_below_the_process_clock() {
        let before = thread_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let spent = thread_cpu() - before;
        assert!(spent > Duration::ZERO);
        assert!(process_cpu() >= spent);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(status_field_kb(status, "VmHWM:"), Some(20480.0));
        assert_eq!(status_field_kb(status, "VmSwap:"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
