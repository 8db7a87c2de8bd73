//! Process counters without extra crates: CPU time and peak RSS from
//! `/proc/self`, context switches from `getrusage`.
//!
//! `/proc/self/status` reports context switches for the main thread only,
//! and the simulator's lane threads exit at the end of every launch, so
//! their switches would be lost; `getrusage(RUSAGE_SELF)` keeps the totals
//! of exited threads. The C library is linked by `std` on Linux already.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc and the 64-bit Linux rusage layout");

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// on every architecture this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

impl ProcSample {
    /// Read the counters now.
    pub fn now() -> ProcSample {
        let (user_s, sys_s) = cpu_times();
        ProcSample { user_s, sys_s, ctx_switches: ctx_switches() }
    }

    /// Counter increase from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// User and system CPU seconds of the whole process, exited threads
/// included (fields 14 and 15 of `/proc/self/stat`).
fn cpu_times() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu(&stat).expect("/proc/self/stat has utime and stime")
}

/// Parse utime and stime out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces, so fields are counted after its
/// closing parenthesis.
fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name come state (field 3) … stime (field 15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime as f64 / TICKS_PER_S, stime as f64 / TICKS_PER_S))
}

/// Process high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
#[allow(dead_code)] // written by getrusage; only the switch counts are read
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
/// Index of `ru_nvcsw` in the fourteen longs after the timevals.
const NVCSW: usize = 12;
/// Index of `ru_nivcsw`.
const NIVCSW: usize = 13;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Voluntary plus involuntary context switches of every thread the
/// process has run, exited ones included.
fn ctx_switches() -> u64 {
    const _: () = assert!(std::mem::size_of::<Rusage>() == 144, "64-bit Linux rusage layout");
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the size assertion above), and
    // `RUSAGE_SELF` is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    (usage.longs[NVCSW] + usage.longs[NIVCSW]) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu(line), Some((2.5, 0.75)));
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
    }

    #[test]
    fn live_counters_are_sane() {
        let a = ProcSample::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = ProcSample::now().since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
