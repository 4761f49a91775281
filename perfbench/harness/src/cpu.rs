//! The process's CPU clock, and the host's steal time.
//!
//! The single-threaded SAIM workloads time their work on the CPU clock
//! rather than on the wall clock. On an idle dedicated host the two agree
//! for single-threaded work; on a shared virtual machine the CPU clock
//! leaves out the time the hypervisor runs other guests on this guest's
//! vCPUs (steal time, which Linux keeps out of task CPU time when built
//! with `CONFIG_PARAVIRT_TIME_ACCOUNTING`), so a busy neighbour does not
//! read as a slower program.
//!
//! Multi-threaded work is timed on the wall clock instead, since CPU time
//! summed over threads cannot tell parallel work from serial work; such
//! runs report the steal share measured over them ([`Steal`]), so a run
//! slowed by a busy neighbour can be told from a slower program.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed, over all its threads.
pub fn process_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) and the clock id is a valid constant, so the call only
    // writes inside `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds `f` consumed, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = process_seconds();
    let out = f();
    (out, process_seconds() - start)
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Steal seconds summed over every CPU since boot, from the `cpu` line of
/// `/proc/stat`; `None` where the file or the field is missing.
fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal ...
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / USER_HZ)
}

/// Steal time over a stretch of wall time.
pub struct Steal {
    start: Option<f64>,
    wall: std::time::Instant,
}

impl Steal {
    pub fn start() -> Steal {
        Steal {
            start: steal_seconds(),
            wall: std::time::Instant::now(),
        }
    }

    /// Share of the CPUs' time since [`Steal::start`] that the hypervisor
    /// gave to other guests, %; `None` when the host does not report it.
    pub fn pct(&self) -> Option<f64> {
        let stolen = steal_seconds()? - self.start?;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        Some(100.0 * stolen / (self.wall.elapsed().as_secs_f64() * cpus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_advances_the_clock_and_sleep_does_not() {
        let (_, busy) = timed(|| {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed().as_millis() < 50 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        });
        assert!(busy > 0.02, "{busy}");
        let (_, idle) = timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(idle < 0.02, "{idle}");
    }
}
