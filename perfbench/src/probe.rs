//! The benchmark's only readers of the machine: wall time (through
//! criterion's `WallTime`, the workspace's sanctioned clock), process CPU
//! time and peak resident memory (`getrusage`), and an allocation counter
//! (the binary's global allocator).

use criterion::measurement::WallTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `System` plus an allocation odometer, so `*_allocs` metrics are exact
/// counts. Reallocations count as allocations, as in the repository's
/// perf gate. The odometer runs only once [`count_allocations`] is
/// called: the traced run counts, while timed end-to-end bodies keep
/// their worker threads off the shared counter's cache line.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Starts the allocation odometer for the rest of the process.
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

fn tick() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the flag and counter are statistics that publish no other
// data, and neither allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `body` and returns its result with elapsed wall seconds.
pub fn timed<O>(body: impl FnOnce() -> O) -> (O, f64) {
    WallTime::time(body)
}

/// `struct timeval` of the Linux LP64 ABI.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux LP64 ABI: two timevals, then fourteen
/// `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    other: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the platform's
    // layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

/// User plus system CPU seconds of every thread of the process so far.
pub fn cpu_s() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident memory of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Wall and CPU seconds of one call, plus its result.
pub struct Measured<O> {
    pub out: O,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `body`, measuring its wall time and the CPU time the whole
/// process (every worker thread included) spent during it.
pub fn measure<O>(body: impl FnOnce() -> O) -> Measured<O> {
    let cpu0 = cpu_s();
    let (out, wall_s) = timed(body);
    Measured {
        out,
        wall_s,
        cpu_s: cpu_s() - cpu0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_move_forward_and_count_allocations() {
        count_allocations();
        let before = allocs();
        let m = measure(|| {
            let v: Vec<u64> = (0..200_000).collect();
            v.iter().sum::<u64>()
        });
        assert_eq!(m.out, 199_999 * 200_000 / 2);
        assert!(m.wall_s > 0.0);
        assert!(m.cpu_s >= 0.0);
        assert!(allocs() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
