//! Host-speed calibration.
//!
//! On a shared host the same replay runs up to ~1.7× faster or slower
//! from one minute to the next, as other tenants load the machine. A
//! fixed kernel of the benchmark's own, timed between replays, slows
//! down with them (its time tracks a replay's to within ~±7% where the
//! replay itself moves ±20%). The end-to-end times are divided by the
//! kernel's measured-to-nominal time ratio, so they read as they would
//! on the host at its nominal speed. The kernel shares no code with the
//! simulator, so a change to the simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per calibration.
const ITERATIONS: usize = 500_000;
/// 4 MiB of `u64`s: random accesses miss the host's L2, like the
/// simulator's cache and directory lookups.
const TABLE_WORDS: usize = 1 << 19;
/// The kernel's time on the host the benchmark was calibrated on (an
/// Intel Xeon at 2.1 GHz, 2 vCPUs), in seconds.
pub const NOMINAL_S: f64 = 0.0055;

/// The kernel's table, allocated once per process.
pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            table: vec![1; TABLE_WORDS],
        }
    }

    /// Runs the kernel once: xorshift-indexed read-modify-writes with a
    /// data-dependent branch. Returns its seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE_WORDS - 1);
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v.rotate_left(7);
            }
            self.table[i] = v.wrapping_mul(0x100_0000_01b3) ^ acc;
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}
