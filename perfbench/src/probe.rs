//! Host-speed probe. The benchmark host is shared: other tenants slow
//! every repetition by up to 2x in spells that last a minute or more, so
//! the median repetition of one run moves with the spell the run fell in.
//! A fixed loop, timed right before and right after every repetition,
//! measures how fast the host is at that moment, and host time is
//! reported scaled to a reference host speed. The loop is the
//! benchmark's own code, so a change to the program does not move it.

use std::hint::black_box;
use std::time::Instant;

/// Probe time, in milliseconds, that defines the reference host speed:
/// about the median on the baseline host (README.md). A repetition
/// bracketed by probes of exactly this time is reported unscaled.
pub const REFERENCE_MS: f64 = 66.0;

/// 8 MiB: larger than a core's L2, so the probe feels contention in
/// the shared cache and memory as the simulator does.
const TABLE_WORDS: usize = 1 << 21;
/// The L2-resident part of the table (1 MiB).
const NEAR_WORDS: usize = 1 << 18;
const STEPS: u32 = 1_200_000;

pub struct Probe {
    table: Vec<u32>,
    threads: usize,
}

impl Probe {
    /// A probe that runs its loop on `threads` threads at once, one per
    /// worker of the timed job.
    pub fn new(threads: usize) -> Probe {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x as u32
            })
            .collect();
        Probe {
            table,
            threads: threads.max(1),
        }
    }

    /// Host memory the probe holds, in MiB.
    pub fn resident_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Mean milliseconds of one loop over the probe's threads.
    pub fn time_ms(&self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| s.spawn(move || self.run(t as u64 + 1)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }

    /// Four independent streams of hashed table loads (one in four from
    /// the whole table, the rest from its L2-sized head) with
    /// data-dependent branches: wide issue, cache and memory, as in a
    /// cycle-level simulator.
    fn run(&self, seed: u64) -> f64 {
        let t = Instant::now();
        let mut s = [
            seed | 1,
            seed ^ 0xABCD,
            seed.rotate_left(17) | 4,
            seed.wrapping_mul(3) | 8,
        ];
        let mut acc = 0u64;
        for i in 0..STEPS {
            let mask = if i & 3 == 0 {
                TABLE_WORDS - 1
            } else {
                NEAR_WORDS - 1
            };
            for v in s.iter_mut() {
                *v = xorshift(*v);
                let word = self.table[(*v as usize) & mask];
                if word & 1 == 0 {
                    acc = acc.wrapping_add(u64::from(word));
                } else {
                    acc ^= *v;
                }
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// `wall` seconds at the reference host speed, given the probe times
/// right before and right after it.
pub fn scaled(wall: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall * REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_at_the_reference_time_leave_wall_time_unscaled() {
        assert_eq!(scaled(2.5, REFERENCE_MS, REFERENCE_MS), 2.5);
    }

    #[test]
    fn a_slower_host_scales_wall_time_down() {
        let s = scaled(3.0, 1.5 * REFERENCE_MS, 1.5 * REFERENCE_MS);
        assert!((s - 2.0).abs() < 1e-12);
    }
}
