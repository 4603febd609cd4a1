//! The benchmark's own seeded input: a pool of `Syn` rows whose timestamps
//! are rewritten to the global row index as batches are handed out, so the
//! program only ever sees one endless, strictly ordered stream.

use saber::types::RowBuffer;
use saber::workloads::synthetic;
use std::time::{Duration, Instant};

/// Bytes per `Syn` row.
pub const ROW: usize = synthetic::TUPLE_SIZE;
/// Upper limit on pool rows (the pool holds as many whole batches as fit);
/// 8 MB keeps the generator's footprint small next to the engine's 64 MB
/// rings and still spans the prefix the reference checks.
const MAX_POOL_ROWS: usize = 256 * 1024;

const A2_OFFSET: usize = 12;
/// `a2` is uniform in `[0, A2_RANGE)`; the select keeps `a2 < SELECT_BELOW`.
const A2_RANGE: u64 = 64;
const SELECT_BELOW: i32 = 32;

/// splitmix64: tiny, seedable, good enough for uniform column values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i32 {
        (self.next() % n) as i32
    }
}

pub struct Pool {
    bytes: Vec<u8>,
    batch_rows: usize,
    /// Rows of each pool batch the select statement keeps.
    passing: Vec<u32>,
}

impl Pool {
    /// `timestamp` = row index, `a1` uniform f32 in [0,1), `a2` uniform in
    /// [0,64), `a3..a6` uniform in [0,1024).
    pub fn generate(seed: u64, batch_rows: usize) -> Pool {
        let pool_rows = MAX_POOL_ROWS / batch_rows * batch_rows;
        let mut rng = Rng(seed ^ 0x5abe_5abe_5abe_5abe);
        let mut bytes = vec![0u8; pool_rows * ROW];
        for (i, row) in bytes.chunks_exact_mut(ROW).enumerate() {
            row[0..8].copy_from_slice(&(i as i64).to_le_bytes());
            let a1 = (rng.next() >> 40) as f32 / (1u32 << 24) as f32;
            row[8..12].copy_from_slice(&a1.to_le_bytes());
            row[12..16].copy_from_slice(&rng.below(A2_RANGE).to_le_bytes());
            for col in 0..4 {
                let at = 16 + 4 * col;
                row[at..at + 4].copy_from_slice(&rng.below(1024).to_le_bytes());
            }
        }
        let passing = bytes
            .chunks_exact(batch_rows * ROW)
            .map(|batch| {
                batch
                    .chunks_exact(ROW)
                    .filter(|row| a2_of(row) < SELECT_BELOW)
                    .count() as u32
            })
            .collect();
        Pool {
            bytes,
            batch_rows,
            passing,
        }
    }

    /// Whole batches the pool holds.
    pub fn slots(&self) -> u64 {
        self.passing.len() as u64
    }

    /// Batch `k` of the stream: rows `[k·batch_rows, (k+1)·batch_rows)`,
    /// timestamps rewritten to those indices.
    pub fn batch(&mut self, k: u64) -> &[u8] {
        let len = self.batch_rows * ROW;
        let at = (k % self.slots()) as usize * len;
        let first = k * self.batch_rows as u64;
        let batch = &mut self.bytes[at..at + len];
        for (i, row) in batch.chunks_exact_mut(ROW).enumerate() {
            row[0..8].copy_from_slice(&((first + i as u64) as i64).to_le_bytes());
        }
        batch
    }

    /// Output rows the select statement must emit for batches `0..batches`.
    pub fn select_rows_through(&self, batches: u64) -> u64 {
        let slots = self.slots();
        let per_cycle: u64 = self.passing.iter().map(|&p| u64::from(p)).sum();
        let tail: u64 = self.passing[..(batches % slots) as usize]
            .iter()
            .map(|&p| u64::from(p))
            .sum();
        (batches / slots) * per_cycle + tail
    }

    /// The first `rows` rows of the stream (untouched pool rows carry their
    /// index as timestamp already), for the reference computation.
    pub fn prefix(&mut self, rows: usize) -> RowBuffer {
        assert!(rows <= self.bytes.len() / ROW);
        for k in 0..rows.div_ceil(self.batch_rows) as u64 {
            self.batch(k);
        }
        RowBuffer::from_bytes(synthetic::schema(), self.bytes[..rows * ROW].to_vec())
            .expect("pool rows are whole Syn rows")
    }
}

fn a2_of(row: &[u8]) -> i32 {
    i32::from_le_bytes(row[A2_OFFSET..A2_OFFSET + 4].try_into().expect("4 bytes"))
}

/// A fixed-rate send schedule: batch `k` (counted from the schedule's first
/// batch) is due at `start + k·interval`, whatever happened to earlier ones.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    interval_ns: f64,
}

impl Schedule {
    pub fn new(start: Instant, rows_per_s: f64, batch_rows: usize) -> Schedule {
        Schedule {
            start,
            interval_ns: batch_rows as f64 / rows_per_s * 1e9,
        }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_nanos((k as f64 * self.interval_ns) as u64)
    }
}

/// Sleeps until `deadline`; returns at once when it has passed, so a late
/// generator catches up instead of shifting the schedule.
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts_of(row: &[u8]) -> i64 {
        i64::from_le_bytes(row[0..8].try_into().unwrap())
    }

    #[test]
    fn same_seed_same_rows_and_columns_stay_in_range() {
        let mut a = Pool::generate(7, 1024);
        let mut b = Pool::generate(7, 1024);
        let mut c = Pool::generate(8, 1024);
        assert_eq!(a.batch(3), b.batch(3));
        assert_ne!(a.batch(3), c.batch(3));
        let mut passing = 0;
        for row in a.batch(0).chunks_exact(ROW) {
            let a1 = f32::from_le_bytes(row[8..12].try_into().unwrap());
            assert!((0.0..1.0).contains(&a1));
            assert!((0..64).contains(&a2_of(row)));
            passing += usize::from(a2_of(row) < 32);
            for col in 0..4 {
                let at = 16 + 4 * col;
                let v = i32::from_le_bytes(row[at..at + 4].try_into().unwrap());
                assert!((0..1024).contains(&v));
            }
        }
        assert_eq!(a.select_rows_through(1), passing as u64);
    }

    #[test]
    fn timestamps_are_the_global_row_index_across_pool_cycles() {
        let mut pool = Pool::generate(1, 12 * 1024);
        let slots = pool.slots();
        assert_eq!(slots, 21);
        let k = 3 * slots + 5;
        let first = k * 12 * 1024;
        let batch = pool.batch(k);
        assert_eq!(ts_of(&batch[..ROW]), first as i64);
        assert_eq!(
            ts_of(&batch[batch.len() - ROW..]),
            (first + 12 * 1024 - 1) as i64
        );
        let per_cycle = pool.select_rows_through(slots);
        assert_eq!(
            pool.select_rows_through(2 * slots + 1),
            2 * per_cycle + pool.select_rows_through(1)
        );
    }

    #[test]
    fn prefix_restores_first_cycle_timestamps() {
        let mut pool = Pool::generate(1, 1024);
        pool.batch(pool.slots() + 2); // overwrites slot 2
        let prefix = pool.prefix(3000);
        assert_eq!(prefix.len(), 3000);
        for (i, row) in prefix.iter().enumerate() {
            assert_eq!(row.timestamp(), i as i64);
        }
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let start = Instant::now();
        let s = Schedule::new(start, 1.0e6, 1000);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(5) - start, Duration::from_millis(5));
    }
}
