//! Per-client quotas: a row-rate token bucket.
//!
//! The engine's credit gate is *shared* backpressure — when the task queue
//! saturates, every producer's `INSERT` acks slow down together. Without a
//! per-client bound, one hot client can monopolise the shared credits and
//! starve everyone else's ingest. The token bucket bounds each client's
//! sustained row rate: the application charges the bucket after decoding an
//! `INSERT`, the bucket may go negative (a single batch is never split or
//! rejected), and while it is negative the event loop simply stops reading
//! from that connection — throttling propagates to the client as TCP
//! backpressure, exactly like the credit gate, but scoped to the one
//! connection that earned it.

use std::time::{Duration, Instant};

/// A token bucket over "rows per second", allowed to go negative.
#[derive(Debug)]
pub struct TokenBucket {
    /// Refill rate in rows per second; `None` disables the quota.
    rate: Option<f64>,
    /// Maximum positive balance (burst capacity) in rows.
    burst: f64,
    /// Current balance in rows; negative means the client is in debt and
    /// the loop must pause reads until the balance recovers.
    level: f64,
    /// When `level` was last brought up to date.
    refilled: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rows_per_sec` with `burst` rows of headroom;
    /// `None` builds a disabled bucket that never throttles.
    pub fn new(rows_per_sec: Option<u64>, burst: u64) -> TokenBucket {
        TokenBucket {
            rate: rows_per_sec.map(|r| r.max(1) as f64),
            burst: (burst.max(1)) as f64,
            level: (burst.max(1)) as f64,
            refilled: Instant::now(),
        }
    }

    fn refill(&mut self, now: Instant) {
        let Some(rate) = self.rate else { return };
        let dt = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.refilled = now;
        self.level = (self.level + dt * rate).min(self.burst);
    }

    /// Debits `rows` tokens at time `now` and reports whether the bucket
    /// is now in debt. The balance may go negative — the charge always
    /// succeeds; the *next* read is what gets delayed. A disabled bucket is
    /// never in debt.
    pub fn charge(&mut self, rows: u64, now: Instant) -> bool {
        if self.rate.is_none() {
            return false;
        }
        self.refill(now);
        self.level -= rows as f64;
        self.level < 0.0
    }

    /// Time until the balance is non-negative again: `None` means "not
    /// throttled", `Some(d)` means reads should stay paused for `d`.
    pub fn throttle_for(&mut self, now: Instant) -> Option<Duration> {
        let rate = self.rate?;
        self.refill(now);
        if self.level >= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64(-self.level / rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bucket_never_throttles() {
        let mut bucket = TokenBucket::new(None, 1);
        let now = Instant::now();
        bucket.charge(u64::MAX / 2, now);
        assert_eq!(bucket.throttle_for(now), None);
    }

    #[test]
    fn charge_reports_debt_only_from_an_enabled_bucket() {
        let now = Instant::now();
        let mut disabled = TokenBucket::new(None, 1);
        assert!(!disabled.charge(u64::MAX / 2, now));
        assert!(!disabled.charge(1, now));
        let mut bucket = TokenBucket::new(Some(1000), 10);
        assert!(!bucket.charge(10, now), "the burst is not debt");
        assert!(bucket.charge(1, now), "one row past the burst is");
        assert!(bucket.charge(1, now), "and it stays in debt");
    }

    #[test]
    fn burst_is_free_then_debt_throttles_proportionally() {
        let mut bucket = TokenBucket::new(Some(1000), 500);
        let t0 = Instant::now();
        // The burst allowance goes through without throttling.
        bucket.charge(500, t0);
        assert_eq!(bucket.throttle_for(t0), None);
        // 1500 rows beyond the (now empty) bucket at 1000 rows/s → ~1.5 s.
        bucket.charge(1500, t0);
        let wait = bucket.throttle_for(t0).expect("in debt");
        assert!(
            wait > Duration::from_millis(1400) && wait < Duration::from_millis(1600),
            "{wait:?}"
        );
        // After the computed wait the bucket has recovered.
        let later = t0 + wait + Duration::from_millis(10);
        assert_eq!(bucket.throttle_for(later), None);
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut bucket = TokenBucket::new(Some(100), 50);
        let t0 = Instant::now();
        bucket.charge(50, t0);
        // A long idle period refills to the burst cap, not beyond it.
        let much_later = t0 + Duration::from_secs(3600);
        bucket.charge(50, much_later);
        assert_eq!(bucket.throttle_for(much_later), None);
        bucket.charge(51, much_later);
        assert!(bucket.throttle_for(much_later).is_some());
    }
}
