//! Bounded retry with exponential backoff.
//!
//! A [`RetryPolicy`] fixes four knobs: the base delay, the backoff
//! factor, the overall deadline, and the whole-attempt restart budget the
//! recovery supervisor draws on. Its backoff schedule paces retries of
//! operations that give no wakeup — socket connects, for one — and its
//! deadline bounds every recovery wait.
//!
//! Waits on the key-value store do not back off: a rendezvous parks on
//! the store with [`KvStore::wait_until`](crate::KvStore::wait_until) and
//! wakes on the write it waits for. A backoff sleep would wake up to one
//! capped delay after that write (`cargo xtask verify` rejects such
//! polls in `swift-core`).

use std::time::{Duration, Instant};

/// Exponential-backoff schedule with an overall deadline and a restart
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Multiplier applied to the delay after each attempt (≥ 1.0).
    pub backoff: f64,
    /// Cap on any single delay.
    pub max_delay: Duration,
    /// Give up once this much time has elapsed in total.
    pub deadline: Duration,
    /// How many times a *whole recovery attempt* may be restarted after
    /// a cascading failure (`max_restarts + 1` attempts in total). Only
    /// the supervisor consults this; plain waits ignore it.
    pub max_restarts: u32,
}

impl RetryPolicy {
    /// Fast polling: sub-millisecond start, gentle growth, generous
    /// deadline. Its deadline is the bound on recovery rendezvous waits.
    pub const fn poll() -> Self {
        RetryPolicy {
            base_delay: Duration::from_micros(200),
            backoff: 1.5,
            max_delay: Duration::from_millis(10),
            deadline: Duration::from_secs(30),
            max_restarts: 0,
        }
    }

    /// Recovery-step retry: for re-running an idempotent recovery phase
    /// after a cascading failure. Starts slower and backs off harder so a
    /// crashed peer has time to be replaced between attempts, and grants
    /// the supervisor a small restart budget (Appendix B cascades).
    pub const fn recovery() -> Self {
        RetryPolicy {
            base_delay: Duration::from_millis(2),
            backoff: 2.0,
            max_delay: Duration::from_millis(250),
            deadline: Duration::from_secs(30),
            max_restarts: 4,
        }
    }

    /// Same schedule with a different overall deadline.
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Same schedule with a different restart budget.
    pub const fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// The per-attempt sleep for `attempt` (0-based), capped at
    /// [`max_delay`](Self::max_delay).
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let mult = self.backoff.powi(attempt.min(64) as i32);
        let d = self.base_delay.as_secs_f64() * mult;
        Duration::from_secs_f64(d.min(self.max_delay.as_secs_f64()))
    }

    /// Polls `cond` under the backoff schedule until it returns true or
    /// the deadline passes. Returns whether the condition was met.
    pub fn wait_until(&self, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            if cond() {
                return true;
            }
            if start.elapsed() >= self.deadline {
                return cond();
            }
            std::thread::sleep(self.delay_for(attempt));
            attempt += 1;
        }
    }

    /// Runs `op` until it succeeds or the deadline passes, sleeping the
    /// backoff schedule between attempts. `op` receives the attempt index.
    /// Returns the last error once the deadline is exceeded.
    pub fn retry<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if start.elapsed() >= self.deadline {
                        return Err(e);
                    }
                    std::thread::sleep(self.delay_for(attempt));
                    attempt += 1;
                }
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn delays_grow_and_cap() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(1),
            backoff: 2.0,
            max_delay: Duration::from_millis(4),
            deadline: Duration::from_secs(1),
            max_restarts: 0,
        };
        assert_eq!(p.delay_for(0), Duration::from_millis(1));
        assert_eq!(p.delay_for(1), Duration::from_millis(2));
        assert_eq!(p.delay_for(2), Duration::from_millis(4));
        assert_eq!(p.delay_for(10), Duration::from_millis(4));
    }

    #[test]
    fn wait_until_observes_flip() {
        let n = AtomicU32::new(0);
        let ok = RetryPolicy::poll().wait_until(|| n.fetch_add(1, Ordering::SeqCst) >= 3);
        assert!(ok);
        assert!(n.load(Ordering::SeqCst) >= 4);
    }

    #[test]
    fn wait_until_times_out() {
        let p = RetryPolicy::poll().with_deadline(Duration::from_millis(20));
        let t0 = Instant::now();
        assert!(!p.wait_until(|| false));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn retry_returns_first_success() {
        let p = RetryPolicy::recovery();
        let out: Result<u32, &str> =
            p.retry(|attempt| if attempt < 2 { Err("no") } else { Ok(attempt) });
        assert_eq!(out, Ok(2));
    }

    #[test]
    fn retry_surfaces_last_error_after_deadline() {
        let p = RetryPolicy::recovery().with_deadline(Duration::from_millis(15));
        let out: Result<(), u32> = p.retry(Err);
        assert!(out.is_err());
    }
}
