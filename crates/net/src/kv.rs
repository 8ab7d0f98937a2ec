//! A tiny global key-value store, co-located with rank 0 in the paper
//! (§6 "Failure detection"): workers publish the failure flag and other
//! small coordination facts here.
//!
//! Two backends share one handle type:
//!
//! - **Local**: an `Arc`'d map + condvar, cloned between threads — the
//!   in-process cluster's store, and the storage behind the supervisor's
//!   [`KvServer`](crate::kv_remote::KvServer).
//! - **Remote**: a Unix-socket client to a supervisor-hosted server,
//!   used by worker *processes* ([`KvStore::connect`]). Blocking waits
//!   poll; read-modify-write runs as a compare-and-swap retry loop.
//!
//! Every recovery rendezvous waits through [`KvStore::wait_until`]: a
//! local waiter wakes on the write that satisfies it, not on a backoff
//! timer (DESIGN.md, "Rendezvous waits").

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
#[cfg(test)]
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::clock::{self, Clock};
use crate::kv_remote::{self, RemoteKv};
use crate::retry::RetryPolicy;

/// Shared key-value store with blocking waits.
#[derive(Debug, Clone)]
pub struct KvStore {
    backend: Backend,
    /// Time source for [`wait_until`](KvStore::wait_until) deadlines
    /// (virtual under `swift-mc`, wall-clock everywhere else).
    clock: Arc<dyn Clock>,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            backend: Backend::default(),
            clock: clock::system(),
        }
    }
}

#[derive(Debug, Clone)]
enum Backend {
    Local(Arc<KvInner>),
    Remote(Arc<RemoteKv>),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Local(Arc::default())
    }
}

#[derive(Debug, Default)]
struct KvInner {
    map: Mutex<HashMap<String, String>>,
    cv: Condvar,
    /// Bumped under the map lock by every mutation, next to the
    /// `notify_all`: a waiter that sees it unchanged under the lock has
    /// missed no write and may park.
    version: AtomicU64,
}

impl KvInner {
    /// Publishes a mutation made under the (held) map lock.
    fn bump(&self) {
        self.version.fetch_add(1, Ordering::Release);
        self.cv.notify_all();
    }
}

/// Longest single condvar park of a local [`KvStore::wait_until`]. A
/// predicate may also read state that no KV write signals (a fail-stop
/// `check_self`, a lease); the slice bounds how late such a term is
/// seen. Wakeups on writes are immediate regardless.
const PARK_SLICE: Duration = Duration::from_millis(1);

/// Remote poll cadence for [`KvStore::wait_until`] (the local backend
/// parks on the condvar instead).
const REMOTE_WAIT_TICK: Duration = Duration::from_millis(2);

impl KvStore {
    /// Creates an empty local store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connects to a [`KvServer`](crate::kv_remote::KvServer) at `path`,
    /// retrying until the policy's deadline (the server may still be
    /// binding). Every operation on the returned handle is a socket
    /// round-trip to the hosting process's store.
    pub fn connect(path: &Path, retry: &RetryPolicy) -> io::Result<Self> {
        Ok(KvStore {
            backend: Backend::Remote(Arc::new(RemoteKv::connect(path, retry)?)),
            clock: clock::system(),
        })
    }

    /// This store with its [`wait_until`](KvStore::wait_until) deadlines
    /// measured on `clock`. The model checker installs a
    /// [`VirtualClock`](crate::clock::VirtualClock) so a blocked wait
    /// expires when the schedule advances time, not when the wall does.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Whether this handle is a remote client (worker-process side).
    pub fn is_remote(&self) -> bool {
        matches!(self.backend, Backend::Remote(_))
    }

    /// Sets `key` to `value`, waking any waiters.
    pub fn set(&self, key: &str, value: impl Into<String>) {
        match &self.backend {
            Backend::Local(inner) => {
                let mut m = inner.map.lock();
                m.insert(key.to_string(), value.into());
                inner.bump();
            }
            Backend::Remote(r) => {
                r.roundtrip(&kv_remote::encode_set(key, &value.into()));
            }
        }
    }

    /// Sorted snapshot of the whole store — the model checker's state
    /// fingerprint. Local backend only; a remote handle would need a
    /// server round-trip per key and has no enumeration protocol.
    pub fn dump(&self) -> Vec<(String, String)> {
        match &self.backend {
            Backend::Local(inner) => {
                let mut all: Vec<_> = inner
                    .map
                    .lock()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                all.sort();
                all
            }
            Backend::Remote(_) => Vec::new(),
        }
    }

    /// Current value of `key`, if any.
    pub fn get(&self, key: &str) -> Option<String> {
        match &self.backend {
            Backend::Local(inner) => inner.map.lock().get(key).cloned(),
            Backend::Remote(r) => r.roundtrip(&kv_remote::encode_get(key)).1,
        }
    }

    /// Removes `key`, returning its previous value.
    pub fn remove(&self, key: &str) -> Option<String> {
        match &self.backend {
            Backend::Local(inner) => {
                let mut m = inner.map.lock();
                let v = m.remove(key);
                inner.bump();
                v
            }
            Backend::Remote(r) => r.roundtrip(&kv_remote::encode_remove(key)).1,
        }
    }

    /// Blocks until `key` exists (or the timeout elapses), returning its
    /// value.
    pub fn wait_for(&self, key: &str, timeout: Duration) -> Option<String> {
        let mut found = None;
        self.wait_until(timeout, || {
            found = self.get(key);
            found.is_some()
        });
        found
    }

    /// Blocks until `cond` holds or `timeout` passes on this store's
    /// clock; returns whether it held. `cond` is evaluated outside the
    /// store lock, so it may read the store (and anything else).
    ///
    /// The local backend wakes on the write that satisfies `cond`: the
    /// waiter samples the mutation version, evaluates `cond`, and parks
    /// only if the version is unchanged under the lock — a write landing
    /// after the evaluation bumps the version (no park) or notifies the
    /// parked waiter, so no wakeup is lost. Parks last at most 1 ms,
    /// which bounds how late a term no KV write signals is seen. The
    /// remote backend polls every 2 ms.
    ///
    /// Under a [`VirtualClock`](crate::clock::VirtualClock) the wait
    /// expires when the schedule advances time past the deadline, not
    /// when the wall does.
    pub fn wait_until(&self, timeout: Duration, cond: impl FnMut() -> bool) -> bool {
        self.wait_sliced(timeout, PARK_SLICE, cond)
    }

    /// [`wait_until`](KvStore::wait_until) with the park slice as a
    /// parameter, so tests can park without a slice and catch a lost
    /// wakeup as a hang.
    fn wait_sliced(
        &self,
        timeout: Duration,
        slice: Duration,
        mut cond: impl FnMut() -> bool,
    ) -> bool {
        let deadline = self.clock.now() + timeout;
        loop {
            let seen = match &self.backend {
                Backend::Local(inner) => inner.version.load(Ordering::Acquire),
                Backend::Remote(_) => 0,
            };
            if cond() {
                return true;
            }
            let left = deadline.saturating_duration_since(self.clock.now());
            if left.is_zero() {
                return false;
            }
            match &self.backend {
                Backend::Local(inner) => {
                    let mut m = inner.map.lock();
                    if inner.version.load(Ordering::Acquire) == seen {
                        inner.cv.wait_for(&mut m, left.min(slice));
                    }
                }
                Backend::Remote(_) => self.clock.sleep(left.min(REMOTE_WAIT_TICK)),
            }
        }
    }

    /// Atomically replaces the value at `key` with `f(current)`.
    /// Returning `None` leaves the key unchanged; the final value (old
    /// or new) is returned. Used for idempotent failure declarations:
    /// concurrent detectors can union into the dead-rank list without
    /// losing ranks.
    ///
    /// The local backend holds the store lock across one invocation of
    /// `f`; the remote client runs a compare-and-swap loop, so `f` may
    /// run *several times* against fresh snapshots — it must be a pure
    /// function of its input (or tolerate re-execution) on handles that
    /// may be remote.
    pub fn update(
        &self,
        key: &str,
        mut f: impl FnMut(Option<&str>) -> Option<String>,
    ) -> Option<String> {
        match &self.backend {
            Backend::Local(inner) => {
                let mut m = inner.map.lock();
                let current = m.get(key).cloned();
                match f(current.as_deref()) {
                    Some(new) => {
                        m.insert(key.to_string(), new.clone());
                        inner.bump();
                        Some(new)
                    }
                    None => current,
                }
            }
            Backend::Remote(_) => {
                let mut current = self.get(key);
                loop {
                    match f(current.as_deref()) {
                        None => return current,
                        Some(new) => {
                            let (swapped, observed) =
                                self.cas(key, current.as_deref(), new.clone());
                            if swapped {
                                return Some(new);
                            }
                            // Lost the race: retry against the value that
                            // beat us.
                            current = observed;
                        }
                    }
                }
            }
        }
    }

    /// Compares the current value of `key` with `expected` and, when
    /// they match (`None` = absent), installs `new`. Returns `(swapped,
    /// current)` where `current` is the conflicting value on failure.
    pub fn cas(&self, key: &str, expected: Option<&str>, new: String) -> (bool, Option<String>) {
        match &self.backend {
            Backend::Local(inner) => {
                let mut m = inner.map.lock();
                if m.get(key).map(String::as_str) == expected {
                    m.insert(key.to_string(), new);
                    inner.bump();
                    (true, None)
                } else {
                    (false, m.get(key).cloned())
                }
            }
            Backend::Remote(r) => r.roundtrip(&kv_remote::encode_cas(key, expected, &new)),
        }
    }

    /// Atomically increments an integer counter at `key`, returning the
    /// new value (missing keys count as 0).
    pub fn incr(&self, key: &str) -> i64 {
        match &self.backend {
            Backend::Local(inner) => {
                let mut m = inner.map.lock();
                let v = m.get(key).and_then(|s| s.parse::<i64>().ok()).unwrap_or(0) + 1;
                m.insert(key.to_string(), v.to_string());
                inner.bump();
                v
            }
            Backend::Remote(r) => r
                .roundtrip(&kv_remote::encode_incr(key))
                .1
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_get_remove() {
        let kv = KvStore::new();
        assert!(kv.get("a").is_none());
        kv.set("a", "1");
        assert_eq!(kv.get("a").as_deref(), Some("1"));
        assert_eq!(kv.remove("a").as_deref(), Some("1"));
        assert!(kv.get("a").is_none());
    }

    #[test]
    fn wait_for_cross_thread() {
        let kv = KvStore::new();
        let kv2 = kv.clone();
        let h = thread::spawn(move || kv2.wait_for("flag", Duration::from_secs(2)));
        thread::sleep(Duration::from_millis(20));
        kv.set("flag", "up");
        assert_eq!(h.join().unwrap().as_deref(), Some("up"));
    }

    #[test]
    fn wait_for_times_out() {
        let kv = KvStore::new();
        let t0 = Instant::now();
        assert!(kv.wait_for("never", Duration::from_millis(30)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn late_set_after_timeout_is_not_lost() {
        // A timed-out waiter must not poison the key: a set landing after
        // the timeout is visible to get() and to a fresh wait_for().
        let kv = KvStore::new();
        assert!(kv.wait_for("late", Duration::from_millis(20)).is_none());
        kv.set("late", "v");
        assert_eq!(kv.get("late").as_deref(), Some("v"));
        assert_eq!(
            kv.wait_for("late", Duration::from_millis(20)).as_deref(),
            Some("v")
        );
    }

    #[test]
    fn wait_until_loses_no_wakeup_to_racing_writers() {
        // Eight writers take turns publishing round r the moment the
        // waiter acknowledges round r - 1, so each write races the
        // waiter's evaluate-then-park window (the predicate spins to
        // widen it). The waiter parks with no slice: a lost wakeup
        // stalls it until the 10 s timeout instead of costing one slice.
        const WRITERS: u64 = 8;
        const ROUNDS: u64 = 2000;
        let kv = KvStore::new();
        let read =
            |kv: &KvStore, key: &str| kv.get(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        let writers: Vec<_> = (0..WRITERS)
            .map(|id| {
                let kv = kv.clone();
                thread::spawn(move || {
                    for r in (1..=ROUNDS).filter(|r| r % WRITERS == id) {
                        assert!(
                            kv.wait_until(Duration::from_secs(10), || read(&kv, "ack") + 1 >= r)
                        );
                        kv.set("round", r.to_string());
                    }
                })
            })
            .collect();
        for r in 1..=ROUNDS {
            let published =
                kv.wait_sliced(Duration::from_secs(10), Duration::from_secs(3600), || {
                    let seen = read(&kv, "round") >= r;
                    for _ in 0..2000 {
                        std::hint::spin_loop();
                    }
                    seen
                });
            assert!(published, "wakeup for round {r} was lost");
            kv.set("ack", r.to_string());
        }
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn wait_until_wakes_on_the_satisfying_set() {
        let mut lags: Vec<Duration> = (0..5)
            .map(|_| {
                let kv = KvStore::new();
                let waiter = {
                    let kv = kv.clone();
                    thread::spawn(move || {
                        assert!(kv.wait_until(Duration::from_secs(5), || kv.get("k").is_some()));
                        Instant::now()
                    })
                };
                thread::sleep(Duration::from_millis(100));
                let set_at = Instant::now();
                kv.set("k", "v");
                waiter.join().unwrap().saturating_duration_since(set_at)
            })
            .collect();
        lags.sort();
        assert!(
            lags[2] < Duration::from_millis(5),
            "median wake lag {:?} (all: {lags:?})",
            lags[2]
        );
    }

    #[test]
    fn wait_until_times_out_and_a_late_set_stays_visible() {
        let kv = KvStore::new();
        let t0 = Instant::now();
        assert!(!kv.wait_until(Duration::from_millis(30), || kv.get("late").is_some()));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        kv.set("late", "v");
        assert_eq!(kv.get("late").as_deref(), Some("v"));
        assert!(kv.wait_until(Duration::from_millis(30), || kv.get("late").is_some()));
    }

    #[test]
    fn wait_until_under_virtual_clock_ends_at_the_virtual_deadline() {
        let clock = crate::clock::VirtualClock::new();
        let kv = KvStore::new().with_clock(clock.clone());
        // A zero timeout is one non-blocking evaluation.
        let wall = Instant::now();
        let mut evals = 0;
        assert!(!kv.wait_until(Duration::ZERO, || {
            evals += 1;
            false
        }));
        assert_eq!(evals, 1);
        // An hour of virtual time ends when the schedule passes it, not
        // when the wall does.
        let advancer = {
            let clock = clock.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                clock.advance(Duration::from_secs(7200));
            })
        };
        assert!(!kv.wait_until(Duration::from_secs(3600), || false));
        advancer.join().unwrap();
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "blocked past the deadline"
        );
    }

    #[test]
    fn wait_until_polls_a_remote_store() {
        let dir = std::env::temp_dir().join(format!("swift-kv-{}-wait-until", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kv.sock");
        let store = KvStore::new();
        let _server = crate::kv_remote::KvServer::bind(&path, store.clone()).unwrap();
        let remote = KvStore::connect(&path, &RetryPolicy::poll()).unwrap();
        assert!(remote.is_remote());
        let waiter = {
            let remote = remote.clone();
            thread::spawn(move || {
                remote.wait_until(Duration::from_secs(5), || {
                    remote.get("flag").as_deref() == Some("up")
                })
            })
        };
        thread::sleep(Duration::from_millis(20));
        store.set("flag", "up");
        assert!(waiter.join().unwrap());
        let t0 = Instant::now();
        assert!(!remote.wait_until(Duration::from_millis(20), || remote.get("never").is_some()));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn incr_is_atomic_across_threads() {
        let kv = KvStore::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let kv = kv.clone();
                thread::spawn(move || {
                    for _ in 0..100 {
                        kv.incr("n");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.get("n").as_deref(), Some("800"));
    }

    #[test]
    fn local_cas_matches_and_conflicts() {
        let kv = KvStore::new();
        let (ok, _) = kv.cas("k", None, "a".into());
        assert!(ok);
        let (ok, cur) = kv.cas("k", Some("wrong"), "b".into());
        assert!(!ok);
        assert_eq!(cur.as_deref(), Some("a"));
        let (ok, _) = kv.cas("k", Some("a"), "b".into());
        assert!(ok);
        assert_eq!(kv.get("k").as_deref(), Some("b"));
    }
}
