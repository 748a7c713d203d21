//! The shared per-threat evaluation cache of the incremental
//! composition engine.
//!
//! A [`CacheKey`] is a threat vector plus a 128-bit *dependency digest*
//! covering everything the threat's evaluator reads: the whole-design
//! digest (`seceda_netlist::DesignDigest`, over the entire gate layout
//! and interface) when the evaluator reads the netlist, the interface
//! state it reads, and the evaluation parameters. A key over the whole
//! layout is complete by construction, and the evaluators are
//! deterministic pure functions of exactly those inputs, so a key hit
//! returns bit-identically what a fresh evaluation would compute — the
//! cache-correctness argument of DESIGN.md §3.
//!
//! The map is sharded behind plain mutexes so many concurrent closure
//! sessions (`seceda_core::closure`) contend on 1/16th of the keyspace
//! each, and a per-key *in-flight latch* makes concurrent sessions that
//! reach the same uncached key compute it once: the first session
//! computes while the rest wait on a condvar and then read the
//! published metric.
//!
//! Two things are deliberately **not** cached:
//!
//! * degraded metrics ([`crate::MetricValue::Unavailable`] — panics,
//!   budget exhaustion, chaos injections) — a degraded evaluation must
//!   not poison the cache, so the in-flight entry is removed and the
//!   next request recomputes;
//! * errors — a failed computation likewise unlatches the key so
//!   waiters retry rather than inheriting the failure.
//!
//! There is no eviction: entries are small (one [`SecurityMetric`]) and
//! a closure run's working set is bounded by the number of distinct
//! design states it visits. Long-lived servers would layer an LRU on
//! top; the flight-recorder counters (`compose.cache_hits` /
//! `compose.cache_misses`) expose the data to decide when.

use crate::metrics::SecurityMetric;
use crate::threat::ThreatVector;
use seceda_netlist::hash::mix64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Number of independent shards; a power of two so shard selection is a
/// mask.
const SHARDS: usize = 16;

/// What one cached evaluation is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The threat vector whose evaluator produced the metric.
    pub threat: ThreatVector,
    /// Dependency digest: the whole-design digest (for evaluators that
    /// read the netlist), interface state and evaluation parameters, as
    /// built by the engine's per-threat key derivation.
    pub dep: [u64; 2],
}

/// The in-flight latch for one key being computed.
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn finish(&self) {
        *ignore_poison(self.done.lock()) = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = ignore_poison(self.done.lock());
        while !*done {
            done = ignore_poison(self.cv.wait(done));
        }
    }
}

enum Slot {
    Ready(SecurityMetric),
    InFlight(Arc<Flight>),
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Evaluations served from the cache.
    pub hits: u64,
    /// Evaluations computed (and, when available, published).
    pub misses: u64,
    /// Distinct metrics currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, latch-deduplicated map from [`CacheKey`] to
/// [`SecurityMetric`], shared across engines via `Arc`.
pub struct EvalCache {
    shards: Vec<Mutex<HashMap<CacheKey, Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A mutex payload is plain data here; a panicking holder cannot leave
/// it in a torn state, so poisoning is ignored (the workspace's chaos
/// harness injects panics deliberately).
fn ignore_poison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(|e| e.into_inner())
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, HashMap<CacheKey, Slot>> {
        let i = (mix64(key.dep[0] ^ key.dep[1]) as usize) & (SHARDS - 1);
        ignore_poison(self.shards[i].lock())
    }

    /// Returns the cached metric for `key`, or computes, publishes, and
    /// returns it. The boolean is `true` for a cache hit (including
    /// waiting out another session's in-flight computation of the same
    /// key).
    ///
    /// `compute` runs outside every lock. If it returns a degraded
    /// (unavailable) metric, an error, or panics, nothing is published
    /// and the key is unlatched so later requests recompute.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error verbatim.
    pub fn get_or_compute<E>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<SecurityMetric, E>,
    ) -> Result<(SecurityMetric, bool), E> {
        loop {
            let flight = {
                let mut shard = self.shard(&key);
                match shard.get(&key) {
                    Some(Slot::Ready(m)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((m.clone(), true));
                    }
                    Some(Slot::InFlight(f)) => Arc::clone(f),
                    None => {
                        let f = Arc::new(Flight::new());
                        shard.insert(key, Slot::InFlight(Arc::clone(&f)));
                        drop(shard);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        // unlatch on every exit path (incl. panic unwind)
                        let guard = UnlatchGuard {
                            cache: self,
                            key,
                            flight: f,
                            publish: None,
                        };
                        let metric = compute()?;
                        let mut guard = guard;
                        if metric.value.is_available() {
                            guard.publish = Some(metric.clone());
                        }
                        drop(guard);
                        return Ok((metric, false));
                    }
                }
            };
            // another session is computing this key: wait it out, then
            // re-check (the slot is Ready on success, vacated otherwise)
            flight.wait();
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Number of stored metrics.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                ignore_poison(s.lock())
                    .values()
                    .filter(|v| matches!(v, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("EvalCache")
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

/// Replaces this computation's in-flight latch with its result (or
/// removes it) and wakes waiters — on success, error, and panic alike.
struct UnlatchGuard<'a> {
    cache: &'a EvalCache,
    key: CacheKey,
    flight: Arc<Flight>,
    publish: Option<SecurityMetric>,
}

impl Drop for UnlatchGuard<'_> {
    fn drop(&mut self) {
        let mut shard = self.cache.shard(&self.key);
        // replace only our own latch: a concurrent retry may have
        // re-latched the key after a previous unlatch
        let ours = matches!(
            shard.get(&self.key),
            Some(Slot::InFlight(f)) if Arc::ptr_eq(f, &self.flight)
        );
        if ours {
            match self.publish.take() {
                Some(m) => {
                    shard.insert(self.key, Slot::Ready(m));
                }
                None => {
                    shard.remove(&self.key);
                }
            }
        }
        drop(shard);
        self.flight.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;
    use std::sync::atomic::AtomicUsize;

    fn key(x: u64) -> CacheKey {
        CacheKey {
            threat: ThreatVector::Piracy,
            dep: [x, !x],
        }
    }

    fn metric(v: f64) -> SecurityMetric {
        SecurityMetric::new(
            "m",
            ThreatVector::Piracy,
            MetricValue::HigherBetter {
                value: v,
                threshold: 0.0,
            },
        )
    }

    #[test]
    fn second_lookup_hits() {
        let cache = EvalCache::new();
        let (m1, hit1) = cache
            .get_or_compute(key(1), || Ok::<_, ()>(metric(7.0)))
            .expect("compute");
        assert!(!hit1);
        let (m2, hit2) = cache
            .get_or_compute(key(1), || -> Result<SecurityMetric, ()> {
                panic!("must not recompute")
            })
            .expect("hit");
        assert!(hit2);
        assert_eq!(m1, m2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degraded_metrics_never_poison_the_cache() {
        let cache = EvalCache::new();
        let degraded = SecurityMetric::unavailable("m", ThreatVector::Piracy, "chaos");
        let (m, hit) = cache
            .get_or_compute(key(2), || Ok::<_, ()>(degraded.clone()))
            .expect("compute");
        assert!(!hit);
        assert_eq!(m, degraded);
        assert!(cache.is_empty(), "unavailable results must not be stored");
        // the next request recomputes and can publish a healthy value
        let (m, hit) = cache
            .get_or_compute(key(2), || Ok::<_, ()>(metric(1.0)))
            .expect("compute");
        assert!(!hit);
        assert!(m.value.is_available());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_and_panics_unlatch_the_key() {
        let cache = EvalCache::new();
        let err = cache.get_or_compute(key(3), || Err::<SecurityMetric, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ =
                cache.get_or_compute(key(3), || -> Result<SecurityMetric, ()> { panic!("chaos") });
        }));
        assert!(panicked.is_err());
        // the key is free again: a fresh compute succeeds
        let (_, hit) = cache
            .get_or_compute(key(3), || Ok::<_, ()>(metric(2.0)))
            .expect("compute");
        assert!(!hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_sessions_compute_each_key_once() {
        let cache = Arc::new(EvalCache::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                let (m, _) = cache
                    .get_or_compute(key(4), || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // widen the in-flight window so waiters pile up
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok::<_, ()>(metric(9.0))
                    })
                    .expect("compute");
                assert_eq!(m.value.value(), 9.0);
            }));
        }
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "the in-flight latch must deduplicate concurrent computes"
        );
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = EvalCache::new();
        for i in 0..64u64 {
            cache
                .get_or_compute(key(i), || Ok::<_, ()>(metric(i as f64)))
                .expect("compute");
        }
        assert_eq!(cache.len(), 64);
        for i in 0..64u64 {
            let (m, hit) = cache
                .get_or_compute(key(i), || -> Result<SecurityMetric, ()> {
                    panic!("must hit")
                })
                .expect("hit");
            assert!(hit);
            assert_eq!(m.value.value(), i as f64);
        }
    }
}
