//! The shared per-threat evaluation cache of the incremental
//! composition engine.
//!
//! Every entry is keyed on the engine's *state key*: one 128-bit digest
//! of the whole-design digest (`seceda_netlist::DesignDigest`, over the
//! entire gate layout and interface), every interface field of the
//! design under test and every evaluation parameter. A metric is stored
//! under that key plus its threat vector. The evaluators are
//! deterministic pure functions of a subset of those inputs, so a key
//! hit returns bit-identically what a fresh evaluation would compute —
//! the cache-correctness argument of DESIGN.md §3. The engine builds the
//! key from both structs destructured field by field, so the key stays
//! complete as fields are added.
//!
//! The cache holds a second map beside the metrics: the rare-signal
//! selection of each design state (`seceda_trojan::rare_signals`, 64
//! rounds of signal-probability simulation), stored as
//! `Arc<[RareSignal]>` under the state key itself. It serves both
//! readers of that one estimate: the Trojan evaluator counts it and the
//! `TrojanMonitor` countermeasure watches it, so whichever reaches a
//! state first computes it for the other. Selection lookups are traced
//! as `compose.select_hits` / `compose.select_misses` and do not count
//! in [`CacheStats`], which stays about threat metrics.
//!
//! Both maps are one private `Slots` type: each key owns one slot
//! behind its own mutex. A lookup takes the map lock only to find or
//! create the slot, then holds the slot's lock while it computes, so
//! concurrent closure sessions (`seceda_core::closure`) that reach the
//! same uncached key compute it once: the first computes, the rest wait
//! on the slot lock and then read the published value. Different keys
//! never wait on each other's computations.
//!
//! Two things are deliberately **not** cached:
//!
//! * degraded metrics ([`crate::MetricValue::Unavailable`] — panics,
//!   budget exhaustion, chaos injections) — a degraded evaluation must
//!   not poison the cache, so the slot stays empty and the next request
//!   recomputes;
//! * errors and panics, in either map — the slot likewise stays empty,
//!   so waiters recompute rather than inheriting the failure.
//!
//! There is no eviction: entries are small (one [`SecurityMetric`], or
//! one selection of a few net indices) and a closure run's working set
//! is bounded by the number of distinct design states it visits.
//! Long-lived servers would layer an LRU on top; the flight-recorder
//! counters (`compose.cache_hits` / `compose.cache_misses`) expose the
//! data to decide when.

use crate::metrics::SecurityMetric;
use crate::threat::ThreatVector;
use seceda_netlist::DesignDigest;
use seceda_trojan::RareSignal;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What one cached metric is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The threat vector whose evaluator produced the metric.
    pub threat: ThreatVector,
    /// The engine's state key: the whole-design digest, every interface
    /// field of the design under test and every evaluation parameter.
    pub dep: DesignDigest,
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

/// A map from keys to values with one lock per key: a caller holds its
/// key's lock while it computes, so each key is computed once however
/// many callers reach it together.
struct Slots<K, V> {
    map: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
    entries: AtomicUsize,
}

impl<K: Eq + Hash, V: Clone> Slots<K, V> {
    fn new() -> Self {
        Slots {
            map: Mutex::new(HashMap::new()),
            entries: AtomicUsize::new(0),
        }
    }

    /// Returns `key`'s value, or computes it and publishes it if
    /// `publishable` accepts it. The boolean is `true` for a hit
    /// (including waiting out another caller's computation of the same
    /// key). An error or a panic publishes nothing.
    fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
        publishable: impl FnOnce(&V) -> bool,
    ) -> Result<(V, bool), E> {
        // mutex payloads are plain data, so a panicking holder cannot
        // leave them torn: poisoning is ignored (the workspace's chaos
        // harness injects panics deliberately)
        let slot = Arc::clone(
            self.map
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(key)
                .or_default(),
        );
        let mut value = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = value.as_ref() {
            return Ok((v.clone(), true));
        }
        let computed = compute()?;
        if publishable(&computed) {
            *value = Some(computed.clone());
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        Ok((computed, false))
    }

    /// Number of published values.
    fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }
}

/// The per-threat metrics and the rare-signal selections that the
/// Trojan evaluator and `TrojanMonitor` share, each a map with one lock
/// per key, shared across engines via `Arc`.
pub struct EvalCache {
    metrics: Slots<CacheKey, SecurityMetric>,
    selections: Slots<DesignDigest, Arc<[RareSignal]>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache {
            metrics: Slots::new(),
            selections: Slots::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached metric for `key`, or computes, publishes, and
    /// returns it. The boolean is `true` for a cache hit (including
    /// waiting out another session's computation of the same key).
    ///
    /// `compute` runs holding only `key`'s own lock. If it returns a
    /// degraded (unavailable) metric, an error, or panics, nothing is
    /// published and the next request recomputes.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error verbatim.
    pub(crate) fn get_or_compute<E>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<SecurityMetric, E>,
    ) -> Result<(SecurityMetric, bool), E> {
        let miss = || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            compute()
        };
        let found = self
            .metrics
            .get_or_compute(key, miss, |m| m.value.is_available())?;
        if found.1 {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(found)
    }

    /// Returns the rare-signal selection stored under `key` (the
    /// engine's state key), or computes and publishes it, as
    /// [`get_or_compute`](Self::get_or_compute) does for metrics. An
    /// error or a panic publishes nothing. Selections do not count in
    /// [`CacheStats`].
    pub(crate) fn rare_signals<E>(
        &self,
        key: DesignDigest,
        compute: impl FnOnce() -> Result<Arc<[RareSignal]>, E>,
    ) -> Result<(Arc<[RareSignal]>, bool), E> {
        self.selections.get_or_compute(key, compute, |_| true)
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
        self.metrics.len()
    }

    /// `true` when no metric is stored.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;
    use std::sync::atomic::AtomicUsize;

    fn key(x: u64) -> CacheKey {
        CacheKey {
            threat: ThreatVector::Piracy,
            dep: DesignDigest([x, !x]),
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
    fn waiters_recompute_once_after_the_first_computation_fails() {
        let cache = Arc::new(EvalCache::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                std::thread::spawn(move || {
                    cache.get_or_compute(key(5), || {
                        if computed.fetch_add(1, Ordering::SeqCst) == 0 {
                            // fail slowly, so the other callers pile up
                            // behind the first computation
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Err("first computation fails")
                        } else {
                            Ok(metric(5.0))
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect();
        assert_eq!(
            computed.load(Ordering::SeqCst),
            2,
            "one failed computation, one retry, no more"
        );
        let errors = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(errors, 1, "only the failing caller sees the error");
        for (m, _) in results.iter().filter_map(|r| r.as_ref().ok()) {
            assert_eq!(m.value.value(), 5.0);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (6, 2, 1));
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
