//! A deterministic chaos / fault-injection harness.
//!
//! Robustness claims ("every engine degrades gracefully") are only
//! testable if failures can be *provoked on demand, reproducibly*. This
//! module provides seeded fault injection at named **injection points**
//! scattered through the workspace (`"par.worker"`, `"sat.budget"`,
//! `"parse.design"`, `"compose.threat.panic"`, ...). Each point asks
//! [`fires`] whether to inject, passing a caller-chosen `salt` (an item
//! index, a solve ordinal, an input length). The decision is a pure
//! function of `(seed, point, salt)` — **never** of call order or thread
//! schedule — so a chaos run is bit-identical across worker counts and
//! repeat invocations.
//!
//! Activation, per thread:
//!
//! 1. the innermost scope installed on this thread by [`with_seed`],
//!    [`with_forced`] or [`without_chaos`]. Scopes nest, restore the
//!    outer configuration when they end (also on panic), and are
//!    inherited by the workers [`crate::par`] spawns for the thread;
//!    another thread's scope is never visible;
//! 2. otherwise the `SECEDA_CHAOS=<seed>` environment variable (decimal
//!    or `0x`-prefixed hex), read once on first use, for every thread.
//!
//! When neither arms it the harness is off, and every check costs one
//! thread-local read and one atomic load.
//!
//! Injected effects are the small set the engines must survive:
//! panics ([`maybe_panic`]), budget exhaustion ([`maybe_exhaust`]), and
//! truncated parser input ([`truncate_input`]). Every actual injection
//! increments a process-wide counter ([`injections`]).

use crate::context;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Total number of faults actually injected since process start.
static INJECTIONS: AtomicU64 = AtomicU64::new(0);

/// One chaos configuration: a scope's, or the environment's.
#[derive(Debug, Clone)]
pub(crate) struct ChaosConfig {
    /// Seed for probabilistic firing; `None` disables random injection
    /// (a forced point may still fire).
    seed: Option<u64>,
    /// A point forced to always fire, optionally only at one salt.
    forced: Option<(String, Option<u64>)>,
}

/// Parses a `SECEDA_CHAOS` value: decimal, or hex with a `0x` prefix.
fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// The configuration `SECEDA_CHAOS` supplies, read once on first use.
fn ambient() -> &'static ChaosConfig {
    static AMBIENT: OnceLock<ChaosConfig> = OnceLock::new();
    AMBIENT.get_or_init(|| ChaosConfig {
        seed: std::env::var("SECEDA_CHAOS")
            .ok()
            .and_then(|v| parse_seed(&v)),
        forced: None,
    })
}

/// Runs `f` on this thread's configuration: its innermost scope, else
/// the environment's.
fn with_config<R>(f: impl FnOnce(&ChaosConfig) -> R) -> R {
    context::with(|c| f(c.chaos.as_ref().unwrap_or_else(|| ambient())))
}

/// Whether chaos injection is enabled on this thread (by a scope, or by
/// `SECEDA_CHAOS` in the environment).
#[inline]
pub fn active() -> bool {
    with_config(|cfg| cfg.seed.is_some() || cfg.forced.is_some())
}

/// Total number of faults injected so far in this process (panics,
/// exhaustions, truncations), on every thread. Monotonic.
pub fn injections() -> u64 {
    INJECTIONS.load(Ordering::Relaxed)
}

/// SplitMix64 — the workspace's standard seed scrambler.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the point name, so the decision stream differs per point.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The pure decision function: does injection point `point` fire at
/// `salt` under the current configuration?
///
/// Roughly 1-in-8 of `(point, salt)` pairs fire under a seed; a forced
/// point fires always (or at exactly its pinned salt). The result
/// depends only on the configuration, the point name, and the salt —
/// never on call order — which is what makes chaos runs deterministic
/// across thread schedules.
pub fn fires(point: &str, salt: u64) -> bool {
    with_config(|cfg| {
        let forced = cfg
            .forced
            .as_ref()
            .is_some_and(|(fp, fsalt)| fp == point && fsalt.is_none_or(|s| s == salt));
        forced
            || cfg
                .seed
                .is_some_and(|seed| splitmix64(seed ^ fnv1a(point) ^ splitmix64(salt)) & 7 == 0)
    })
}

/// Records one actual injection.
fn record() {
    INJECTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Panics with a recognizable chaos payload if `point` fires at `salt`.
///
/// # Panics
///
/// Deliberately, when the injection fires.
pub fn maybe_panic(point: &str, salt: u64) {
    if fires(point, salt) {
        record();
        panic!("chaos: injected panic at {point}#{salt}");
    }
}

/// Returns `true` — "pretend the budget is exhausted" — if `point`
/// fires at `salt`.
pub fn maybe_exhaust(point: &str, salt: u64) -> bool {
    if fires(point, salt) {
        record();
        true
    } else {
        false
    }
}

/// Truncates `text` at a seed-chosen char boundary if `point` fires
/// (salted by the input length). `None` means "no injection — use the
/// input as is".
pub fn truncate_input(point: &str, text: &str) -> Option<String> {
    let salt = text.len() as u64;
    if text.is_empty() || !fires(point, salt) {
        return None;
    }
    let seed = with_config(|cfg| cfg.seed.unwrap_or(0));
    let mut cut = (splitmix64(seed ^ fnv1a(point) ^ salt) % salt) as usize;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    record();
    Some(text[..cut].to_string())
}

/// Runs `f` under a chaos scope on this thread (see the module docs).
fn scoped<R>(seed: Option<u64>, forced: Option<(String, Option<u64>)>, f: impl FnOnce() -> R) -> R {
    context::scoped(|c| c.chaos = Some(ChaosConfig { seed, forced }), f)
}

/// Runs `f` with chaos enabled under `seed`, restoring the previous
/// configuration afterwards.
pub fn with_seed<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    scoped(Some(seed), None, f)
}

/// Runs `f` with exactly one injection point forced to fire — at every
/// salt, or only at `salt` when given — and no random injection.
/// Restores the previous configuration afterwards.
pub fn with_forced<R>(point: &str, salt: Option<u64>, f: impl FnOnce() -> R) -> R {
    scoped(None, Some((point.to_string(), salt)), f)
}

/// Runs `f` with chaos disabled, even if `SECEDA_CHAOS` is set. Chaos
/// tests use this for their straight-through reference runs.
pub fn without_chaos<R>(f: impl FnOnce() -> R) -> R {
    scoped(None, None, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_when_env_unset() {
        // without_chaos overrides an ambient SECEDA_CHAOS, so this holds
        // whatever the environment armed
        without_chaos(|| {
            assert!(!active());
            assert!(!fires("any.point", 0));
            assert!(truncate_input("any.point", "abcdef").is_none());
        });
    }

    #[test]
    fn decisions_are_pure_in_point_and_salt() {
        with_seed(0xDEAD_BEEF, || {
            let a: Vec<bool> = (0..256).map(|s| fires("par.worker", s)).collect();
            let b: Vec<bool> = (0..256).map(|s| fires("par.worker", s)).collect();
            assert_eq!(a, b, "same (seed, point, salt) must agree across calls");
            let hits = a.iter().filter(|&&x| x).count();
            // ~1/8 rate: loose band, but never all-or-nothing
            assert!(hits > 8 && hits < 96, "hit rate off: {hits}/256");
            let other: Vec<bool> = (0..256).map(|s| fires("sat.budget", s)).collect();
            assert_ne!(a, other, "different points must see different streams");
        });
    }

    #[test]
    fn forced_point_fires_only_at_pinned_salt() {
        with_forced("compose.threat.panic", Some(2), || {
            assert!(fires("compose.threat.panic", 2));
            assert!(!fires("compose.threat.panic", 1));
            assert!(!fires("other.point", 2));
        });
        with_forced("compose.threat.panic", None, || {
            assert!(fires("compose.threat.panic", 0));
            assert!(fires("compose.threat.panic", 77));
        });
    }

    #[test]
    fn maybe_panic_payload_is_recognizable() {
        let before = injections();
        let caught = std::panic::catch_unwind(|| {
            with_forced("unit.panic", None, || maybe_panic("unit.panic", 5));
        })
        .expect_err("forced point must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("chaos: injected panic at unit.panic#5"),
            "{msg}"
        );
        assert!(injections() > before);
    }

    #[test]
    fn truncation_is_deterministic_and_shorter() {
        with_forced("parse.design", None, || {
            let text = "INPUT(a)\nINPUT(b)\nOUTPUT(c)\nc = AND(a, b)\n";
            let t1 = truncate_input("parse.design", text).expect("forced fire");
            let t2 = truncate_input("parse.design", text).expect("forced fire");
            assert_eq!(t1, t2);
            assert!(t1.len() < text.len());
            assert!(text.starts_with(&t1));
        });
    }

    #[test]
    fn scopes_restore_on_panic() {
        let before = active();
        let _ = std::panic::catch_unwind(|| {
            with_seed(1, || panic!("boom"));
        });
        assert_eq!(active(), before);
    }

    use crate::par::{par_map_catch, with_workers};
    use std::sync::Barrier;

    /// This thread's decisions for `point` at salts `0..64`, taken by
    /// `par` workers, with any injected `par.worker` panic kept per item.
    fn decisions(point: &str, workers: usize) -> Vec<Result<bool, crate::par::WorkerPanic>> {
        let salts: Vec<u64> = (0..64).collect();
        with_workers(workers, || par_map_catch(&salts, |_, &s| fires(point, s)))
    }

    #[test]
    fn nested_scopes_restore_the_outer_configuration_also_on_panic() {
        for workers in [1, 2, 8] {
            with_seed(7, || {
                let outer = decisions("unit.nested", workers);
                assert!(outer.contains(&Ok(true)), "seed fires somewhere");
                with_forced("unit.nested", Some(3), || {
                    let forced = decisions("unit.nested", workers);
                    let fired: Vec<bool> = forced.iter().map(|d| *d == Ok(true)).collect();
                    assert_eq!(fired, (0..64).map(|s| s == 3).collect::<Vec<_>>());
                    without_chaos(|| {
                        assert!(!active());
                        assert!(decisions("unit.nested", workers)
                            .iter()
                            .all(|d| *d == Ok(false)));
                    });
                    assert_eq!(
                        decisions("unit.nested", workers),
                        forced,
                        "workers = {workers}"
                    );
                });
                assert_eq!(
                    decisions("unit.nested", workers),
                    outer,
                    "workers = {workers}"
                );
                let caught = std::panic::catch_unwind(|| {
                    with_forced("unit.nested", None, || without_chaos(|| panic!("inner")))
                });
                assert!(caught.is_err());
                assert_eq!(
                    decisions("unit.nested", workers),
                    outer,
                    "workers = {workers}"
                );
            });
        }
    }

    #[test]
    fn another_threads_scope_is_invisible() {
        for workers in [1, 2, 8] {
            // this thread holds no scope: it sees the environment only
            let ambient = decisions("unit.isolated", workers);
            assert!(
                ambient.iter().any(|d| *d != Ok(true)),
                "ambient forces the point"
            );
            let (armed, checked) = (Barrier::new(2), Barrier::new(2));
            let (seen, inside) = std::thread::scope(|s| {
                let other = s.spawn(|| {
                    with_forced("unit.isolated", None, || {
                        armed.wait();
                        let inside = decisions("unit.isolated", workers);
                        checked.wait();
                        inside
                    })
                });
                armed.wait();
                // the other thread's scope is live until `checked`
                let seen = decisions("unit.isolated", workers);
                checked.wait();
                (seen, other.join().expect("scoped thread"))
            });
            assert_eq!(seen, ambient, "workers = {workers}");
            // the scope does reach its own thread's workers
            assert!(inside.iter().all(|d| *d == Ok(true)), "workers = {workers}");
        }
    }
}
