//! A zero-dependency scoped-thread work chunker.
//!
//! The workspace's hottest loops are embarrassingly parallel over an
//! item list — fault lists in packed fault grading, the 256 key guesses
//! of CPA, the packed rounds of signal-probability estimation. This
//! module fans such a list across OS threads with
//! [`std::thread::scope`], stealing work in small index chunks from a
//! shared atomic cursor, and reassembles results **in item order** so
//! callers observe the exact output a serial loop would have produced.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — results are positionally identical for any
//!    worker count; reductions over the results must therefore be
//!    order-stable by construction.
//! 2. **Zero dependencies** — no rayon; `std::thread::scope` plus one
//!    `AtomicUsize` is the whole scheduler.
//! 3. **Cheap for small inputs** — one item (or one worker) short-cuts
//!    to the plain serial loop with no thread spawn.
//!
//! Worker count resolution: an explicit [`with_workers`] pin (used by
//! determinism tests), else the `SECEDA_THREADS` environment variable,
//! else [`std::thread::available_parallelism`]. Every worker runs under
//! its caller's execution context: the [`with_workers`] pin and the
//! [`crate::chaos`] scope, so both reach nested parallel calls too.
//!
//! [`par_map`], [`par_map_init`] and [`par_map_catch`] are adapters over
//! one scheduler, which runs every item under
//! [`std::panic::catch_unwind`]: a panic never stops the other items,
//! and the adapters decide what a panicked item means.

use crate::{chaos, context};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` with the worker count pinned to `workers` (restored
/// afterwards, also on panic). The pin applies to every parallel call
/// `f` makes, including the ones nested inside its workers.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    assert!(workers >= 1, "worker count must be at least 1");
    context::scoped(|c| c.workers = workers, f)
}

/// The maximum number of workers a parallel call may use right now:
/// the [`with_workers`] pin, else `SECEDA_THREADS`, else the machine's
/// available parallelism.
fn max_workers() -> usize {
    let pinned = context::with(|c| c.workers);
    if pinned != 0 {
        return pinned;
    }
    if let Ok(v) = std::env::var("SECEDA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a parallel call over `len` items will actually use
/// (never more workers than items, never zero).
pub fn workers_for(len: usize) -> usize {
    max_workers().min(len).max(1)
}

/// Parallel map preserving item order: `out[i] = f(i, &items[i])`.
///
/// Results are identical for every worker count. If `f` panics, every
/// other item still runs; then the panic of the lowest-index panicking
/// item is re-raised with its original payload.
pub fn par_map<T, R>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    par_map_init(items, || (), |(), i, item| f(i, item))
}

/// Like [`par_map`] but with per-worker scratch state: `init` runs on a
/// worker before its first item, and the resulting state is threaded
/// through every call that worker performs. Use this to amortize
/// per-item allocations (simulation value buffers, heaps) across a
/// worker's whole share of the items. After one of a worker's items
/// panicked, `init` runs again, so no half-updated state reaches the
/// next item.
pub fn par_map_init<T, R, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    schedule(items, init, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// The one scheduler behind every adapter: `out[i]` is `f`'s result on
/// item `i`, or its panic payload.
///
/// Work is stolen in small index chunks from a shared atomic cursor;
/// one item (or one worker) runs serially on the calling thread. The
/// `"par.worker"` chaos point fires inside the per-item catch, salted
/// by the item index, so it fires identically at every worker count.
fn schedule<T, R, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<std::thread::Result<R>>
where
    T: Sync,
    R: Send,
{
    // a worker's scratch is built on its first item and dropped after a
    // panicked one, so no half-updated state reaches the next item
    let run = |state: &mut Option<S>, i: usize| {
        let out = catch_unwind(AssertUnwindSafe(|| {
            chaos::maybe_panic("par.worker", i as u64);
            f(state.get_or_insert_with(&init), i, &items[i])
        }));
        if out.is_err() {
            *state = None;
        }
        out
    };
    let len = items.len();
    let workers = workers_for(len);
    if workers == 1 {
        let mut state = None;
        return (0..len).map(|i| run(&mut state, i)).collect();
    }
    // Small chunks keep the tail balanced when item costs vary wildly
    // (fault cones range from one gate to the whole circuit).
    let chunk = (len / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = None;
        let mut local = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            for i in start..(start + chunk).min(len) {
                local.push((i, run(&mut state, i)));
            }
        }
        local
    };
    let caller = context::with(Clone::clone);
    let mut out: Vec<Option<std::thread::Result<R>>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| context::scoped(|c| c.clone_from(&caller), work)))
            .collect();
        for handle in handles {
            let local = handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            for (i, r) in local {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("par worker skipped an item"))
        .collect()
}

/// What a worker's panic looked like, recovered per item by
/// [`par_map_catch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload rendered to text (`&str` / `String` payloads;
    /// anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a caught panic payload to text (`&str` / `String` payloads;
/// anything else becomes a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`par_map`], but a panic in `f` is contained to its own item:
/// `out[i]` is `Err(WorkerPanic)` for the items whose closure panicked
/// while every other item still completes. This is the degradation
/// primitive — "evaluate every threat, report what failed" — where
/// [`par_map`] fails the whole computation. Chaos-injected
/// `"par.worker"` panics are contained the same way.
pub fn par_map_catch<T, R>(
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Result<R, WorkerPanic>>
where
    T: Sync,
    R: Send,
{
    schedule(items, || (), |(), i, item| f(i, item))
        .into_iter()
        .enumerate()
        .map(|(index, r)| {
            r.map_err(|payload| WorkerPanic {
                index,
                message: panic_message(payload.as_ref()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |i, &x| x * 2 + i as u64);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, items[i] * 2 + i as u64);
        }
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u64> = (0..337).collect();
        let serial = with_workers(1, || par_map(&items, |_, &x| x.wrapping_mul(0x9E37)));
        for workers in [2, 3, 8] {
            let parallel =
                with_workers(workers, || par_map(&items, |_, &x| x.wrapping_mul(0x9E37)));
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn per_worker_state_is_reused() {
        // each worker counts its own calls; the total must equal the item
        // count even though per-worker shares differ
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let inits = AtomicUsize::new(0);
        let items = vec![(); 200];
        with_workers(4, || {
            par_map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), _, ()| {
                    calls.fetch_add(1, Ordering::Relaxed);
                },
            )
        });
        assert_eq!(calls.load(Ordering::Relaxed), 200);
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn override_is_restored() {
        with_workers(3, || assert_eq!(max_workers(), 3));
        // after the closure the ambient default is back (no 0-sized pin)
        assert!(max_workers() >= 1);
    }

    #[test]
    fn par_map_still_propagates_panics() {
        // the non-catching adapters fail the whole computation when any
        // item panics
        for workers in [1, 4] {
            let items: Vec<u32> = (0..64).collect();
            let result = std::panic::catch_unwind(|| {
                with_workers(workers, || {
                    par_map(&items, |_, &x| {
                        assert!(x != 13, "poisoned item");
                        x
                    })
                })
            });
            assert!(result.is_err(), "workers = {workers}");
        }
    }

    #[test]
    fn worker_pin_reaches_nested_calls() {
        let items = vec![(); 8];
        for workers in [1, 2, 8] {
            let seen = with_workers(workers, || {
                par_map(&items, |_, ()| {
                    let nested = par_map(&items, |_, ()| max_workers());
                    (max_workers(), nested)
                })
            });
            for (outer, nested) in seen {
                assert_eq!(outer, workers);
                assert_eq!(nested, vec![workers; 8]);
            }
        }
    }

    #[test]
    fn par_map_reraises_the_lowest_index_panic_with_fresh_scratch() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 8] {
            let stale = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(|| {
                with_workers(workers, || {
                    par_map_init(&items, Vec::new, |seen: &mut Vec<usize>, i, _| {
                        // scratch a poisoned item touched must never
                        // reach a later item
                        if seen.iter().any(|&j| j == 13 || j == 41) {
                            stale.store(true, Ordering::Relaxed);
                        }
                        seen.push(i);
                        assert!(i != 41, "poisoned item forty-one");
                        assert!(i != 13, "poisoned item thirteen");
                    })
                })
            })
            .expect_err("a poisoned item fails par_map_init");
            assert_eq!(
                panic_message(caught.as_ref()),
                "poisoned item thirteen",
                "workers = {workers}"
            );
            assert!(!stale.load(Ordering::Relaxed), "workers = {workers}");
        }
    }

    #[test]
    fn par_map_catch_contains_panics_per_item() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [1, 2, 8] {
            let out = with_workers(workers, || {
                par_map_catch(&items, |_, &x| {
                    assert!(x % 10 != 3, "poisoned item {x}");
                    x * 2
                })
            });
            assert_eq!(out.len(), 64, "workers = {workers}");
            for (i, r) in out.iter().enumerate() {
                if i % 10 == 3 {
                    let p = r.as_ref().expect_err("poisoned item must fail");
                    assert_eq!(p.index, i);
                    assert!(p.message.contains("poisoned item"), "{}", p.message);
                } else {
                    assert_eq!(*r.as_ref().expect("healthy item"), (i as u32) * 2);
                }
            }
        }
    }

    #[test]
    fn chaos_par_worker_panics_contained_and_deterministic() {
        use crate::chaos;
        let items: Vec<u32> = (0..96).collect();
        let expected: Vec<bool> = chaos::with_seed(0xFEED, || {
            (0..96).map(|i| chaos::fires("par.worker", i)).collect()
        });
        assert!(expected.iter().any(|&b| b), "seed must poison something");
        assert!(!expected.iter().all(|&b| b), "seed must not poison all");
        let first = expected.iter().position(|&b| b).expect("poisoned item");
        let serial = chaos::with_seed(0xFEED, || {
            with_workers(1, || par_map_catch(&items, |_, &x| x + 1))
        });
        for workers in [1, 2, 8] {
            let out = chaos::with_seed(0xFEED, || {
                with_workers(workers, || par_map_catch(&items, |_, &x| x + 1))
            });
            let got: Vec<bool> = out.iter().map(Result::is_err).collect();
            assert_eq!(got, expected, "workers = {workers}");
            assert_eq!(out, serial, "workers = {workers}");
            // the scope reaches a nested call inside every worker
            let nested = chaos::with_seed(0xFEED, || {
                with_workers(workers, || {
                    par_map_catch(&items[..8], |_, _| par_map_catch(&items, |_, &x| x + 1))
                })
            });
            for (i, r) in nested.iter().enumerate() {
                match r {
                    Ok(inner) => assert_eq!(inner, &serial, "workers = {workers}"),
                    Err(p) => assert!(expected[i], "workers = {workers}: {p}"),
                }
            }
            // the same seed makes the plain variant fail outright, with
            // the lowest poisoned index's payload
            let fatal = std::panic::catch_unwind(|| {
                chaos::with_seed(0xFEED, || {
                    with_workers(workers, || par_map(&items, |_, &x| x + 1))
                })
            })
            .expect_err("chaos fails par_map");
            assert_eq!(
                panic_message(fatal.as_ref()),
                format!("chaos: injected panic at par.worker#{first}"),
                "workers = {workers}"
            );
        }
    }
}
