//! Deterministic scoped-thread executor for the `auditorium-thermal`
//! workspace.
//!
//! The workspace's hot paths — piecewise least-squares identification,
//! pairwise similarity graphs, sweep-shaped experiments — are
//! embarrassingly parallel, but every result in the repository is
//! pinned bit-for-bit by seeds and golden tests. This crate therefore
//! provides parallelism under a hard **determinism contract**:
//!
//! > The output of every combinator in this crate is bitwise identical
//! > for any thread count (including 1) and any chunk size, because
//! > work decomposition and result placement are fixed *before*
//! > scheduling: each input index owns exactly one output slot, chunk
//! > boundaries depend only on the input length, and no cross-thread
//! > reduction ever happens in scheduling order.
//!
//! Concretely that means `THERMAL_THREADS=1` and `THERMAL_THREADS=32`
//! runs of the repro pipeline produce byte-identical result CSVs — a
//! property CI enforces.
//!
//! # Thread count
//!
//! [`thread_count`] resolves the worker count from the
//! `THERMAL_THREADS` environment variable when it is set to a positive
//! integer, falling back to [`std::thread::available_parallelism`].
//! Malformed values never abort a run: [`resolve_thread_count`]
//! classifies the rejection as a typed [`ThreadsParseError`], the
//! documented fallback is used, and a warning naming the variable and
//! the reason is printed once per process. Values above
//! [`MAX_THREADS`] are clamped rather than trusted. The `*_with`
//! variants accept an explicit count and never consult the
//! environment — they are the differential-testing surface.
//!
//! # Implementation notes
//!
//! Workers are plain [`std::thread::scope`] threads (no external
//! dependencies, no pool): spawn cost is paid per call, so call sites
//! parallelize *coarse* units (a row panel, a sweep cell, a k-means
//! restart) rather than single elements. A panic inside a worker
//! closure is re-raised on the calling thread after all workers have
//! been joined, preserving the panic semantics of the sequential path;
//! the combinators themselves never originate a panic.
//!
//! # Example
//!
//! ```
//! let squares = thermal_par::parallel_map(&[1_u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::env;
use std::thread;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "THERMAL_THREADS";

/// Largest worker count accepted from the environment. A larger value
/// is almost certainly a typo (e.g. a pasted seed); it is clamped here
/// because each combinator call spawns `threads` OS threads.
pub const MAX_THREADS: usize = 512;

/// Why a [`THREADS_ENV`] value was rejected (or clamped).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ThreadsParseError {
    /// The value did not parse as an unsigned integer.
    NotANumber {
        /// The raw (trimmed) value found in the environment.
        raw: String,
    },
    /// The value parsed as `0`, which cannot run anything.
    Zero,
    /// The value exceeded [`MAX_THREADS`] and was clamped.
    TooLarge {
        /// The value found in the environment.
        parsed: usize,
    },
}

impl std::fmt::Display for ThreadsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadsParseError::NotANumber { raw } => {
                write!(f, "{raw:?} is not an unsigned integer")
            }
            ThreadsParseError::Zero => write!(f, "0 threads cannot run anything"),
            ThreadsParseError::TooLarge { parsed } => {
                write!(f, "{parsed} exceeds the cap of {MAX_THREADS}")
            }
        }
    }
}

impl std::error::Error for ThreadsParseError {}

/// Resolves a raw [`THREADS_ENV`] value to a worker count plus an
/// optional typed rejection explaining why the documented fallback
/// (or clamp) was applied instead of the raw value.
///
/// - `None` / unset → available parallelism, no warning.
/// - positive integer ≤ [`MAX_THREADS`] → that value.
/// - `0` → available parallelism + [`ThreadsParseError::Zero`].
/// - `> MAX_THREADS` → [`MAX_THREADS`] + [`ThreadsParseError::TooLarge`].
/// - anything else → available parallelism +
///   [`ThreadsParseError::NotANumber`].
#[must_use]
pub fn resolve_thread_count(raw: Option<&str>) -> (usize, Option<ThreadsParseError>) {
    let fallback = || thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let Some(raw) = raw else {
        return (fallback(), None);
    };
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => (fallback(), Some(ThreadsParseError::Zero)),
        Ok(n) if n > MAX_THREADS => (MAX_THREADS, Some(ThreadsParseError::TooLarge { parsed: n })),
        Ok(n) => (n, None),
        Err(_) => (
            fallback(),
            Some(ThreadsParseError::NotANumber {
                raw: trimmed.to_owned(),
            }),
        ),
    }
}

/// Resolves the worker-thread count: a positive integer in
/// [`THREADS_ENV`] wins; otherwise the machine's available
/// parallelism; 1 when neither is known. A malformed value is
/// reported once per process on stderr and the fallback is used — a
/// typo in the environment degrades parallelism, never correctness or
/// the run itself.
// Designated config surface (CONFIG_MODULES in xtask): the one place
// the thread count may be read from the environment.
#[allow(clippy::disallowed_methods)]
pub fn thread_count() -> usize {
    let raw = env::var(THREADS_ENV).ok();
    let (threads, rejection) = resolve_thread_count(raw.as_deref());
    if let Some(rejection) = rejection {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!("thermal-par: bad {THREADS_ENV}: {rejection}; using {threads} threads");
        });
    }
    threads
}

/// Derives an independent per-task seed from a base seed and a task
/// index via a splitmix64 step, so sibling tasks (k-means restarts,
/// fault realisations) draw from decorrelated streams whose values do
/// not depend on evaluation order.
///
/// The derivation is pure: `derive_seed(s, i)` is a fixed function of
/// `(s, i)` and is pinned by tests — changing it invalidates every
/// seeded golden output downstream.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    // splitmix64: advance the state by (index + 1) golden-gamma steps,
    // then apply the output mix.
    let mut z = seed.wrapping_add((index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Balanced contiguous partition: splits `len` items into `parts`
/// groups whose sizes differ by at most one, earlier groups larger.
fn group_len(len: usize, parts: usize, g: usize) -> usize {
    let base = len / parts;
    let rem = len % parts;
    base + usize::from(g < rem)
}

/// Joins every handle, then re-raises the first worker panic (by
/// spawn order) on the calling thread.
fn join_all<T>(handles: Vec<thread::ScopedJoinHandle<'_, T>>) {
    let mut first_panic = None;
    for h in handles {
        if let Err(payload) = h.join() {
            if first_panic.is_none() {
                first_panic = Some(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Order-preserving parallel map with an explicit thread count.
///
/// Output slot `i` holds `f(&items[i])` regardless of which worker
/// computed it; `threads <= 1` (or fewer than two items) runs the map
/// inline on the calling thread — that *is* the sequential path.
pub fn parallel_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let parts = threads.min(items.len());
    thread::scope(|s| {
        let mut handles = Vec::with_capacity(parts);
        let mut out_rest: &mut [Option<R>] = &mut out;
        let mut in_rest: &[T] = items;
        let f = &f;
        for g in 0..parts {
            let take = group_len(items.len(), parts, g);
            let (out_mine, out_tail) = out_rest.split_at_mut(take);
            let (in_mine, in_tail) = in_rest.split_at(take);
            out_rest = out_tail;
            in_rest = in_tail;
            handles.push(s.spawn(move || {
                for (slot, item) in out_mine.iter_mut().zip(in_mine) {
                    *slot = Some(f(item));
                }
            }));
        }
        join_all(handles);
    });
    out.into_iter().flatten().collect()
}

/// Order-preserving parallel map using [`thread_count`] workers.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(thread_count(), items, f)
}

/// Fallible order-preserving parallel map with an explicit thread
/// count: every item is evaluated, then the error of the *lowest
/// index* (not the first to fail chronologically) is returned, so the
/// observed error does not depend on scheduling.
///
/// # Errors
///
/// Returns the lowest-index `Err` produced by `f`, if any.
pub fn try_parallel_map_with<T, R, E, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> std::result::Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> std::result::Result<R, E> + Sync,
{
    let results = parallel_map_with(threads, items, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Fallible order-preserving parallel map using [`thread_count`]
/// workers.
///
/// # Errors
///
/// Returns the lowest-index `Err` produced by `f`, if any.
pub fn try_parallel_map<T, R, E, F>(items: &[T], f: F) -> std::result::Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> std::result::Result<R, E> + Sync,
{
    try_parallel_map_with(thread_count(), items, f)
}

/// Splits `data` into fixed-length chunks (`chunk_len` apiece, the
/// last possibly shorter) and calls `f(chunk_index, chunk)` on each,
/// distributing chunks across `threads` workers.
///
/// Chunk boundaries depend only on `data.len()` and `chunk_len`, never
/// on the thread count, so a writer that fills chunk `i` from inputs
/// indexed by `i` produces identical bytes at any parallelism. This is
/// the primitive behind the row-panel parallel kernels in
/// `thermal-linalg`.
pub fn parallel_chunks_mut_with<T, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    if threads <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let n_chunks = data.len().div_ceil(chunk_len);
    let parts = threads.min(n_chunks);
    thread::scope(|s| {
        let mut handles = Vec::with_capacity(parts);
        let mut rest = data;
        let mut next_chunk = 0usize;
        let f = &f;
        for g in 0..parts {
            let take_chunks = group_len(n_chunks, parts, g);
            let take_items = (take_chunks * chunk_len).min(rest.len());
            let (mine, tail) = rest.split_at_mut(take_items);
            rest = tail;
            let first_chunk = next_chunk;
            next_chunk += take_chunks;
            handles.push(s.spawn(move || {
                for (k, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                    f(first_chunk + k, chunk);
                }
            }));
        }
        join_all(handles);
    });
}

/// Fixed-boundary chunk iteration using [`thread_count`] workers; see
/// [`parallel_chunks_mut_with`].
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    parallel_chunks_mut_with(thread_count(), data, chunk_len, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7, 16, 200] {
            let got = parallel_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_with(4, &[9], |&x| x + 1), vec![10]);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        let r: std::result::Result<Vec<usize>, usize> =
            try_parallel_map_with(8, &items, |&i| if i % 10 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(3), "lowest failing index wins, not fastest");
        let ok: std::result::Result<Vec<usize>, usize> =
            try_parallel_map_with(8, &items, |&i| Ok(i));
        assert_eq!(ok.as_deref(), Ok(&items[..]));
    }

    #[test]
    fn chunks_mut_boundaries_are_thread_independent() {
        let base: Vec<usize> = vec![0; 97];
        for chunk_len in [1, 3, 16, 97, 200] {
            let mut seq = base.clone();
            parallel_chunks_mut_with(1, &mut seq, chunk_len, |i, c| {
                for v in c.iter_mut() {
                    *v = i + 1;
                }
            });
            for threads in [2, 4, 13] {
                let mut par = base.clone();
                parallel_chunks_mut_with(threads, &mut par, chunk_len, |i, c| {
                    for v in c.iter_mut() {
                        *v = i + 1;
                    }
                });
                assert_eq!(par, seq, "chunk_len = {chunk_len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn derived_seeds_are_pinned_and_distinct() {
        // Pinned values: the splitmix64 derivation is part of the
        // workspace determinism contract (k-means restarts and fault
        // realisations depend on it).
        assert_eq!(derive_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(derive_seed(0, 1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(derive_seed(42, 0), 0xBDD7_3226_2FEB_6E95);
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "derived seeds must be distinct");
    }

    #[test]
    fn thread_count_env_override() {
        // Note: mutating the environment is process-global; the
        // determinism contract makes any concurrent reader's *results*
        // unaffected, so this cannot poison sibling tests.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(thread_count() >= 1, "0 falls back to auto-detection");
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(thread_count() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn resolve_thread_count_classifies_bad_values() {
        // Unset: fallback, no complaint.
        let (n, err) = resolve_thread_count(None);
        assert!(n >= 1);
        assert_eq!(err, None);
        // Plain and padded integers pass through.
        assert_eq!(resolve_thread_count(Some("3")), (3, None));
        assert_eq!(resolve_thread_count(Some(" 8 \n")), (8, None));
        assert_eq!(resolve_thread_count(Some("512")), (512, None));
        // Zero falls back with a typed reason.
        let (n, err) = resolve_thread_count(Some("0"));
        assert!(n >= 1);
        assert_eq!(err, Some(ThreadsParseError::Zero));
        // Garbage falls back with the offending value preserved.
        let (n, err) = resolve_thread_count(Some("not-a-number"));
        assert!(n >= 1);
        assert_eq!(
            err,
            Some(ThreadsParseError::NotANumber {
                raw: "not-a-number".to_owned()
            })
        );
        let (_, err) = resolve_thread_count(Some("-4"));
        assert!(matches!(err, Some(ThreadsParseError::NotANumber { .. })));
        // Absurd values clamp to the cap instead of spawning them.
        let (n, err) = resolve_thread_count(Some("100000"));
        assert_eq!(n, MAX_THREADS);
        assert_eq!(err, Some(ThreadsParseError::TooLarge { parsed: 100_000 }));
        // Every rejection renders a human-readable reason.
        for e in [
            ThreadsParseError::Zero,
            ThreadsParseError::TooLarge { parsed: 100_000 },
            ThreadsParseError::NotANumber { raw: "x".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn worker_panic_is_propagated_after_join() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(4, &[1_u32, 2, 3, 4, 5, 6, 7, 8], |&x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    proptest! {
        #[test]
        fn prop_map_matches_sequential(
            items in prop::collection::vec(any::<u64>(), 0usize..200),
            threads in 1usize..17,
        ) {
            let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(3) ^ 0x5A).collect();
            let par = parallel_map_with(threads, &items, |&x| x.wrapping_mul(3) ^ 0x5A);
            prop_assert_eq!(par, seq);
        }

        #[test]
        fn prop_chunks_match_sequential(
            len in 0usize..300,
            chunk_len in 1usize..64,
            threads in 1usize..17,
        ) {
            let mut seq = vec![0u64; len];
            let mut par = vec![0u64; len];
            let fill = |i: usize, c: &mut [u64]| {
                for (k, v) in c.iter_mut().enumerate() {
                    *v = (i as u64) << 32 | k as u64;
                }
            };
            parallel_chunks_mut_with(1, &mut seq, chunk_len, fill);
            parallel_chunks_mut_with(threads, &mut par, chunk_len, fill);
            prop_assert_eq!(par, seq);
        }
    }
}
