//! Thread-count policy for every parallel stage in the workspace (routing,
//! detour tables, inverted-index builds), so all of them size and clamp
//! worker counts identically: requests are clamped to the number of
//! independent work units (extra workers would idle), never below one, and
//! the "use all cores" default comes from `available_parallelism()` with a
//! logged fallback.

/// Worker threads used when a caller asks for the automatic thread count:
/// `std::thread::available_parallelism()`, falling back to 4 when the
/// platform cannot report it (e.g. restricted sandboxes). The fallback is
/// logged to stderr once per process so a silently mis-sized run is
/// diagnosable.
pub fn default_threads() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(err) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "rap-traffic: available_parallelism() failed ({err}); \
                     defaulting to 4 worker threads"
                );
            });
            4
        }
    }
}

/// The single clamp point for requested thread counts: never more workers
/// than independent work units, never fewer than one.
pub fn effective_threads(requested: usize, unit_count: usize) -> usize {
    requested.min(unit_count).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_matches_core_policy() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
        assert_eq!(effective_threads(0, 10), 1);
    }

    #[test]
    fn default_is_positive() {
        assert!(default_threads() >= 1);
    }
}
