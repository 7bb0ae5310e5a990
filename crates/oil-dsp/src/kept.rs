//! Computed-once values shared between kernel instances.
//!
//! Every engine run instantiates each of a program's kernels again, and a
//! filter design or an oscillator table is a `sin` per entry (thousands for
//! the PAL front end) — inside the run's set-up time. The values are
//! immutable, so instances share them through an [`Arc`](std::sync::Arc)
//! kept here under the exact bit patterns of the parameters.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Values kept per table at most; past that, new ones are computed and
/// not kept, so a caller sweeping parameters cannot grow the process.
const KEPT: usize = 64;

/// A keep-at-most-[`KEPT`] table of computed values.
pub(crate) struct Kept<K, V>(Mutex<BTreeMap<K, V>>);

impl<K: Ord, V: Clone> Kept<K, V> {
    pub(crate) const fn new() -> Self {
        Kept(Mutex::new(BTreeMap::new()))
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<K, V>> {
        // A panic while the lock is held leaves the map whole (an entry is
        // inserted complete or not at all), so a poisoned lock is usable.
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The value kept under `key`, or `make()` — computed outside the lock
    /// and kept while there is room.
    pub(crate) fn get_or_make(&self, key: K, make: impl FnOnce() -> V) -> V {
        if let Some(value) = self.lock().get(&key) {
            return value.clone();
        }
        let value = make();
        let mut kept = self.lock();
        if kept.len() < KEPT {
            kept.insert(key, value.clone());
        }
        value
    }
}
