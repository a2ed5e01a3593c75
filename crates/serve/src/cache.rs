//! LRU cache for prepared-weights planes, one per protocol variant.
//!
//! The resident NTT-form masks are the server's largest steady-state
//! allocation, so the cache bounds how many variants' planes stay
//! resident at once: entries are kept in recency order and the
//! least-recently-used **initialized** plane is dropped when the bound
//! is exceeded. Evictions are observable (`/stats` reports an eviction
//! counter and the resident-mask gauge shrinks), and an evicted plane
//! simply rebuilds on next use — correctness never depends on
//! residency.

use primer_core::ModelPlane;
use std::sync::{Arc, Mutex, OnceLock};

/// One lazily-built prepared plane. The cell is handed out under the
/// cache lock but **built outside it** (inside `OnceLock::get_or_init`),
/// so one plane's encode never blocks another key's sessions.
pub(crate) type PlaneCell = Arc<OnceLock<Arc<ModelPlane>>>;

/// Cache key: the variant code. One server serves one model, and the
/// layout selector is a pure function of the model's public shapes and
/// the variant, so the variant alone determines every chain mode a
/// plane's masks were built for.
pub(crate) type PlaneKey = u8;

struct Entry {
    key: PlaneKey,
    cell: PlaneCell,
}

/// Bounded most-recently-used-first plane cache.
pub(crate) struct LruPlaneCache {
    capacity: usize,
    /// MRU at the front. A Vec beats a linked structure here: the cache
    /// holds at most one entry per variant, so moves are cheap and
    /// iteration order is the recency order.
    entries: Mutex<Vec<Entry>>,
}

impl LruPlaneCache {
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), entries: Mutex::new(Vec::new()) }
    }

    /// Fetches (or inserts) the cell for `key`, marking it
    /// most-recently-used, then evicts least-recently-used initialized
    /// planes while the cache is over capacity. Returns the cell plus
    /// every plane evicted by this touch (for the caller to account).
    ///
    /// Uninitialized cells (a build in flight on another worker) are
    /// never evicted — the cache may briefly overshoot its bound while
    /// several distinct planes build concurrently, and trims on a later
    /// touch. The requested key is likewise never evicted, so capacity 1
    /// still serves.
    pub fn touch(&self, key: PlaneKey) -> (PlaneCell, Vec<Arc<ModelPlane>>) {
        let mut entries = self.entries.lock().expect("plane cache mutex poisoned");
        let cell = match entries.iter().position(|e| e.key == key) {
            Some(i) => {
                let e = entries.remove(i);
                let cell = Arc::clone(&e.cell);
                entries.insert(0, e);
                cell
            }
            None => {
                let cell: PlaneCell = Arc::default();
                entries.insert(0, Entry { key, cell: Arc::clone(&cell) });
                cell
            }
        };
        let mut evicted = Vec::new();
        while entries.len() > self.capacity {
            let victim = entries
                .iter()
                .rposition(|e| e.key != key && e.cell.get().is_some());
            match victim {
                Some(i) => {
                    let e = entries.remove(i);
                    evicted.push(Arc::clone(e.cell.get().expect("victim was initialized")));
                }
                None => break,
            }
        }
        (cell, evicted)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().expect("plane cache mutex poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Planes are expensive to build, so the unit tests only exercise
    // the recency/eviction mechanics with uninitialized vs initialized
    // cells; integration tests cover real planes end to end.
    #[test]
    fn uninitialized_cells_are_never_evicted() {
        let cache = LruPlaneCache::new(1);
        let (_a, ev) = cache.touch(0);
        assert!(ev.is_empty());
        let (_b, ev) = cache.touch(1);
        // Neither cell is initialized: overshoot, no eviction.
        assert!(ev.is_empty());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn same_key_returns_same_cell() {
        let cache = LruPlaneCache::new(2);
        let (a1, _) = cache.touch(0);
        let (a2, _) = cache.touch(0);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_floor_is_one() {
        let cache = LruPlaneCache::new(0);
        assert_eq!(cache.capacity, 1);
    }
}
