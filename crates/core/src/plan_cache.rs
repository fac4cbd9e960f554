//! Cross-session shared [`ExecutionPlan`] cache.
//!
//! PR 4 memoized execution plans per `Session`; the serving plane
//! promotes that memoization behind this concurrency-safe, capacity-
//! bounded cache so many sessions over identically-built graphs (one
//! per server worker, or thousands of short-lived tenant sessions)
//! build each plan once. Entries are keyed by
//! `(graph fingerprint, device signature, run signature)`:
//!
//! * the *graph fingerprint* hashes the serialized GraphDef mixed with
//!   the graph's mutation generation, so identically-built graphs
//!   share entries while any structural change or explicit
//!   `invalidate_plans()` call re-keys them (unserializable graphs
//!   fall back to their process-unique uid — correct, never shared);
//! * the *device signature* covers everything placement resolution
//!   depends on ([`crate::DeviceCtx::placement_signature`]), since
//!   plans embed resolved placements;
//! * the *run signature* is the session's sorted fetch/feed-node id
//!   sets plus whether the plan-time rewrite was on. Lookups hash and
//!   compare it by reference ([`KeyView`]); only an insert copies it.
//!
//! Capacity `0` means unbounded — the per-`Session` default, which
//! keeps pre-existing step-replay behavior bit-identical. A bounded
//! cache evicts the least-recently-used entry and counts it (also in
//! the global `tfhpc_plan_cache_evictions_total` metric).

use crate::graph::NodeId;
use crate::session::ExecutionPlan;
use parking_lot::Mutex;
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cache key by reference: what a run hashes and compares on a
/// lookup, straight from its own id sets — the key itself is copied
/// only when the lookup misses and it has to be stored.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KeyView<'a> {
    /// Graph content + generation fingerprint.
    pub fingerprint: u64,
    /// [`crate::DeviceCtx::placement_signature`].
    pub devices: u64,
    /// Whether the plan was built with the plan-time rewrite on
    /// (sessions with a debugger attached build without it and must
    /// not be handed a fused plan, nor hand theirs out).
    pub fused: bool,
    /// Fetch ids, sorted and deduplicated.
    pub fetches: &'a [NodeId],
    /// Fed node ids, sorted and deduplicated.
    pub feeds: &'a [NodeId],
}

impl KeyView<'_> {
    fn to_key(self) -> SharedKey {
        SharedKey {
            fingerprint: self.fingerprint,
            devices: self.devices,
            fused: self.fused,
            fetches: self.fetches.to_vec(),
            feeds: self.feeds.to_vec(),
        }
    }
}

/// The stored form of a [`KeyView`].
#[derive(Clone)]
struct SharedKey {
    fingerprint: u64,
    devices: u64,
    fused: bool,
    fetches: Vec<NodeId>,
    feeds: Vec<NodeId>,
}

/// Lets the map be probed with a borrowed [`KeyView`]: both key forms
/// hash and compare as their view.
trait AsKeyView {
    fn view(&self) -> KeyView<'_>;
}

impl AsKeyView for SharedKey {
    fn view(&self) -> KeyView<'_> {
        KeyView {
            fingerprint: self.fingerprint,
            devices: self.devices,
            fused: self.fused,
            fetches: &self.fetches,
            feeds: &self.feeds,
        }
    }
}

impl AsKeyView for KeyView<'_> {
    fn view(&self) -> KeyView<'_> {
        *self
    }
}

impl<'a> Borrow<dyn AsKeyView + 'a> for SharedKey {
    fn borrow(&self) -> &(dyn AsKeyView + 'a) {
        self
    }
}

impl Hash for dyn AsKeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for dyn AsKeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn AsKeyView + '_ {}

impl Hash for SharedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for SharedKey {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for SharedKey {}

/// A run's fetch or feed ids as the cache keys them — sorted and
/// deduplicated. Ids that already are (the usual case) pass through
/// untouched, borrowed ones without a copy.
pub(crate) fn sorted_unique(ids: Cow<'_, [NodeId]>) -> Cow<'_, [NodeId]> {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return ids;
    }
    let mut ids = ids.into_owned();
    ids.sort_unstable();
    ids.dedup();
    Cow::Owned(ids)
}

/// Point-in-time counters of a [`SharedPlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that found nothing (the caller then built + inserted).
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry {
    plan: Arc<ExecutionPlan>,
    /// LRU stamp: the cache-wide tick of the last lookup hit (or the
    /// insert). Ticks are unique, so eviction order is total.
    last_used: u64,
}

struct Inner {
    map: HashMap<SharedKey, Entry>,
    tick: u64,
}

/// A concurrency-safe, LRU-bounded store of built execution plans,
/// shareable across any number of [`crate::Session`]s.
pub struct SharedPlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SharedPlanCache {
    /// Cache holding at most `capacity` plans (`0` = unbounded).
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Unbounded cache (the per-session default).
    pub fn unbounded() -> SharedPlanCache {
        SharedPlanCache::new(0)
    }

    /// Configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters and resident-entry count.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    pub(crate) fn lookup(&self, key: &KeyView<'_>) -> Option<Arc<ExecutionPlan>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key as &dyn AsKeyView) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn insert(&self, key: &KeyView<'_>, plan: Arc<ExecutionPlan>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key.to_key(),
            Entry {
                plan,
                last_used: tick,
            },
        );
        if self.capacity > 0 {
            while inner.map.len() > self.capacity {
                // O(n) LRU scan; stamps are unique so the victim is
                // deterministic. Plan counts are small (hundreds).
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        inner.map.remove(&k);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        tfhpc_obs::global()
                            .counter("tfhpc_plan_cache_evictions_total")
                            .add(1);
                    }
                    None => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_unique_borrows_canonical_ids_and_canonicalizes_the_rest() {
        let canonical = [NodeId(1), NodeId(4), NodeId(9)];
        assert!(matches!(
            sorted_unique(Cow::Borrowed(&canonical[..])),
            Cow::Borrowed(_)
        ));
        let messy = [NodeId(9), NodeId(1), NodeId(9), NodeId(4), NodeId(1)];
        assert_eq!(&*sorted_unique(Cow::Borrowed(&messy[..])), &canonical[..]);
        assert!(sorted_unique(Cow::Borrowed(&[][..])).is_empty());
    }
}
