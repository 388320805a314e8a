//! Per-node encoded-chunk cache.
//!
//! Storage nodes that repeatedly serve filter pushdown over the same
//! chunks should not re-read and re-parse them on every query (the paper's
//! nodes scan chunks in situ; OASIS-style offloading engines keep exactly
//! this working set hot). The cache holds [`EncodedChunk`] views — decoded
//! dictionary plus run structure, cheap to hold and immediately scannable
//! by the encoded-domain kernels — keyed by object, then chunk ordinal,
//! evicting least-recently-used entries once the configured byte capacity
//! is exceeded. A healthy chunk's view is modelled as held by its node;
//! a split or degraded chunk's view, which the coordinator reassembled or
//! rebuilt, as held by the coordinator. Either way the view holds the
//! chunk's exact bytes, since objects are immutable.
//!
//! Queries run on `&Store`, so the cache uses interior mutability; all
//! state sits behind one mutex, locked only for the brief lookup/insert
//! bookkeeping (never across a parse or a scan), and a lookup borrows the
//! object name rather than building a key. Entries are `Arc`s, so
//! concurrent requests that hit share one view without copying.
//!
//! Invalidation: anything that rewrites or loses blocks drops the affected
//! entries — delete and scrub-heal invalidate per object; node failure,
//! recovery, and injected faults clear the cache wholesale (the data any
//! node cached may no longer match what the data plane would serve, and a
//! rebuilt view belongs to the coordinator of the membership that built
//! it).

use fusion_format::chunk::EncodedChunk;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cumulative cache counters (monotonic over the store's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Debug)]
struct Entry {
    chunk: Arc<EncodedChunk>,
    weight: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Object → chunk ordinal → entry: a lookup borrows the object name
    /// instead of building an owned key, and an object's entries drop
    /// together. No inner map is left empty.
    entries: HashMap<String, HashMap<usize, Entry>>,
    tick: u64,
    resident: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Byte-capacity LRU of parsed chunk views. See the module docs.
#[derive(Debug)]
pub struct ChunkCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ChunkCache {
    /// Creates a cache holding at most `capacity` bytes (0 disables).
    pub fn new(capacity: usize) -> ChunkCache {
        ChunkCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Configured byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the cache state. A panic under the lock poisons it; the
    /// guard is recovered and the cache emptied, since its byte
    /// accounting may have drifted and a cache can always be refilled.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.entries.clear();
            inner.resident = 0;
            self.inner.clear_poison();
            inner
        })
    }

    /// Looks up a chunk view, counting a hit or miss and refreshing
    /// recency on hit.
    pub fn get(&self, object: &str, ordinal: usize) -> Option<Arc<EncodedChunk>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner
            .entries
            .get_mut(object)
            .and_then(|m| m.get_mut(&ordinal));
        match found {
            Some(e) => {
                e.last_used = tick;
                let chunk = e.chunk.clone();
                inner.hits += 1;
                Some(chunk)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a chunk view, evicting LRU entries until the
    /// capacity holds. Degenerate inserts — a disabled cache
    /// (`capacity == 0`) or a view heavier than the whole capacity — are
    /// rejected up front so they can never underflow `resident` or leave
    /// the eviction loop spinning on an empty map.
    pub fn insert(&self, object: &str, ordinal: usize, chunk: Arc<EncodedChunk>) {
        self.insert_or_get(object, ordinal, chunk);
    }

    /// Race-safe miss-path insert: publishes `chunk` under the key
    /// **unless another thread got there first**, in which case the
    /// already-resident view is promoted and returned and `chunk` is
    /// dropped. The read-back and the publish are one critical section,
    /// so two threads that both missed on the same chunk converge on a
    /// single shared view instead of the second insert evicting (and
    /// re-accounting) the first — the get/insert promotion race that a
    /// naive `get` + `insert` pair has under real concurrency.
    ///
    /// Counter discipline: this path counts neither a hit nor a miss (the
    /// preceding [`ChunkCache::get`] already counted the miss), so
    /// `hits + misses` equals lookups exactly, no matter how the race
    /// lands.
    pub fn insert_or_get(
        &self,
        object: &str,
        ordinal: usize,
        chunk: Arc<EncodedChunk>,
    ) -> Arc<EncodedChunk> {
        let weight = chunk.weight_bytes();
        if self.capacity == 0 || weight > self.capacity {
            return chunk;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = || Entry {
            chunk: chunk.clone(),
            weight,
            last_used: tick,
        };
        match inner.entries.get_mut(object) {
            Some(chunks) => {
                if let Some(existing) = chunks.get_mut(&ordinal) {
                    // Lost the race (or a refresh of a live entry): keep
                    // the resident view and its accounting, refresh
                    // recency only.
                    existing.last_used = tick;
                    return existing.chunk.clone();
                }
                chunks.insert(ordinal, entry());
            }
            None => {
                let chunks = HashMap::from([(ordinal, entry())]);
                inner.entries.insert(object.to_string(), chunks);
            }
        }
        inner.resident += weight;
        while inner.resident > self.capacity {
            // Linear LRU scan: entry counts are modest (chunks, not rows),
            // and eviction is off the scan hot path. Ticks are unique, so
            // the victim does not depend on iteration order.
            let Some((object, ordinal)) = inner
                .entries
                .iter()
                .flat_map(|(o, chunks)| chunks.iter().map(move |(&c, e)| (o, c, e.last_used)))
                .min_by_key(|&(_, _, last_used)| last_used)
                .map(|(o, c, _)| (o.clone(), c))
            else {
                // Accounting drift (resident > 0 with no entries) must
                // degrade to a reset, not a panic on the query path.
                debug_assert!(false, "resident > 0 with no entries");
                inner.resident = 0;
                break;
            };
            let chunks = inner.entries.get_mut(&object).expect("victim present");
            let evicted = chunks.remove(&ordinal).expect("victim present");
            if chunks.is_empty() {
                inner.entries.remove(&object);
            }
            inner.resident = inner.resident.saturating_sub(evicted.weight);
            inner.evictions += 1;
        }
        chunk
    }

    /// Drops every entry of one object (delete, scrub heal, re-put).
    pub fn invalidate_object(&self, object: &str) {
        let mut inner = self.lock();
        if let Some(chunks) = inner.entries.remove(object) {
            let weight: usize = chunks.values().map(|e| e.weight).sum();
            inner.resident -= weight;
        }
    }

    /// Drops everything (node failure/recovery, injected faults).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.resident = 0;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.resident as u64,
            entries: inner.entries.values().map(HashMap::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_format::value::ColumnData;

    fn chunk(n: usize) -> Arc<EncodedChunk> {
        Arc::new(EncodedChunk::Plain(ColumnData::Int64(
            (0..n as i64).collect(),
        )))
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = ChunkCache::new(1 << 20);
        assert!(c.get("o", 0).is_none());
        c.insert("o", 0, chunk(10));
        let got = c.get("o", 0).expect("hit");
        assert_eq!(got.rows(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.resident_bytes, 80);
    }

    #[test]
    fn lru_eviction_by_bytes() {
        // Each 10-row Int64 chunk weighs 80 bytes; capacity fits two.
        let c = ChunkCache::new(170);
        c.insert("o", 0, chunk(10));
        c.insert("o", 1, chunk(10));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.get("o", 0).is_some());
        c.insert("o", 2, chunk(10));
        assert!(c.get("o", 1).is_none(), "LRU entry evicted");
        assert!(c.get("o", 0).is_some());
        assert!(c.get("o", 2).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn oversized_and_disabled() {
        let c = ChunkCache::new(8);
        c.insert("o", 0, chunk(10)); // 80 bytes > capacity: not cached
        assert!(c.get("o", 0).is_none());
        let off = ChunkCache::new(0);
        off.insert("o", 0, chunk(1));
        assert!(off.get("o", 0).is_none());
        // Disabled cache counts nothing.
        assert_eq!(off.stats().misses, 0);
    }

    #[test]
    fn zero_capacity_inserts_never_underflow() {
        // Regression: a disabled cache must absorb any insert pattern
        // without touching `resident` (underflow) or evicting.
        let off = ChunkCache::new(0);
        for i in 0..10 {
            off.insert("o", i, chunk(100));
            off.insert("o", i, chunk(1)); // re-insert, lighter
        }
        let s = off.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn oversized_insert_leaves_residents_intact() {
        // Regression: an entry heavier than the whole capacity must be
        // rejected without evicting what is already cached or tripping
        // the eviction loop.
        let c = ChunkCache::new(100);
        c.insert("o", 0, chunk(10)); // 80 bytes, fits
        c.insert("o", 1, chunk(1_000)); // 8000 bytes > capacity: rejected
        assert!(c.get("o", 0).is_some(), "resident entry survives");
        assert!(c.get("o", 1).is_none());
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, 80);
        assert_eq!(s.evictions, 0);
        // Re-inserting the resident key with an oversized view keeps the
        // old view rather than corrupting the accounting.
        c.insert("o", 0, chunk(1_000));
        assert_eq!(c.stats().resident_bytes, 80);
        assert_eq!(c.get("o", 0).expect("still cached").rows(), 10);
    }

    #[test]
    fn exact_capacity_insert_is_cached() {
        // Boundary: weight == capacity is allowed and fully occupies the
        // cache; the next insert evicts it.
        let c = ChunkCache::new(80);
        c.insert("o", 0, chunk(10));
        assert!(c.get("o", 0).is_some());
        c.insert("o", 1, chunk(10));
        assert!(c.get("o", 1).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().resident_bytes, 80);
    }

    #[test]
    fn invalidation() {
        let c = ChunkCache::new(1 << 20);
        c.insert("a", 0, chunk(10));
        c.insert("a", 1, chunk(10));
        c.insert("b", 0, chunk(10));
        c.invalidate_object("a");
        assert!(c.get("a", 0).is_none());
        assert!(c.get("a", 1).is_none());
        assert!(c.get("b", 0).is_some());
        assert_eq!(c.stats().resident_bytes, 80);
        c.clear();
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn reinsert_keeps_resident_view() {
        // Chunk views are immutable for a given (object, ordinal) — re-put
        // is rejected upstream and heals invalidate first — so a racing
        // second insert must converge on the first view instead of
        // replacing it (which would churn accounting and drop sharing).
        let c = ChunkCache::new(1 << 20);
        let first = chunk(10);
        c.insert("o", 0, first.clone());
        let got = c.insert_or_get("o", 0, chunk(20));
        assert!(Arc::ptr_eq(&got, &first), "loser adopts the winner's view");
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, 80);
    }

    #[test]
    fn poisoned_lock_recovers_empty() {
        let c = ChunkCache::new(1 << 20);
        c.insert("o", 0, chunk(10));
        let _ = std::panic::catch_unwind(|| {
            let _guard = c.inner.lock().unwrap();
            panic!("poison the cache lock");
        });
        assert!(c.inner.is_poisoned());
        // The first lock after the panic empties the cache and clears
        // the poison; the cache keeps working.
        assert!(c.get("o", 0).is_none());
        assert!(!c.inner.is_poisoned());
        c.insert("o", 1, chunk(10));
        assert!(c.get("o", 1).is_some());
        let s = c.stats();
        assert_eq!((s.entries, s.resident_bytes), (1, 80));
    }

    #[test]
    fn racing_threads_converge_without_evictions() {
        // Regression for the get/insert promotion race: many threads all
        // miss on the same chunk and publish concurrently. Exactly one
        // view must win, nobody may evict anybody, counters must satisfy
        // hits + misses == lookups, and resident accounting must be exact.
        use std::sync::Barrier;
        let c = Arc::new(ChunkCache::new(1 << 20));
        let threads = 8;
        let rounds = 50;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..rounds {
                        let view = match c.get("o", i) {
                            Some(v) => v,
                            None => c.insert_or_get("o", i, chunk(10)),
                        };
                        assert_eq!(view.rows(), 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics under the race");
        }
        let s = c.stats();
        assert_eq!(s.entries, rounds);
        assert_eq!(s.resident_bytes, 80 * rounds as u64);
        assert_eq!(s.evictions, 0, "convergence never evicts");
        assert_eq!(
            s.hits + s.misses,
            (threads * rounds) as u64,
            "every lookup counted exactly once"
        );
        // At least one miss per distinct chunk (the first thread there).
        assert!(s.misses >= rounds as u64);
    }
}
