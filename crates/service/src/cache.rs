//! The LRU frame cache.
//!
//! Rendered frames are memoised under a [`FrameKey`] — the stable content
//! hashes of the field and the session configuration, the seed, and the
//! frame index. Because a session's frames are a pure function of exactly
//! those four values (steering restarts the animation clock), a repeated or
//! steered-back request finds its frame here and skips synthesis entirely.
//! Hit/miss/eviction counters are reported through
//! [`spotnoise::metrics::CacheStats`] on the `/stats` endpoint.

use spotnoise::metrics::CacheStats;
use spotnoise::telemetry::{self, TraceSink, TraceStage};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The identity of one rendered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FrameKey {
    /// [`FieldSpec::cache_key`](crate::spec::FieldSpec::cache_key) of the
    /// session's field.
    pub field: u64,
    /// [`SessionSpec::config_cache_key`](crate::spec::SessionSpec::config_cache_key)
    /// of the session's configuration.
    pub config: u64,
    /// The synthesis seed (also folded into the config key; kept explicit so
    /// the key matches the paper-facing description and survives config-key
    /// schema changes).
    pub seed: u64,
    /// Frame index since the session's (re)start.
    pub frame: u64,
}

struct Entry {
    bytes: Arc<Vec<u8>>,
    tick: u64,
}

/// A least-recently-used cache of rendered frame byte buffers.
///
/// The budget is in **bytes**, not frames — a session is allowed textures
/// up to 2048² (16 MB per frame), so counting entries would let a handful
/// of large-texture sessions hold gigabytes. Byte accounting keeps the
/// overload story honest: cache memory is flat no matter what mix of frame
/// sizes clients request.
///
/// Not internally synchronized — the service wraps it in a `Mutex` and holds
/// the lock only for the O(log n) bookkeeping, never during synthesis.
pub(crate) struct FrameCache {
    capacity_bytes: usize,
    bytes: usize,
    entries: HashMap<FrameKey, Entry>,
    recency: BTreeMap<u64, FrameKey>,
    tick: u64,
    stats: CacheStats,
    /// Trace sink insertions are reported to (disabled by default).
    trace: TraceSink,
}

impl FrameCache {
    /// Creates a cache holding at most `capacity_bytes` of frame data (0
    /// disables caching: every lookup misses and inserts are dropped).
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        FrameCache {
            capacity_bytes,
            bytes: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            trace: TraceSink::disabled(),
        }
    }

    /// Installs the trace sink insertions report
    /// [`CacheInsert`](TraceStage::CacheInsert) spans to.
    pub(crate) fn set_trace_sink(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Number of cached frames.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes currently held.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Restores the cache's derived state after a panic may have left an
    /// update half-applied (the poison-recovery hook for the mutex the
    /// service wraps this cache in): the entry map is the ground truth, so
    /// the byte total, the recency index and the tick cursor are all
    /// recomputed from it, then the byte budget is re-enforced. Duplicate
    /// ticks (possible if a panic hit between the two map updates) collapse
    /// to one recency slot, in which case the orphaned entries are dropped
    /// to keep the two structures in lockstep.
    pub(crate) fn revalidate(&mut self) {
        let mut recency: BTreeMap<u64, FrameKey> = BTreeMap::new();
        for (key, entry) in &self.entries {
            recency.insert(entry.tick, *key);
        }
        self.entries
            .retain(|key, entry| recency.get(&entry.tick) == Some(key));
        self.bytes = self.entries.values().map(|e| e.bytes.len()).sum();
        self.tick = recency.keys().next_back().copied().unwrap_or(0) + 1;
        self.recency = recency;
        while self.bytes > self.capacity_bytes {
            let (&oldest, &victim) = self.recency.iter().next().expect("recency in sync");
            self.recency.remove(&oldest);
            let evicted = self.entries.remove(&victim).expect("entries in sync");
            self.bytes -= evicted.bytes.len();
            self.stats.evictions += 1;
        }
    }

    /// Counted lookup: the front-door check for a requested frame. A hit
    /// refreshes the entry's recency.
    pub(crate) fn lookup(&mut self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        match self.touch(key) {
            Some(bytes) => {
                self.stats.hits += 1;
                Some(bytes)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Uncounted lookup: the worker's re-check after admission (a racing
    /// request may have rendered the frame while this one queued). Refreshes
    /// recency but does not distort the hit rate, which counts each frame
    /// request once at the front door.
    pub(crate) fn peek(&mut self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        self.touch(key)
    }

    fn touch(&mut self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&key)?;
        self.recency.remove(&entry.tick);
        entry.tick = tick;
        self.recency.insert(tick, key);
        Some(Arc::clone(&entry.bytes))
    }

    /// Stores a rendered frame, evicting the least recently used entries
    /// until the byte budget holds. Re-inserting an existing key refreshes
    /// its bytes and recency. A single frame larger than the whole budget
    /// is evicted immediately (the cache never lies about its bound). The
    /// entry is tagged as a *look-ahead* frame when `lookahead` is set: one
    /// rendered on the way to a requested index rather than for the request
    /// itself. Look-ahead insertions are
    /// counted in [`CacheStats::inserted_lookahead`] so `/stats` shows how
    /// much future-serving work each synthesis burst banked.
    pub(crate) fn insert_tagged(&mut self, key: FrameKey, bytes: Arc<Vec<u8>>, lookahead: bool) {
        if self.capacity_bytes == 0 {
            return;
        }
        let insert_start = Instant::now();
        if lookahead {
            self.stats.inserted_lookahead += 1;
        }
        self.tick += 1;
        let tick = self.tick;
        self.bytes += bytes.len();
        if let Some(old) = self.entries.insert(key, Entry { bytes, tick }) {
            self.recency.remove(&old.tick);
            self.bytes -= old.bytes.len();
        }
        self.recency.insert(tick, key);
        self.stats.insertions += 1;
        while self.bytes > self.capacity_bytes {
            // The smallest tick is the least recently used entry.
            let (&oldest, &victim) = self.recency.iter().next().expect("recency in sync");
            self.recency.remove(&oldest);
            let evicted = self.entries.remove(&victim).expect("entries in sync");
            self.bytes -= evicted.bytes.len();
            self.stats.evictions += 1;
        }
        // Inserts happen on the worker that synthesized the frame, so the
        // thread's trace context already carries the actor and frame ids;
        // detail = 1 marks a look-ahead insertion.
        self.trace.record_with(
            TraceStage::CacheInsert,
            telemetry::ctx(),
            insert_start,
            insert_start.elapsed(),
            lookahead as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(frame: u64) -> FrameKey {
        FrameKey {
            field: 1,
            config: 2,
            seed: 3,
            frame,
        }
    }

    fn bytes(v: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![v; 8])
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = FrameCache::new(32);
        assert!(c.lookup(key(0)).is_none());
        c.insert(key(0), bytes(7));
        assert_eq!(c.lookup(key(0)).unwrap()[0], 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.bytes(), 8);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = FrameCache::new(32);
        c.insert(key(0), bytes(1));
        assert!(c.peek(key(0)).is_some());
        assert!(c.peek(key(1)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Room for exactly three 8-byte frames.
        let mut c = FrameCache::new(24);
        for f in 0..3 {
            c.insert(key(f), bytes(f as u8));
        }
        assert_eq!(c.bytes(), 24);
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.lookup(key(0)).is_some());
        c.insert(key(3), bytes(3));
        assert_eq!(c.len(), 3);
        assert_eq!(c.bytes(), 24);
        assert!(c.peek(key(1)).is_none(), "LRU entry should be evicted");
        assert!(c.peek(key(0)).is_some());
        assert!(c.peek(key(2)).is_some());
        assert!(c.peek(key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn budget_is_in_bytes_not_entries() {
        // 64 bytes of budget: eight 8-byte frames fit, but two 32-byte
        // frames already fill it — a third evicts the oldest.
        let mut c = FrameCache::new(64);
        let big = |v: u8| Arc::new(vec![v; 32]);
        c.insert(key(0), big(0));
        c.insert(key(1), big(1));
        assert_eq!((c.len(), c.bytes()), (2, 64));
        c.insert(key(2), big(2));
        assert_eq!((c.len(), c.bytes()), (2, 64));
        assert!(c.peek(key(0)).is_none());
        // A frame bigger than the whole budget never sticks.
        c.insert(key(9), Arc::new(vec![9; 128]));
        assert!(c.peek(key(9)).is_none());
        assert!(c.bytes() <= 64);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = FrameCache::new(16);
        c.insert(key(0), bytes(1));
        c.insert(key(0), bytes(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 8);
        assert_eq!(c.peek(key(0)).unwrap()[0], 2);
        c.insert(key(1), bytes(3));
        c.insert(key(2), bytes(4));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = FrameCache::new(0);
        c.insert(key(0), bytes(1));
        c.insert_tagged(key(1), bytes(2), true);
        assert!(c.is_empty());
        assert!(c.lookup(key(0)).is_none());
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().inserted_lookahead, 0);
    }

    #[test]
    fn lookahead_insertions_are_counted_separately() {
        let mut c = FrameCache::new(64);
        // A request for frame 2 renders 0 and 1 on the way: two look-ahead
        // insertions, one direct.
        c.insert_tagged(key(0), bytes(0), true);
        c.insert_tagged(key(1), bytes(1), true);
        c.insert_tagged(key(2), bytes(2), false);
        let s = c.stats();
        assert_eq!(s.insertions, 3);
        assert_eq!(s.inserted_lookahead, 2);
        // All three entries are equally real cache entries.
        assert!(c.peek(key(0)).is_some());
        assert!(c.peek(key(2)).is_some());
    }

    #[test]
    fn revalidate_rebuilds_derived_state_from_the_entries() {
        let mut c = FrameCache::new(32);
        for f in 0..3 {
            c.insert(key(f), bytes(f as u8));
        }
        // Simulate a panic that corrupted the derived bookkeeping.
        c.bytes = 9999;
        c.recency.clear();
        c.tick = 0;
        c.revalidate();
        assert_eq!(c.bytes(), 24);
        assert_eq!(c.len(), 3);
        // The cache is fully functional again: lookups hit, inserts evict.
        assert!(c.lookup(key(0)).is_some());
        c.insert(key(3), bytes(3));
        assert!(c.bytes() <= 32);
        // Over-budget state left by a torn insert is re-enforced too.
        let mut c = FrameCache::new(16);
        c.insert(key(0), bytes(0));
        c.insert(key(1), bytes(1));
        c.capacity_bytes = 8;
        c.revalidate();
        assert!(c.bytes() <= 8);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn distinct_key_components_are_distinct_entries() {
        let mut c = FrameCache::new(64);
        let base = key(0);
        let variants = [
            FrameKey { field: 9, ..base },
            FrameKey { config: 9, ..base },
            FrameKey { seed: 9, ..base },
            FrameKey { frame: 9, ..base },
        ];
        c.insert(base, bytes(0));
        for (i, v) in variants.iter().enumerate() {
            c.insert(*v, bytes(i as u8 + 1));
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.peek(base).unwrap()[0], 0);
    }

    impl FrameCache {
        /// True when nothing is cached.
        fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Stores a requested (not look-ahead) frame.
        fn insert(&mut self, key: FrameKey, bytes: Arc<Vec<u8>>) {
            self.insert_tagged(key, bytes, false);
        }
    }
}
