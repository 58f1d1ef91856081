//! A set-associative cache tag store with true-LRU replacement.
//!
//! The simulator is trace driven, so caches only track *which lines are
//! present*, not their data — load values travel with the trace. Latency is
//! carried in the config and applied by the hierarchy.

use rfp_types::{Addr, ConfigError, Cycle};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Load-to-use latency of a hit at this level, in cycles.
    pub latency: Cycle,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / rfp_types::CACHE_LINE_BYTES) as usize / self.ways.max(1)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the capacity is not an exact multiple
    /// of `ways * line_size`, or any field is zero.
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if self.size_bytes == 0 || self.ways == 0 || self.latency == 0 {
            return Err(ConfigError::new(
                name,
                "size, ways and latency must be nonzero",
            ));
        }
        let lines = self.size_bytes / rfp_types::CACHE_LINE_BYTES;
        if lines * rfp_types::CACHE_LINE_BYTES != self.size_bytes {
            return Err(ConfigError::new(
                name,
                "size must be a multiple of the line size",
            ));
        }
        if !lines.is_multiple_of(self.ways as u64) {
            return Err(ConfigError::new(
                name,
                "line count must be divisible by associativity",
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// A set-associative tag store.
///
/// # Examples
///
/// ```
/// use rfp_mem::{Cache, CacheConfig};
/// use rfp_types::Addr;
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 4, latency: 5 }).unwrap();
/// let a = Addr::new(0x1000);
/// assert!(!c.access(a));     // cold miss
/// c.fill(a);
/// assert!(c.access(a));      // now a hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid geometry (see
    /// [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        config.validate("cache")?;
        let sets = vec![vec![Way::default(); config.ways]; config.sets()];
        Ok(Cache {
            config,
            sets,
            stamp: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Looks up the line containing `addr`, updating LRU on a hit.
    /// Returns true on a hit. Does not allocate on a miss.
    pub fn access(&mut self, addr: Addr) -> bool {
        let (set, tag) = self.locate(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = stamp;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks presence without updating LRU or counters (used by prefetch
    /// filters and oracle probes).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    /// Returns the evicted line's address, if any.
    pub fn fill(&mut self, addr: Addr) -> Option<Addr> {
        let (set, tag) = self.locate(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = stamp;
            return None;
        }
        let sets = self.config.sets() as u64;
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("ways is non-empty");
        let evicted = victim.valid.then(|| {
            let line_no = victim.tag * sets + set as u64;
            Addr::new(line_no << rfp_types::CACHE_LINE_SHIFT)
        });
        victim.tag = tag;
        victim.valid = true;
        victim.lru = stamp;
        evicted
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: Addr) {
        let (set, tag) = self.locate(addr);
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag) {
            w.valid = false;
        }
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Approximate host-memory footprint of the tag store in bytes — what a
    /// warm-state snapshot of this cache costs to retain. Dominated by the
    /// per-way metadata; a lower bound (allocator overhead is not counted).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sets.capacity() * std::mem::size_of::<Vec<Way>>()
            + self.sets.len() * self.config.ways * std::mem::size_of::<Way>()
    }

    fn locate(&self, addr: Addr) -> (usize, u64) {
        let line = addr.line_number();
        let sets = self.config.sets() as u64;
        ((line % sets) as usize, line / sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64, ways: usize) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: size,
            ways,
            latency: 5,
        })
        .unwrap()
    }

    #[test]
    fn geometry_is_validated() {
        assert!(CacheConfig {
            size_bytes: 100,
            ways: 2,
            latency: 1
        }
        .validate("x")
        .is_err());
        assert!(CacheConfig {
            size_bytes: 4096,
            ways: 0,
            latency: 1
        }
        .validate("x")
        .is_err());
        assert!(CacheConfig {
            size_bytes: 48 << 10,
            ways: 12,
            latency: 5
        }
        .validate("l1")
        .is_ok());
    }

    #[test]
    fn fill_then_access_hits_same_line_only() {
        let mut c = cache(4096, 4);
        c.fill(Addr::new(0x40));
        assert!(c.access(Addr::new(0x7f))); // same line
        assert!(!c.access(Addr::new(0x80))); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, line 64 B, 4 sets => lines 0, 256, 512... map to set 0.
        let mut c = cache(512, 2);
        let a = Addr::new(0);
        let b = Addr::new(256);
        let d = Addr::new(512);
        c.fill(a);
        c.fill(b);
        assert!(c.access(a)); // a now MRU
        let evicted = c.fill(d); // must evict b
        assert_eq!(evicted, Some(Addr::new(256)));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = cache(512, 2);
        let a = Addr::new(0);
        let b = Addr::new(256);
        let d = Addr::new(512);
        c.fill(a);
        c.fill(b); // b MRU
        assert!(c.probe(a)); // probe must not promote a
        c.fill(d); // evicts a (LRU)
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = cache(4096, 4);
        let lines: Vec<Addr> = (0..32).map(|i| Addr::new(i * 64)).collect();
        for &l in &lines {
            if !c.access(l) {
                c.fill(l);
            }
        }
        for &l in &lines {
            assert!(c.access(l), "line {l} should be resident");
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache(4096, 4);
        c.fill(Addr::new(0x100));
        c.invalidate(Addr::new(0x100));
        assert!(!c.probe(Addr::new(0x100)));
    }

    #[test]
    fn hit_miss_counters_track_accesses() {
        let mut c = cache(4096, 4);
        assert!(!c.access(Addr::new(0)));
        c.fill(Addr::new(0));
        assert!(c.access(Addr::new(0)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }
}
