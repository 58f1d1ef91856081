//! Baseline L2 hardware stream prefetcher.
//!
//! The paper's baseline core (Table 2, Tiger-Lake-like) includes ordinary
//! memory prefetching — Fig. 2's "MSHR hits" class is mostly demand loads
//! catching up with in-flight prefetches. This is a classic per-page stream
//! detector: two sequential line misses within a 4 KiB page arm a stream,
//! after which each access prefetches `degree` lines ahead in the detected
//! direction.

use rfp_types::{Addr, PAGE_SHIFT};

/// Maximum tracked pages (LRU-replaced).
const TRACKER_CAPACITY: usize = 64;

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    page: u64,
    last_line: i64,
    direction: i64,
    confident: bool,
    lru: u64,
}

/// A per-page stream detector emitting line prefetch candidates.
///
/// # Examples
///
/// ```
/// use rfp_mem::StreamPrefetcher;
/// use rfp_types::Addr;
///
/// let mut p = StreamPrefetcher::new(2);
/// assert!(p.train(Addr::new(0x1000)).is_empty());   // first touch
/// let out = p.train(Addr::new(0x1040));             // +1 line: stream armed
/// assert_eq!(out, vec![Addr::new(0x1080), Addr::new(0x10c0)]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    degree: usize,
    entries: Vec<PageEntry>,
    stamp: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher issuing `degree` line prefetches per trained
    /// access once a stream is armed.
    pub fn new(degree: usize) -> Self {
        StreamPrefetcher {
            degree,
            entries: Vec::with_capacity(TRACKER_CAPACITY),
            stamp: 0,
            issued: 0,
        }
    }

    /// Trains on a miss/access reaching the L2 and returns the line
    /// addresses to prefetch (empty until a stream is armed).
    pub fn train(&mut self, addr: Addr) -> Vec<Addr> {
        self.stamp += 1;
        let stamp = self.stamp;
        let page = addr.page_frame();
        let line_in_page = ((addr.raw() >> rfp_types::CACHE_LINE_SHIFT)
            & ((1 << (PAGE_SHIFT - rfp_types::CACHE_LINE_SHIFT)) - 1))
            as i64;

        let idx = self.entries.iter().position(|e| e.page == page);
        let entry = match idx {
            Some(i) => {
                let e = &mut self.entries[i];
                e.lru = stamp;
                let delta = line_in_page - e.last_line;
                if delta == e.direction && delta != 0 {
                    e.confident = true;
                } else if delta != 0 {
                    e.direction = delta.signum();
                    e.confident = delta.abs() == 1;
                }
                e.last_line = line_in_page;
                *e
            }
            None => {
                let e = PageEntry {
                    page,
                    last_line: line_in_page,
                    direction: 1,
                    confident: false,
                    lru: stamp,
                };
                if self.entries.len() < TRACKER_CAPACITY {
                    self.entries.push(e);
                } else {
                    let victim = self
                        .entries
                        .iter_mut()
                        .min_by_key(|e| e.lru)
                        .expect("non-empty");
                    *victim = e;
                }
                return Vec::new();
            }
        };

        if !entry.confident {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.degree);
        for i in 1..=self.degree as i64 {
            let target = addr
                .line()
                .offset(entry.direction * i * rfp_types::CACHE_LINE_BYTES as i64);
            // Stay within the page: stream prefetchers do not cross 4 KiB
            // boundaries (physical-address ambiguity).
            if target.page_frame() == page {
                out.push(target);
            }
        }
        self.issued += out.len() as u64;
        out
    }

    /// Lines issued since construction.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_stream_arms_after_two_touches() {
        let mut p = StreamPrefetcher::new(2);
        assert!(p.train(Addr::new(0x2000)).is_empty());
        let out = p.train(Addr::new(0x2040));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Addr::new(0x2080));
    }

    #[test]
    fn descending_stream_is_detected() {
        let mut p = StreamPrefetcher::new(1);
        p.train(Addr::new(0x3fc0));
        let out = p.train(Addr::new(0x3f80));
        assert_eq!(out, vec![Addr::new(0x3f40)]);
    }

    #[test]
    fn random_touches_do_not_arm() {
        let mut p = StreamPrefetcher::new(2);
        p.train(Addr::new(0x4000));
        let out = p.train(Addr::new(0x4400)); // +16 lines, not sequential
        assert!(out.is_empty());
    }

    #[test]
    fn prefetches_do_not_cross_page_boundary() {
        let mut p = StreamPrefetcher::new(4);
        p.train(Addr::new(0x1f40));
        let out = p.train(Addr::new(0x1f80));
        // Only 0x1fc0 is still inside the page.
        assert_eq!(out, vec![Addr::new(0x1fc0)]);
    }

    #[test]
    fn tracker_replaces_lru_page() {
        let mut p = StreamPrefetcher::new(1);
        for i in 0..(TRACKER_CAPACITY as u64 + 8) {
            p.train(Addr::new(i << 12));
        }
        // Re-training the evicted first page starts from scratch.
        assert!(p.train(Addr::new(0x0)).is_empty());
    }

    #[test]
    fn repeated_same_line_does_not_arm() {
        let mut p = StreamPrefetcher::new(2);
        p.train(Addr::new(0x8000));
        assert!(p.train(Addr::new(0x8000)).is_empty());
        assert!(p.train(Addr::new(0x8010)).is_empty()); // same line
    }
}
