//! Baseline L1 instruction-pointer (IP) stride prefetcher.
//!
//! Modern Intel cores ship an IP-indexed stride prefetcher at the L1D (the
//! "IPP"). The paper's Tiger-Lake-like baseline includes conventional
//! hardware prefetching, so loads with strided addresses largely *hit* the
//! L1 — which is exactly why the paper's headroom analysis centres on L1
//! latency rather than misses. Without this, RFP would get credit for
//! hiding miss latency that the baseline machine already hides.

use rfp_types::{Addr, Pc};

/// Tracked static loads.
const TABLE_ENTRIES: usize = 1024;
/// How many strides ahead of the demand stream to prefetch.
const DISTANCE: i64 = 4;

#[derive(Debug, Clone, Copy, Default)]
struct IpEntry {
    tag: u64,
    valid: bool,
    last_addr: Addr,
    stride: i64,
    confidence: u8,
}

/// Per-PC stride prefetcher issuing L1 fills.
///
/// # Examples
///
/// ```
/// use rfp_predictors::IpStridePrefetcher;
/// use rfp_types::{Addr, Pc};
///
/// let mut p = IpStridePrefetcher::new();
/// let pc = Pc::new(0x400100);
/// let mut out = Vec::new();
/// for i in 0..4u64 {
///     out = p.train(pc, Addr::new(0x1000 + i * 64));
/// }
/// assert!(!out.is_empty()); // stream locked: prefetches ahead
/// ```
#[derive(Debug, Clone)]
pub struct IpStridePrefetcher {
    entries: Vec<IpEntry>,
    issued: u64,
}

impl Default for IpStridePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl IpStridePrefetcher {
    /// Creates an empty prefetcher.
    pub fn new() -> Self {
        IpStridePrefetcher {
            entries: vec![IpEntry::default(); TABLE_ENTRIES],
            issued: 0,
        }
    }

    /// Trains on an executed load and returns line addresses to prefetch
    /// into the L1 (empty until the stride is confirmed twice).
    pub fn train(&mut self, pc: Pc, addr: Addr) -> Vec<Addr> {
        let mut out = Vec::with_capacity(2);
        self.train_into(pc, addr, &mut out);
        out
    }

    /// Allocation-free variant of [`Self::train`]: appends the prefetch
    /// targets to `out` (callers on the hot path reuse one buffer).
    pub fn train_into(&mut self, pc: Pc, addr: Addr, out: &mut Vec<Addr>) {
        let idx = ((pc.raw() >> 2) % TABLE_ENTRIES as u64) as usize;
        let tag = (pc.raw() >> 2) / TABLE_ENTRIES as u64;
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            *e = IpEntry {
                tag,
                valid: true,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let stride = addr.stride_from(e.last_addr);
        if stride == e.stride && stride != 0 {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        if e.confidence < 2 {
            return;
        }
        // Prefetch the lines DISTANCE strides ahead (dedup by line).
        for k in [DISTANCE, DISTANCE + 1] {
            let target = addr.offset(e.stride.wrapping_mul(k)).line();
            if !addr.same_line(target) && out.last() != Some(&target) {
                out.push(target);
                self.issued += 1;
            }
        }
    }

    /// Prefetch lines issued since construction.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_onto_line_strides() {
        let mut p = IpStridePrefetcher::new();
        let pc = Pc::new(0x100);
        let mut last = Vec::new();
        for i in 0..6u64 {
            last = p.train(pc, Addr::new(0x8000 + i * 64));
        }
        assert!(last.contains(&Addr::new(0x8000 + 5 * 64 + 4 * 64)));
    }

    #[test]
    fn small_strides_prefetch_across_lines_only() {
        let mut p = IpStridePrefetcher::new();
        let pc = Pc::new(0x200);
        let mut last = Vec::new();
        for i in 0..8u64 {
            last = p.train(pc, Addr::new(0x9000 + i * 8));
        }
        // 4 strides ahead of 0x9038 is 0x9058: same line, so only the
        // +5-stride candidate could cross; here both stay in-line.
        for a in &last {
            assert_eq!(a.offset_in_line(), 0);
        }
    }

    #[test]
    fn random_addresses_never_prefetch() {
        let mut p = IpStridePrefetcher::new();
        let pc = Pc::new(0x300);
        for i in 0..32u64 {
            let mut v = i ^ 0x55;
            v ^= v >> 13;
            v = v.wrapping_mul(0x2545_f491_4f6c_dd1d);
            assert!(p.train(pc, Addr::new(v % 0x10_0000)).is_empty());
        }
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = IpStridePrefetcher::new();
        let pc = Pc::new(0x400);
        for i in 0..6u64 {
            p.train(pc, Addr::new(0x8000 + i * 64));
        }
        assert!(p.train(pc, Addr::new(0x20_0000)).is_empty());
        assert!(p.train(pc, Addr::new(0x20_0040)).is_empty());
    }
}
