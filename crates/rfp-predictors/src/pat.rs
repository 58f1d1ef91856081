//! The Page Address Table (PAT) — paper §3.5.
//!
//! Many load streams share page frame numbers (address bits 63:12). Instead
//! of storing a full 64-bit virtual address per Prefetch Table entry, the PT
//! stores a 6-bit pointer into this 64-entry, 4-way set-associative table of
//! page addresses plus a 12-bit page offset — cutting PT storage roughly in
//! half. A PAT eviction silently leaves stale pointers behind; the RFP
//! simply mispredicts once and relearns (§5.5.4 measures the cost at
//! ~0.09%).

use rfp_types::Addr;

/// Entries in the PAT (fixed by the paper).
pub const PAT_ENTRIES: usize = 64;
/// Associativity of the PAT.
pub const PAT_WAYS: usize = 4;
/// Bits of storage per PAT entry (44-bit page address, Table 1).
pub const PAT_ENTRY_BITS: u64 = 44;
/// Bits of a PAT pointer as stored in a PT entry (6 bits: 4 set + 2 way).
pub const PAT_POINTER_BITS: u64 = 6;

/// A (set, way) pointer into the PAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatPointer {
    set: u8,
    way: u8,
}

impl PatPointer {
    /// Encodes the pointer into its 6-bit storage form.
    pub fn encode(self) -> u8 {
        (self.set << 2) | self.way
    }

    /// Decodes a 6-bit storage form.
    pub fn decode(raw: u8) -> Self {
        PatPointer {
            set: (raw >> 2) & 0xf,
            way: raw & 0x3,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PatWay {
    page_frame: u64,
    valid: bool,
    lru: u64,
}

/// The Page Address Table.
///
/// # Examples
///
/// ```
/// use rfp_predictors::PageAddrTable;
/// use rfp_types::Addr;
///
/// let mut pat = PageAddrTable::new();
/// let ptr = pat.insert(Addr::new(0x1234_5000).page_frame());
/// assert_eq!(pat.lookup(ptr), Some(0x1234_5));
/// ```
#[derive(Debug, Clone)]
pub struct PageAddrTable {
    sets: [[PatWay; PAT_WAYS]; PAT_ENTRIES / PAT_WAYS],
    stamp: u64,
    evictions: u64,
}

impl Default for PageAddrTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageAddrTable {
    /// Creates an empty PAT.
    pub fn new() -> Self {
        PageAddrTable {
            sets: [[PatWay::default(); PAT_WAYS]; PAT_ENTRIES / PAT_WAYS],
            stamp: 0,
            evictions: 0,
        }
    }

    fn set_of(page_frame: u64) -> usize {
        (page_frame % (PAT_ENTRIES / PAT_WAYS) as u64) as usize
    }

    /// Finds an existing entry for `page_frame`.
    pub fn find(&self, page_frame: u64) -> Option<PatPointer> {
        let set = Self::set_of(page_frame);
        self.sets[set]
            .iter()
            .position(|w| w.valid && w.page_frame == page_frame)
            .map(|way| PatPointer {
                set: set as u8,
                way: way as u8,
            })
    }

    /// Finds or inserts `page_frame`, returning its pointer. Insertion
    /// evicts the LRU way; any PT pointers to the victim silently go stale.
    pub fn insert(&mut self, page_frame: u64) -> PatPointer {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = Self::set_of(page_frame);
        if let Some(ptr) = self.find(page_frame) {
            self.sets[set][ptr.way as usize].lru = stamp;
            return ptr;
        }
        let ways = &mut self.sets[set];
        let way = (0..PAT_WAYS)
            .min_by_key(|&i| if ways[i].valid { ways[i].lru } else { 0 })
            .expect("PAT_WAYS > 0");
        if ways[way].valid {
            self.evictions += 1;
        }
        ways[way] = PatWay {
            page_frame,
            valid: true,
            lru: stamp,
        };
        PatPointer {
            set: set as u8,
            way: way as u8,
        }
    }

    /// Returns the page frame currently stored at `ptr` — possibly a
    /// *different* frame than when the pointer was recorded (stale pointer).
    pub fn lookup(&self, ptr: PatPointer) -> Option<u64> {
        let w = &self.sets[ptr.set as usize][ptr.way as usize];
        w.valid.then_some(w.page_frame)
    }

    /// Reconstructs a full virtual address from a pointer and page offset,
    /// as the PT does when issuing a prefetch.
    pub fn reconstruct(&self, ptr: PatPointer, page_offset: u64) -> Option<Addr> {
        self.lookup(ptr)
            .map(|frame| Addr::from_page_parts(frame, page_offset))
    }

    /// Evictions since construction (each can strand stale PT pointers).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total storage in bits (Table 1: 64 x 44 b = 352 B... the paper's
    /// table prints "352b" meaning 352 bytes of raw 44-bit entries; we
    /// report bits here: 64 * 44 = 2816).
    pub fn storage_bits() -> u64 {
        PAT_ENTRIES as u64 * PAT_ENTRY_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_encode_decode_round_trips() {
        for set in 0..16u8 {
            for way in 0..4u8 {
                let p = PatPointer { set, way };
                assert_eq!(PatPointer::decode(p.encode()), p);
            }
        }
    }

    #[test]
    fn insert_is_idempotent_for_same_frame() {
        let mut pat = PageAddrTable::new();
        let a = pat.insert(0x42);
        let b = pat.insert(0x42);
        assert_eq!(a, b);
        assert_eq!(pat.evictions(), 0);
    }

    #[test]
    fn eviction_makes_pointers_stale() {
        let mut pat = PageAddrTable::new();
        // Fill one set (frames congruent mod 16) beyond capacity.
        let ptr0 = pat.insert(0x10);
        for i in 1..=PAT_WAYS as u64 {
            pat.insert(0x10 + i * 16);
        }
        // ptr0's slot now holds a different frame.
        let now = pat.lookup(ptr0);
        assert!(now.is_some());
        assert_ne!(now, Some(0x10));
        assert!(pat.evictions() >= 1);
    }

    #[test]
    fn reconstruct_builds_full_address() {
        let mut pat = PageAddrTable::new();
        let addr = Addr::new(0xdead_b000 + 0x123);
        let ptr = pat.insert(addr.page_frame());
        assert_eq!(pat.reconstruct(ptr, addr.page_offset()), Some(addr));
    }

    #[test]
    fn storage_matches_table_1() {
        assert_eq!(PageAddrTable::storage_bits(), 2816);
    }
}
