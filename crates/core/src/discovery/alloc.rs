//! Subnet allocation from the administrator-provided range.
//!
//! This is the *only* administrator input in the whole framework — the
//! paper's point is that everything else is derived automatically.

use rf_wire::Ipv4Cidr;
use std::net::Ipv4Addr;

/// The per-link subnet: a /30, the smallest IPv4 block with two host
/// addresses, one for each end of a point-to-point link.
pub const LINK_PREFIX: u8 = 30;

/// Carves [`LINK_PREFIX`] blocks out of a range, recycling freed blocks.
#[derive(Clone, Debug)]
pub struct Ipv4Allocator {
    range: Ipv4Cidr,
    next_block: u32,
    free: Vec<u32>,
}

impl Ipv4Allocator {
    /// `range` must be at least as wide as one block.
    pub fn new(range: Ipv4Cidr) -> Ipv4Allocator {
        assert!(
            range.prefix_len <= LINK_PREFIX,
            "range /{} narrower than block /{LINK_PREFIX}",
            range.prefix_len
        );
        Ipv4Allocator {
            range,
            next_block: 0,
            free: Vec::new(),
        }
    }

    fn block_size(&self) -> u32 {
        1u32 << (32 - LINK_PREFIX)
    }

    fn total_blocks(&self) -> u32 {
        let range_size = self.range.size();
        (range_size / u64::from(self.block_size())) as u32
    }

    /// Allocate the next block, preferring recycled ones.
    pub fn alloc(&mut self) -> Option<Ipv4Cidr> {
        let idx = if let Some(i) = self.free.pop() {
            i
        } else if self.next_block < self.total_blocks() {
            let i = self.next_block;
            self.next_block += 1;
            i
        } else {
            return None;
        };
        let base = u32::from(self.range.network()) + idx * self.block_size();
        Some(Ipv4Cidr::new(Ipv4Addr::from(base), LINK_PREFIX))
    }

    /// Return a block to the pool. Blocks from foreign ranges are
    /// ignored (defensive; indicates a caller bug, surfaced by tests).
    pub fn release(&mut self, block: Ipv4Cidr) {
        if block.prefix_len != LINK_PREFIX || !self.range.contains(block.network()) {
            return;
        }
        let off = u32::from(block.network()) - u32::from(self.range.network());
        let idx = off / self.block_size();
        if idx < self.next_block && !self.free.contains(&idx) {
            self.free.push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range() -> Ipv4Cidr {
        "172.31.0.0/24".parse().unwrap()
    }

    #[test]
    fn allocates_disjoint_slash30s() {
        let mut a = Ipv4Allocator::new(range());
        let b1 = a.alloc().unwrap();
        let b2 = a.alloc().unwrap();
        assert_eq!(b1.to_string(), "172.31.0.0/30");
        assert_eq!(b2.to_string(), "172.31.0.4/30");
        assert!(!b1.contains(b2.network()));
        assert_eq!(a.alloc().unwrap().to_string(), "172.31.0.8/30");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = Ipv4Allocator::new("10.0.0.0/28".parse().unwrap());
        // /28 holds four /30s.
        for _ in 0..4 {
            assert!(a.alloc().is_some());
        }
        assert!(a.alloc().is_none());
    }

    #[test]
    fn release_recycles() {
        let mut a = Ipv4Allocator::new("10.0.0.0/28".parse().unwrap());
        let blocks: Vec<Ipv4Cidr> = (0..4).map(|_| a.alloc().unwrap()).collect();
        assert!(a.alloc().is_none());
        a.release(blocks[1]);
        assert_eq!(a.alloc().unwrap(), blocks[1]);
        assert!(a.alloc().is_none());
    }

    #[test]
    fn double_release_is_idempotent() {
        let mut a = Ipv4Allocator::new("10.0.0.0/28".parse().unwrap());
        let b = a.alloc().unwrap();
        a.release(b);
        a.release(b);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some()); // only one extra slot, not two… but
                                      // /28 has 4 blocks: one released twice must not double-count.
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_none());
    }

    #[test]
    fn foreign_block_ignored() {
        let mut a = Ipv4Allocator::new("10.0.0.0/28".parse().unwrap());
        a.release("192.168.0.0/30".parse().unwrap());
        for _ in 0..4 {
            assert!(a.alloc().is_some());
        }
        assert!(a.alloc().is_none());
    }

    #[test]
    fn pan_european_fits_in_default_range() {
        // 41 links need 41 /30s = 164 addresses; a /16 is plenty.
        let mut a = Ipv4Allocator::new("172.31.0.0/16".parse().unwrap());
        for _ in 0..41 {
            assert!(a.alloc().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "narrower than block")]
    fn range_smaller_than_block_panics() {
        Ipv4Allocator::new("10.0.0.0/31".parse().unwrap());
    }
}
