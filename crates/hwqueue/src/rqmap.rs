//! The RQ-Map: logical→physical chunk translation of one subqueue
//! (paper Section 4.1.2).
//!
//! A subqueue is logically contiguous but its chunks need not be physically
//! contiguous. Every Queue Manager holds an RQ-Map of up to 32 entries,
//! each a 5-bit physical chunk id plus a valid bit (24 B total). Donating a
//! chunk invalidates the *tail* entry; receiving one appends at the tail.
//!
//! [`ChunkPool`] owns the physical chunk ids of the whole RQ and checks the
//! global exclusivity invariant: a physical chunk belongs to at most one
//! RQ-Map at a time.

use serde::{Deserialize, Serialize};

/// Identifier of a physical RQ chunk (5 bits in hardware: 0..32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChunkId(pub u8);

/// The per-VM logical→physical chunk map.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RqMap {
    /// Physical chunk ids in logical order (head first).
    chunks: Vec<ChunkId>,
    /// Hardware capacity of the map (32 entries in Table 1).
    capacity: usize,
}

impl RqMap {
    /// Creates an empty map with the Table 1 capacity of 32 entries.
    pub fn new() -> Self {
        Self::with_capacity(32)
    }

    /// Creates an empty map holding at most `capacity` chunk entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        RqMap {
            chunks: Vec::new(),
            capacity,
        }
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the map holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Appends a received chunk at the tail.
    ///
    /// # Panics
    /// Panics if the map is full or already holds `chunk`.
    pub fn append(&mut self, chunk: ChunkId) {
        assert!(self.chunks.len() < self.capacity, "RQ-Map full");
        assert!(!self.chunks.contains(&chunk), "chunk already mapped");
        self.chunks.push(chunk);
    }

    /// Donates the tail chunk (invalidating its entry), if any.
    pub fn donate_tail(&mut self) -> Option<ChunkId> {
        self.chunks.pop()
    }

    /// Physical chunks in logical order.
    pub fn chunks(&self) -> &[ChunkId] {
        &self.chunks
    }
}

/// The pool of physical chunks of one controller, tracking ownership.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkPool {
    /// Owner per physical chunk: `None` = free.
    owners: Vec<Option<u16>>,
}

impl ChunkPool {
    /// Creates a pool of `chunks` free chunks.
    ///
    /// # Panics
    /// Panics if `chunks` is 0 or exceeds the 5-bit id space (32).
    pub fn new(chunks: usize) -> Self {
        assert!(chunks > 0 && chunks <= 32, "5-bit chunk ids");
        ChunkPool {
            owners: vec![None; chunks],
        }
    }

    /// Allocates a free chunk to `owner`, lowest id first.
    pub fn allocate(&mut self, owner: u16) -> Option<ChunkId> {
        let idx = self.owners.iter().position(Option::is_none)?;
        self.owners[idx] = Some(owner);
        Some(ChunkId(idx as u8))
    }

    /// Releases a chunk back to the pool.
    ///
    /// # Panics
    /// Panics if the chunk is not currently owned by `owner`.
    pub fn release(&mut self, chunk: ChunkId, owner: u16) {
        let slot = &mut self.owners[chunk.0 as usize];
        assert_eq!(*slot, Some(owner), "release by non-owner");
        *slot = None;
    }

    /// Transfers a chunk between owners (donation protocol).
    ///
    /// # Panics
    /// Panics if the chunk is not owned by `from`.
    pub fn transfer(&mut self, chunk: ChunkId, from: u16, to: u16) {
        let slot = &mut self.owners[chunk.0 as usize];
        assert_eq!(*slot, Some(from), "transfer from non-owner");
        *slot = Some(to);
    }

    /// Number of unowned chunks.
    pub fn free(&self) -> usize {
        self.owners.iter().filter(|o| o.is_none()).count()
    }

    /// Chunks owned by `owner`.
    pub fn owned_by(&self, owner: u16) -> Vec<ChunkId> {
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Some(owner))
            .map(|(i, _)| ChunkId(i as u8))
            .collect()
    }

    /// Invariant: every chunk has at most one owner (structurally true) and
    /// ownership sums to the pool size.
    pub fn accounting_ok(&self) -> bool {
        self.free() + self.owners.iter().filter(|o| o.is_some()).count() == self.owners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_appends_and_donates_at_tail() {
        let mut m = RqMap::new();
        m.append(ChunkId(3));
        m.append(ChunkId(7));
        m.append(ChunkId(1));
        assert_eq!(m.len(), 3);
        assert_eq!(m.chunks(), &[ChunkId(3), ChunkId(7), ChunkId(1)]);
        assert_eq!(m.donate_tail(), Some(ChunkId(1)));
        assert_eq!(m.chunks(), &[ChunkId(3), ChunkId(7)]);
    }

    #[test]
    fn map_storage_is_24_bytes_at_table1_capacity() {
        // 32 entries × (5-bit chunk id + valid bit), as Section 6.8 counts.
        let entries = RqMap::new().capacity as u64;
        assert_eq!((entries * 6).div_ceil(8), crate::storage::RQ_MAP_BYTES);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn duplicate_chunk_panics() {
        let mut m = RqMap::new();
        m.append(ChunkId(5));
        m.append(ChunkId(5));
    }

    #[test]
    #[should_panic(expected = "RQ-Map full")]
    fn overflow_panics() {
        let mut m = RqMap::with_capacity(2);
        m.append(ChunkId(0));
        m.append(ChunkId(1));
        m.append(ChunkId(2));
    }

    #[test]
    fn pool_allocate_release_transfer() {
        let mut p = ChunkPool::new(4);
        let a = p.allocate(1).unwrap();
        let b = p.allocate(1).unwrap();
        assert_eq!(p.free(), 2);
        assert_eq!(p.owned_by(1), vec![a, b]);
        p.transfer(b, 1, 2);
        assert_eq!(p.owned_by(2), vec![b]);
        p.release(a, 1);
        assert_eq!(p.free(), 3);
        assert!(p.accounting_ok());
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut p = ChunkPool::new(2);
        assert!(p.allocate(0).is_some());
        assert!(p.allocate(0).is_some());
        assert!(p.allocate(0).is_none());
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn release_by_wrong_owner_panics() {
        let mut p = ChunkPool::new(2);
        let c = p.allocate(1).unwrap();
        p.release(c, 9);
    }

    #[test]
    #[should_panic(expected = "5-bit")]
    fn oversized_pool_panics() {
        ChunkPool::new(33);
    }
}
