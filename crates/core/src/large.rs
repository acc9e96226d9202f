//! The large-object validity table.
//!
//! Objects above 16 KB bypass the randomized regions: DieHard "allocates
//! larger objects directly using mmap and places guard pages without read or
//! write access on either end" (§4.1), recording each address "in a table
//! for validity checking by DieHardFree" (§4.2). `freeLargeObject` consults
//! the table and *ignores* requests for addresses it never handed out
//! (§4.3) — this is DieHard's invalid-free immunity for the large path.
//!
//! The table is a fixed-capacity open-addressing hash map from address to
//! size. It never allocates after construction, so the global allocator can
//! host it in its segregated metadata arena.
//!
//! Collisions probe linearly, and a removal closes its gap by shifting the
//! entries behind it back (Knuth's Algorithm R), so the table holds no
//! tombstones: every slot is an entry or empty, every probe chain ends at
//! an empty slot within `len` steps, and a long-lived process that creates
//! and frees large objects for ever finds the table as it would be had it
//! only ever inserted what is live.

use alloc::vec;
use alloc::vec::Vec;

/// An empty slot. Address 0 is never a large object (it is null).
const EMPTY: usize = 0;

/// A fixed-capacity address → size table with open addressing.
///
/// # Examples
///
/// ```
/// use diehard_core::large::LargeTable;
///
/// let mut t = LargeTable::new(64);
/// assert!(t.insert(0x1000, 20_000));
/// assert_eq!(t.get(0x1000), Some(20_000));
/// assert_eq!(t.remove(0x1000), Some(20_000));
/// assert_eq!(t.remove(0x1000), None); // double free: ignored by caller
/// ```
#[derive(Debug)]
pub struct LargeTable {
    keys: Storage,
    sizes: Storage,
    capacity: usize,
    len: usize,
}

#[derive(Debug)]
enum Storage {
    Owned(Vec<usize>),
    /// Caller-provided words ([`LargeTable::from_storage`]): the global
    /// allocator's slice of its metadata mapping, which is never unmapped.
    Raw(&'static mut [usize]),
}

impl Storage {
    #[inline]
    fn slice(&self) -> &[usize] {
        match self {
            Storage::Owned(v) => v,
            Storage::Raw(words) => words,
        }
    }

    #[inline]
    fn slice_mut(&mut self) -> &mut [usize] {
        match self {
            Storage::Owned(v) => v,
            Storage::Raw(words) => words,
        }
    }
}

impl LargeTable {
    /// Creates a table able to hold `capacity` entries (rounded up to a
    /// power of two; sized ×2 internally to keep probe chains short).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2`. (This constructor's internal ×2 sizing
    /// could not itself overflow the hash shift, but sub-2 capacities are
    /// rejected uniformly with [`Self::from_storage`], where the slices'
    /// length is the literal table size and a one-slot table shifts by
    /// `64 - trailing_zeros(1) = 64` — a debug panic, silent masking in
    /// release.)
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "LargeTable capacity must be at least 2");
        let cap = (capacity.max(4) * 2).next_power_of_two();
        Self {
            keys: Storage::Owned(vec![EMPTY; cap]),
            sizes: Storage::Owned(vec![0; cap]),
            capacity: cap,
            len: 0,
        }
    }

    /// Creates a table over two caller-provided arrays of equal length
    /// `capacity` (a power of two): `keys`, which should be zeroed (a
    /// nonzero word reads as a recorded address), and `sizes`.
    ///
    /// # Panics
    ///
    /// Panics if the two lengths differ, or the length is not a power of
    /// two, or is less than 2 (a one-slot table would overflow the hash
    /// shift).
    #[must_use]
    pub fn from_storage(keys: &'static mut [usize], sizes: &'static mut [usize]) -> Self {
        let capacity = keys.len();
        assert_eq!(capacity, sizes.len(), "keys and sizes differ in length");
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert!(capacity >= 2, "LargeTable capacity must be at least 2");
        Self {
            keys: Storage::Raw(keys),
            sizes: Storage::Raw(sizes),
            capacity,
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no large objects are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn hash(&self, addr: usize) -> usize {
        // Fibonacci hashing: cheap and good on page-aligned addresses.
        addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.capacity.trailing_zeros()) as usize
            & (self.capacity - 1)
    }

    /// The slot holding `addr`, or `Err` with the empty slot that ends its
    /// probe chain. Terminates: the load factor is at most 1/2, so an empty
    /// slot always exists.
    fn find(&self, addr: usize) -> Result<usize, usize> {
        let keys = self.keys.slice();
        let mut i = self.hash(addr);
        loop {
            match keys[i] {
                k if k == addr => return Ok(i),
                EMPTY => return Err(i),
                _ => i = (i + 1) & (self.capacity - 1),
            }
        }
    }

    /// Records `addr → size`. Returns `false` (rejecting the insert) when
    /// the table is full or the address is already present.
    pub fn insert(&mut self, addr: usize, size: usize) -> bool {
        debug_assert_ne!(addr, EMPTY, "address 0 is the empty-slot sentinel");
        if self.len * 2 >= self.capacity {
            return false; // keep load factor <= 1/2
        }
        let Err(i) = self.find(addr) else {
            return false;
        };
        self.keys.slice_mut()[i] = addr;
        self.sizes.slice_mut()[i] = size;
        self.len += 1;
        true
    }

    /// Looks up the recorded size for `addr`. Address 0 is never present
    /// (a null pointer is no large object).
    #[must_use]
    pub fn get(&self, addr: usize) -> Option<usize> {
        if addr == EMPTY {
            return None;
        }
        let i = self.find(addr).ok()?;
        Some(self.sizes.slice()[i])
    }

    /// Removes `addr`, returning its size; `None` when the address was never
    /// returned by the large-object allocator (the caller then ignores the
    /// free, per §4.3).
    pub fn remove(&mut self, addr: usize) -> Option<usize> {
        if addr == EMPTY {
            return None;
        }
        let mut hole = self.find(addr).ok()?;
        let size = self.sizes.slice()[hole];
        // Close the gap: walk the chain behind the hole to its empty slot,
        // moving back each entry whose home slot does not lie cyclically in
        // `(hole, j]` — the entries a lookup would otherwise stop short of.
        let mask = self.capacity - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.keys.slice()[j];
            if k == EMPTY {
                break;
            }
            let home = self.hash(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                let moved = self.sizes.slice()[j];
                self.keys.slice_mut()[hole] = k;
                self.sizes.slice_mut()[hole] = moved;
                hole = j;
            }
        }
        self.keys.slice_mut()[hole] = EMPTY;
        self.len -= 1;
        Some(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::mpsc::RecvTimeoutError;

    #[test]
    fn insert_get_remove() {
        let mut t = LargeTable::new(8);
        assert!(t.is_empty());
        assert!(t.insert(0x10_000, 32_768));
        assert!(t.insert(0x20_000, 65_536));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0x10_000), Some(32_768));
        assert_eq!(t.get(0x30_000), None);
        assert_eq!(t.remove(0x10_000), Some(32_768));
        assert_eq!(t.get(0x10_000), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = LargeTable::new(8);
        assert!(t.insert(0x1000, 100));
        assert!(!t.insert(0x1000, 200));
        assert_eq!(t.get(0x1000), Some(100));
    }

    #[test]
    fn remove_unknown_is_none() {
        let mut t = LargeTable::new(8);
        assert_eq!(t.remove(0xDEAD), None);
    }

    /// A lookup or free of null must not match an empty slot (and return
    /// the size that slot once held).
    #[test]
    fn sentinel_addresses_are_never_found() {
        let mut t = LargeTable::new(2);
        for i in 1..=4usize {
            assert!(t.insert(i * 0x1000, i));
            assert_eq!(t.remove(i * 0x1000), Some(i));
        }
        assert_eq!(t.get(EMPTY), None);
        assert_eq!(t.remove(EMPTY), None);
        assert!(t.is_empty());
    }

    #[test]
    fn removal_keeps_lookups_working() {
        let mut t = LargeTable::new(4);
        // Force collisions by inserting many, removing, reinserting.
        for i in 1..=4usize {
            assert!(t.insert(i * 0x1000, i));
        }
        assert_eq!(t.remove(0x2000), Some(2));
        assert!(t.insert(0x5000, 5));
        assert_eq!(t.get(0x1000), Some(1));
        assert_eq!(t.get(0x3000), Some(3));
        assert_eq!(t.get(0x4000), Some(4));
        assert_eq!(t.get(0x5000), Some(5));
        assert_eq!(t.get(0x2000), None);
    }

    /// A long-lived process's large objects: a ring of 16 live at distinct
    /// page-aligned addresses, each freed and replaced by a new one, on the
    /// global allocator's table (4 096 live, 8 192 slots). A table that
    /// leaves a marker per removal runs out of empty slots within 72 000
    /// pairs, and from then on an insert, or a lookup of an address it
    /// does not hold, probes for ever under the table's lock. The churn
    /// runs on a thread of its own, so a livelock fails the test at the
    /// deadline instead of hanging it (the spinning thread is left behind).
    #[test]
    fn churn_never_exhausts_the_empty_slots() {
        const PAIRS: usize = 250_000;
        const LIVE: usize = 16;
        let (done, finished) = std::sync::mpsc::channel();
        let churn = std::thread::spawn(move || {
            let mut t = LargeTable::new(4096);
            let addr = |n: usize| 0x7f00_0000_0000 + n * 0x1000;
            for n in 0..LIVE {
                assert!(t.insert(addr(n), n));
            }
            for n in LIVE..LIVE + PAIRS {
                assert_eq!(t.remove(addr(n - LIVE)), Some(n - LIVE));
                assert!(t.insert(addr(n), n));
            }
            let fresh = addr(LIVE + PAIRS);
            let answers = (t.insert(fresh, 1), t.get(addr(0)), t.len());
            let _ = done.send(answers);
        });
        let answers = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            !matches!(answers, Err(RecvTimeoutError::Timeout)),
            "a probe chain ran past the 60 s deadline"
        );
        churn.join().expect("the churn's own assertions hold");
        assert_eq!(answers, Ok((true, None, LIVE + 1)));
    }

    #[test]
    fn full_table_rejects() {
        let mut t = LargeTable::new(4); // internal capacity 8, max 4 live
        let mut inserted = 0;
        for i in 1..=16usize {
            if t.insert(i * 0x1000, i) {
                inserted += 1;
            }
        }
        assert!(inserted >= 4);
        assert!(inserted < 16, "load factor cap must kick in");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn new_rejects_capacity_one() {
        let _ = LargeTable::new(1);
    }

    /// Two leaked arrays of `len` zeroed words, as the global allocator
    /// carves them out of its metadata mapping.
    fn leaked(len: usize) -> (&'static mut [usize], &'static mut [usize]) {
        let words = vec![0usize; 2 * len].leak();
        words.split_at_mut(len)
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn from_storage_rejects_capacity_one() {
        // Regression: capacity 1 has trailing_zeros() == 0, so hash()'s
        // `>> (64 - 0)` overflowed the shift before the constructor guard.
        let (keys, sizes) = leaked(1);
        let _ = LargeTable::from_storage(keys, sizes);
    }

    #[test]
    fn from_storage_minimum_capacity_hashes_safely() {
        // capacity 2 is the smallest legal table: shift is 63, not 64.
        let (keys, sizes) = leaked(2);
        let mut t = LargeTable::from_storage(keys, sizes);
        assert!(t.insert(0x4000, 7));
        assert_eq!(t.get(0x4000), Some(7));
        assert_eq!(t.remove(0x4000), Some(7));
    }

    #[test]
    fn from_storage_backing() {
        let (keys, sizes) = leaked(16);
        let mut t = LargeTable::from_storage(keys, sizes);
        assert!(t.insert(0xABC0, 42));
        assert_eq!(t.get(0xABC0), Some(42));
        let (Storage::Raw(keys), Storage::Raw(sizes)) = (&t.keys, &t.sizes) else {
            panic!("the table owns storage of its own");
        };
        let at = keys.iter().position(|&k| k == 0xABC0);
        assert_eq!(
            at.map(|i| sizes[i]),
            Some(42),
            "recorded in the caller's words"
        );
    }

    proptest! {
        /// The table matches a HashMap model under arbitrary operations:
        /// on a roomy table, and on a 16-slot one whose chains collide,
        /// wrap around its end and are shifted back by every removal.
        #[test]
        fn model_equivalence(
            ops in proptest::collection::vec((1usize..2_000, 1usize..3, 1usize..100_000), 1..200),
        ) {
            for (capacity, addresses) in [(4096, 2_000), (8, 24)] {
                let mut t = LargeTable::new(capacity);
                let mut model: HashMap<usize, usize> = HashMap::new();
                for &(addr_base, op, size) in &ops {
                    // Realistic aligned addresses, never null.
                    let addr = (addr_base % addresses + 1) * 8;
                    match op {
                        1 => {
                            let ok = t.insert(addr, size);
                            let model_ok =
                                !model.contains_key(&addr) && model.len() * 2 < t.capacity;
                            prop_assert_eq!(ok, model_ok);
                            if ok {
                                model.insert(addr, size);
                            }
                        }
                        _ => {
                            prop_assert_eq!(t.remove(addr), model.remove(&addr));
                        }
                    }
                    prop_assert_eq!(t.len(), model.len());
                    for a in (1..=addresses).map(|a| a * 8).take(64) {
                        prop_assert_eq!(t.get(a), model.get(&a).copied());
                    }
                }
            }
        }
    }
}
