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
//!
//! Every probe index is masked by the table's length, a power of two of at
//! least 2 — fixed at compile time for a table over caller storage
//! ([`LargeTable::from_storage`]) — so no index can leave the table, and
//! none is checked on its way there. A full table refuses an insert; an
//! address it does not hold is not found, and its removal changes nothing.

use crate::global::Words;
use crate::sync::Word;
use core::sync::atomic::Ordering::Relaxed;

/// An empty slot. Address 0 is never a large object (it is null).
const EMPTY: usize = 0;

/// The address or size a table word holds (words are 64 bits, as
/// addresses are on every target the allocator builds for).
#[inline]
fn read(word: &Word) -> usize {
    word.load(Relaxed) as usize
}

/// Records an address or size in a table word.
#[inline]
fn write(word: &Word, value: usize) {
    word.store(value as u64, Relaxed);
}

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
    /// Recorded addresses, [`EMPTY`] in a free slot. Words, updated with
    /// relaxed loads and stores: the table is `&mut` for every update, so
    /// they are plain `mov`s; words are what both homes of the storage
    /// hold (`Words`).
    keys: Words,
    /// The size recorded beside each key, as long as `keys`.
    sizes: Words,
    /// Slots: the length of `keys` and `sizes`, a power of two ≥ 2.
    capacity: usize,
    len: usize,
}

impl LargeTable {
    /// Creates a table able to hold `capacity` entries (rounded up to a
    /// power of two, at least 4; sized ×2 internally to keep probe chains
    /// short), over words of its own (a `calloc` block).
    ///
    /// # Panics
    ///
    /// Panics when the system has no memory for the table.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity
            .max(4)
            .saturating_mul(2)
            .checked_next_power_of_two()
            .expect("a table size the address space can hold");
        let words = || Words::zeroed(cap).expect("memory for a large-object table");
        Self {
            keys: words(),
            sizes: words(),
            capacity: cap,
            len: 0,
        }
    }

    /// Creates a table over two caller-provided arrays of `N` words each:
    /// `keys`, which should be zeroed (a nonzero word reads as a recorded
    /// address), and `sizes`. `N` must be a power of two of at least 2 —
    /// a one-slot table would shift its hash by 64 — which is checked when
    /// the call is compiled, not when it runs.
    #[must_use]
    pub fn from_storage<const N: usize>(
        keys: &'static [Word; N],
        sizes: &'static [Word; N],
    ) -> Self {
        const {
            assert!(
                N >= 2 && N.is_power_of_two(),
                "a large-object table has a power-of-two number of slots, at least 2"
            );
        }
        Self {
            keys: Words::carved(keys),
            sizes: Words::carved(sizes),
            capacity: N,
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

    /// The keys, the sizes cut to their length, and that length's mask:
    /// every index masked by it is in both. `None` for a table without
    /// slots, which no constructor builds.
    #[inline]
    fn slots(&self) -> Option<(&[Word], &[Word], usize)> {
        let mask = self.keys.len().checked_sub(1)?;
        Some((&self.keys, self.sizes.get(..self.keys.len())?, mask))
    }

    /// `addr`'s home slot: Fibonacci hashing, cheap and good on page-aligned
    /// addresses, the top `log2(capacity)` bits of the product.
    #[inline]
    fn hash(addr: usize, mask: usize) -> usize {
        let product = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        product.wrapping_shr(usize::BITS - mask.count_ones()) & mask
    }

    /// The slot holding `addr`, or `Err` with the empty slot that ends its
    /// probe chain. Terminates: the load factor is at most 1/2, so an empty
    /// slot always exists.
    fn find(keys: &[Word], mask: usize, addr: usize) -> Result<usize, usize> {
        let mut i = Self::hash(addr, mask);
        loop {
            match read(&keys[i & mask]) {
                k if k == addr => return Ok(i & mask),
                EMPTY => return Err(i & mask),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Records `addr → size`. Returns `false` (rejecting the insert) when
    /// the table is full or the address is already present.
    pub fn insert(&mut self, addr: usize, size: usize) -> bool {
        debug_assert_ne!(addr, EMPTY, "address 0 is the empty-slot sentinel");
        let Some((keys, sizes, mask)) = self.slots() else {
            return false;
        };
        if self.len >= self.capacity / 2 {
            return false; // keep load factor <= 1/2
        }
        let Err(i) = Self::find(keys, mask, addr) else {
            return false;
        };
        write(&keys[i & mask], addr);
        write(&sizes[i & mask], size);
        self.len += 1;
        true
    }

    /// Looks up the recorded size for `addr`. Address 0 is never present
    /// (a null pointer is no large object).
    #[must_use]
    pub fn get(&self, addr: usize) -> Option<usize> {
        let (keys, sizes, mask) = self.slots()?;
        if addr == EMPTY {
            return None;
        }
        let i = Self::find(keys, mask, addr).ok()?;
        Some(read(&sizes[i & mask]))
    }

    /// Removes `addr`, returning its size; `None` when the address was never
    /// returned by the large-object allocator (the caller then ignores the
    /// free, per §4.3).
    pub fn remove(&mut self, addr: usize) -> Option<usize> {
        let (keys, sizes, mask) = self.slots()?;
        if addr == EMPTY {
            return None;
        }
        let mut hole = Self::find(keys, mask, addr).ok()?;
        let size = read(&sizes[hole & mask]);
        // Close the gap: walk the chain behind the hole to its empty slot,
        // moving back each entry whose home slot does not lie cyclically in
        // `(hole, j]` — the entries a lookup would otherwise stop short of.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = read(&keys[j & mask]);
            if k == EMPTY {
                break;
            }
            let home = Self::hash(k, mask);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                write(&keys[hole & mask], k);
                write(&sizes[hole & mask], read(&sizes[j & mask]));
                hole = j;
            }
        }
        write(&keys[hole & mask], EMPTY);
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

    /// The "at least 2" rule is the constructors': `new` rounds every
    /// request up to 8 slots, and `from_storage`'s is a compile-time
    /// assertion on its array length. So a request for one entry is a
    /// table like any other.
    #[test]
    fn new_rounds_a_one_entry_request_up() {
        let mut t = LargeTable::new(1);
        assert_eq!(t.capacity, 8);
        for i in 1..=4usize {
            assert!(t.insert(i * 0x1000, i));
        }
        assert!(!t.insert(0x9000, 9), "four live in eight slots: full");
    }

    /// `N` zeroed words, leaked, as the global allocator carves them out of
    /// its metadata mapping.
    fn leaked<const N: usize>() -> &'static [Word; N] {
        Box::leak(Box::new(core::array::from_fn(|_| Word::new(0))))
    }

    #[test]
    fn from_storage_minimum_capacity_hashes_safely() {
        // capacity 2 is the smallest legal table: shift is 63, not 64.
        let mut t = LargeTable::from_storage(leaked::<2>(), leaked::<2>());
        assert!(t.insert(0x4000, 7));
        assert_eq!(t.get(0x4000), Some(7));
        assert_eq!(t.remove(0x4000), Some(7));
    }

    #[test]
    fn from_storage_backing() {
        let (keys, sizes) = (leaked::<16>(), leaked::<16>());
        let mut t = LargeTable::from_storage(keys, sizes);
        assert!(t.insert(0xABC0, 42));
        assert_eq!(t.get(0xABC0), Some(42));
        let at = keys.iter().position(|k| k.load(Relaxed) == 0xABC0);
        assert_eq!(
            at.map(|i| sizes[i].load(Relaxed)),
            Some(42),
            "recorded in the caller's words"
        );
    }

    /// A full table refuses an insert and is left as it was; a refused
    /// insert is what turns a large request into a null `malloc`.
    #[test]
    fn a_full_table_refuses_and_keeps_its_entries() {
        let mut t = LargeTable::from_storage(leaked::<8>(), leaked::<8>());
        for i in 1..=4usize {
            assert!(t.insert(i << 12, i));
        }
        assert!(!t.insert(5 << 12, 5), "half of eight slots is full");
        assert_eq!(t.len(), 4);
        for i in 1..=4usize {
            assert_eq!(t.get(i << 12), Some(i));
        }
        assert_eq!(t.get(5 << 12), None);
    }

    /// Removing an address the table does not hold — never inserted,
    /// already removed, an interior or foreign pointer — changes nothing.
    #[test]
    fn removing_an_unknown_or_foreign_key_is_a_no_op() {
        let mut t = LargeTable::new(8);
        assert!(t.insert(0x10_000, 1));
        assert!(t.insert(0x20_000, 2));
        for foreign in [0x10_008, 0x30_000, usize::MAX, 1, EMPTY] {
            assert_eq!(t.remove(foreign), None, "{foreign:#x}");
        }
        assert_eq!(t.remove(0x10_000), Some(1));
        assert_eq!(t.remove(0x10_000), None, "a second removal");
        assert_eq!((t.len(), t.get(0x20_000)), (1, Some(2)));
    }

    /// Chains that run off the end of the table wrap to its start: with
    /// every address hashed to the last slot, each probe index stays inside
    /// the eight slots, and removals shift the wrapped chain back.
    #[test]
    fn probes_across_the_wrap_stay_in_bounds() {
        let mask = 7;
        let last: Vec<usize> = (1usize..)
            .map(|n| n << 12)
            .filter(|&a| LargeTable::hash(a, mask) == mask)
            .take(4)
            .collect();
        let mut t = LargeTable::from_storage(leaked::<8>(), leaked::<8>());
        for (i, &a) in last.iter().enumerate() {
            assert!(t.insert(a, i));
        }
        assert_eq!(
            LargeTable::find(&t.keys, mask, last[3]),
            Ok(2),
            "slots 7, 0, 1, 2"
        );
        assert_eq!(t.remove(last[0]), Some(0));
        assert_eq!(
            LargeTable::find(&t.keys, mask, last[3]),
            Ok(1),
            "shifted back over the wrap"
        );
        for (i, &a) in last.iter().enumerate().skip(1) {
            assert_eq!(t.get(a), Some(i));
        }
        assert_eq!(t.len(), 3);
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
