//! Power-of-two size classes.
//!
//! The paper (§4.1): "The heap is logically partitioned into twelve regions,
//! one for each power-of-two size class from 8 bytes to 16 kilobytes. ...
//! Object requests are rounded up to the nearest power of two. Using powers
//! of two significantly speeds allocation by allowing expensive division and
//! modulus operations to be replaced with bit-shifting."
//!
//! A request of size `sz` maps to class `ceil(log2(sz)) - 3` (§4.2).

/// Number of small-object size classes (8 B, 16 B, …, 16 KB).
pub const NUM_CLASSES: usize = 12;

/// Smallest object size in bytes (class 0).
pub const MIN_OBJECT_SIZE: usize = 8;

/// Largest small-object size in bytes (class 11); bigger requests go to the
/// large-object path (`mmap` + guard pages).
pub const MAX_OBJECT_SIZE: usize = 16 * 1024;

/// log2 of [`MIN_OBJECT_SIZE`]; subtracted when converting sizes to classes.
const MIN_SHIFT: u32 = 3;

/// A small-object size class: an index in `0..12` naming one power-of-two
/// region of the DieHard heap.
///
/// The index is typed: it can only hold `0..12`, so a per-class table
/// indexed by it (the heap's twelve partitions, their locks and counters)
/// needs no bounds check, and has no failing one.
///
/// # Examples
///
/// ```
/// use diehard_core::size_class::SizeClass;
///
/// let c = SizeClass::for_size(24).unwrap();
/// assert_eq!(c.object_size(), 32);
/// assert_eq!(c.index(), 2);
/// assert!(SizeClass::for_size(20_000).is_none()); // large object
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizeClass(Index);

/// The twelve class indices, as a type with exactly twelve values.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Index {
    I0,
    I1,
    I2,
    I3,
    I4,
    I5,
    I6,
    I7,
    I8,
    I9,
    I10,
    I11,
}

impl SizeClass {
    /// Class `i` at position `i` for the twelve classes, and the last class
    /// at the four past them: a table any index masked to four bits reads.
    const BY_INDEX: [Self; 16] = [
        Self(Index::I0),
        Self(Index::I1),
        Self(Index::I2),
        Self(Index::I3),
        Self(Index::I4),
        Self(Index::I5),
        Self(Index::I6),
        Self(Index::I7),
        Self(Index::I8),
        Self(Index::I9),
        Self(Index::I10),
        Self(Index::I11),
        Self(Index::I11),
        Self(Index::I11),
        Self(Index::I11),
        Self(Index::I11),
    ];

    /// Maps a request size to its class, or `None` when the request must use
    /// the large-object allocator (`sz > 16 KB`) or is zero.
    ///
    /// This is the paper's `dlog2e of the request, minus 3`, with sizes below
    /// 8 bytes rounded up to class 0.
    #[must_use]
    #[inline]
    pub fn for_size(sz: usize) -> Option<Self> {
        if sz == 0 || sz > MAX_OBJECT_SIZE {
            return None;
        }
        // ⌈log2 sz⌉ − 3, from 8-byte requests (`| 7`) up: at most
        // log2(16 KiB) − 3 = 11, so the mask changes nothing.
        let bits = usize::BITS - ((sz - 1) | (MIN_OBJECT_SIZE - 1)).leading_zeros();
        Some(Self::BY_INDEX[(bits - MIN_SHIFT) as usize & 15])
    }

    /// `[f(class 0), …, f(class 11)]`: a per-class table, each entry built
    /// from its class.
    pub(crate) fn table<T>(mut f: impl FnMut(Self) -> T) -> [T; NUM_CLASSES] {
        core::array::from_fn(|i| f(Self::BY_INDEX[i & 15]))
    }

    /// Builds a class directly from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 12`.
    #[must_use]
    #[inline]
    pub fn from_index(index: usize) -> Self {
        assert!(index < NUM_CLASSES, "size class index {index} out of range");
        Self::BY_INDEX[index]
    }

    /// The class with index `index`, or `None` past the twelfth: the
    /// offset arithmetic's conversion, which has no failing case.
    #[must_use]
    #[inline]
    pub fn get(index: usize) -> Option<Self> {
        (index < NUM_CLASSES).then(|| Self::BY_INDEX[index & 15])
    }

    /// The class index in `0..12`.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The (power-of-two) object size served by this class, in bytes.
    #[must_use]
    #[inline]
    pub fn object_size(self) -> usize {
        MIN_OBJECT_SIZE << self.index()
    }

    /// log2 of the object size; offsets within a region are computed with
    /// shifts by this amount rather than multiplication (§4.1).
    #[must_use]
    #[inline]
    pub fn shift(self) -> u32 {
        MIN_SHIFT + self.0 as u32
    }

    /// Iterates over all twelve classes, smallest first.
    pub fn all() -> impl DoubleEndedIterator<Item = SizeClass> + ExactSizeIterator {
        Self::BY_INDEX.into_iter().take(NUM_CLASSES)
    }
}

impl core::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let size = self.object_size();
        if size >= 1024 {
            write!(f, "class {} ({} KB)", self.index(), size / 1024)
        } else {
            write!(f, "class {} ({} B)", self.index(), size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn twelve_classes_cover_8b_to_16kb() {
        let classes: Vec<SizeClass> = SizeClass::all().collect();
        assert_eq!(classes.len(), NUM_CLASSES);
        assert_eq!(classes[0].object_size(), 8);
        assert_eq!(classes[11].object_size(), 16 * 1024);
    }

    #[test]
    fn exact_powers_map_to_themselves() {
        for c in SizeClass::all() {
            let sz = c.object_size();
            assert_eq!(SizeClass::for_size(sz), Some(c));
        }
    }

    #[test]
    fn rounding_up() {
        assert_eq!(SizeClass::for_size(1).unwrap().object_size(), 8);
        assert_eq!(SizeClass::for_size(8).unwrap().object_size(), 8);
        assert_eq!(SizeClass::for_size(9).unwrap().object_size(), 16);
        assert_eq!(SizeClass::for_size(100).unwrap().object_size(), 128);
        assert_eq!(SizeClass::for_size(16_383).unwrap().object_size(), 16_384);
    }

    #[test]
    fn boundary_cases() {
        assert_eq!(SizeClass::for_size(0), None);
        assert_eq!(
            SizeClass::for_size(MAX_OBJECT_SIZE).unwrap().index(),
            NUM_CLASSES - 1
        );
        assert_eq!(SizeClass::for_size(MAX_OBJECT_SIZE + 1), None);
    }

    #[test]
    fn shift_matches_size() {
        for c in SizeClass::all() {
            assert_eq!(1usize << c.shift(), c.object_size());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_13th_class() {
        let _ = SizeClass::from_index(12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SizeClass::from_index(0).to_string(), "class 0 (8 B)");
        assert_eq!(SizeClass::from_index(11).to_string(), "class 11 (16 KB)");
    }

    proptest! {
        /// For all valid sizes, the class size is the smallest power of two
        /// (>= 8) that fits the request.
        #[test]
        fn class_is_tight_fit(sz in 1usize..=MAX_OBJECT_SIZE) {
            let c = SizeClass::for_size(sz).unwrap();
            let obj = c.object_size();
            prop_assert!(obj >= sz);
            prop_assert!(obj.is_power_of_two());
            prop_assert!(obj == MIN_OBJECT_SIZE || obj / 2 < sz,
                "class {obj} not tight for request {sz}");
        }

        /// Index/size round-trips agree.
        #[test]
        fn index_roundtrip(i in 0usize..NUM_CLASSES) {
            let c = SizeClass::from_index(i);
            prop_assert_eq!(c.index(), i);
            prop_assert_eq!(SizeClass::for_size(c.object_size()), Some(c));
        }

        /// `for_size` is monotone in the request size.
        #[test]
        fn monotone(a in 1usize..=MAX_OBJECT_SIZE, b in 1usize..=MAX_OBJECT_SIZE) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let cl = SizeClass::for_size(lo).unwrap();
            let ch = SizeClass::for_size(hi).unwrap();
            prop_assert!(cl <= ch);
        }
    }
}
