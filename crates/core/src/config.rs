//! Heap configuration: the `M` multiplier and region geometry.
//!
//! The paper (§3.1): "We replace the infinite heap with one that is M times
//! larger than the maximum required to obtain an M-approximation to
//! infinite-heap semantics." Each of the twelve per-class regions is allowed
//! to become at most `1/M` full (§4.1).

use crate::partition::MAX_CAPACITY;
use crate::size_class::{SizeClass, MAX_OBJECT_SIZE, NUM_CLASSES};

/// Whether newly served memory is filled with random values.
///
/// The replicated version of DieHard fills the heap and every allocated
/// object with random values so that uninitialized reads diverge across
/// replicas and are caught by the voter (§3.2, §4.2). The stand-alone
/// version skips the fill for speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPolicy {
    /// Leave memory as the substrate provides it (stand-alone mode).
    #[default]
    None,
    /// Fill allocations (and, conceptually, the whole heap) with
    /// pseudo-random values drawn from the heap's RNG (replicated mode).
    Random,
}

/// Configuration for a DieHard heap.
///
/// # Examples
///
/// ```
/// use diehard_core::config::HeapConfig;
///
/// let cfg = HeapConfig::default();          // M = 2, 1 MB regions
/// assert_eq!(cfg.multiplier, 2.0);
/// let big = HeapConfig::paper_default();    // the paper's 384 MB heap
/// assert_eq!(big.region_bytes * 12, 384 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeapConfig {
    /// The heap expansion factor `M`: each region may be at most `1/M` full.
    /// The paper's default configuration uses `M = 2` ("up to 1/2 is
    /// available for allocation", §7.1).
    pub multiplier: f64,
    /// Bytes reserved for each of the twelve size-class regions. Must be a
    /// power of two, at least [`min_region_bytes`](Self::min_region_bytes).
    pub region_bytes: usize,
    /// Random-fill policy for detecting uninitialized reads.
    pub fill: FillPolicy,
}

impl HeapConfig {
    /// Experiment-friendly default: `M = 2` with 1 MB regions (12 MB total),
    /// small enough that Monte Carlo campaigns run thousands of heaps.
    #[must_use]
    pub fn new() -> Self {
        Self {
            multiplier: 2.0,
            region_bytes: 1 << 20,
            fill: FillPolicy::None,
        }
    }

    /// The paper's evaluation configuration (§7.1): a 384 MB heap — twelve
    /// 32 MB regions — of which up to half is available for allocation.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            multiplier: 2.0,
            region_bytes: 32 << 20,
            fill: FillPolicy::None,
        }
    }

    /// Sets the expansion factor `M` (builder style).
    #[must_use]
    pub fn with_multiplier(mut self, m: f64) -> Self {
        self.multiplier = m;
        self
    }

    /// Sets the per-class region size in bytes (builder style).
    #[must_use]
    pub fn with_region_bytes(mut self, bytes: usize) -> Self {
        self.region_bytes = bytes;
        self
    }

    /// Sets the fill policy (builder style).
    #[must_use]
    pub fn with_fill(mut self, fill: FillPolicy) -> Self {
        self.fill = fill;
        self
    }

    /// Smallest legal region size for a given multiplier: the largest size
    /// class (16 KB) must be able to hold at least one live object below the
    /// `1/M` threshold.
    #[must_use]
    pub fn min_region_bytes(multiplier: f64) -> usize {
        let needed = (multiplier.max(1.0) * MAX_OBJECT_SIZE as f64).ceil() as usize;
        needed.next_power_of_two()
    }

    /// Number of object slots in the region for `class`.
    #[must_use]
    #[inline]
    pub fn capacity(&self, class: SizeClass) -> usize {
        self.region_bytes >> class.shift()
    }

    /// Maximum live objects allowed in `class`'s region: `capacity / M`
    /// (§4.1: "Each region is allowed to become at most 1/M full").
    #[must_use]
    #[inline]
    pub fn threshold(&self, class: SizeClass) -> usize {
        self.threshold_for(self.capacity(class))
    }

    /// `⌊capacity / M⌋` in exact integer arithmetic, for an arbitrary slot
    /// count (the adaptive heap's growing partitions use non-class
    /// capacities).
    ///
    /// The obvious `(capacity as f64 / M) as usize` drifts: above 2⁵³ the
    /// capacity itself is not representable, and even below that the rounded
    /// quotient can land on the wrong side of an integer, overshooting the
    /// paper's `1/M` cap by a slot. Every finite `f64` is a dyadic rational
    /// `mant × 2^e`, so the floor is computed exactly as
    /// `⌊capacity × 2^-e / mant⌋` in 128-bit integers.
    #[must_use]
    pub fn threshold_for(&self, capacity: usize) -> usize {
        let m = self.multiplier;
        if !m.is_finite() || m < 1.0 {
            // Out-of-contract multiplier ([`validate`](Self::validate)
            // rejects it): keep the historical float behaviour rather than
            // asserting in a non-validating accessor.
            return (capacity as f64 / m) as usize;
        }
        // m >= 1.0 is normal: m = (2^52 | frac) × 2^(exp - 1075), exactly.
        let bits = m.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as i32;
        let mut mant = (1u64 << 52) | (bits & ((1u64 << 52) - 1));
        let mut e = exp - 1075;
        let tz = mant.trailing_zeros();
        mant >>= tz;
        e += tz as i32;
        if e >= 0 {
            // m is the integer mant << e; a denominator above usize::MAX
            // floors everything to zero.
            if e >= 64 {
                return 0;
            }
            (capacity as u128 / ((mant as u128) << e)) as usize
        } else {
            // mant is odd and < 2^53 with m >= 1, so -e <= 52 and the
            // shifted numerator fits comfortably in 128 bits.
            (((capacity as u128) << -e) / mant as u128) as usize
        }
    }

    /// Total bytes spanned by the twelve small-object regions.
    #[must_use]
    pub fn heap_span(&self) -> usize {
        self.region_bytes * NUM_CLASSES
    }

    /// Byte offset of the start of `class`'s region within the heap span.
    ///
    /// The twelve regions are laid out back to back; converting a heap
    /// offset to (class, slot) is two shifts and a mask, matching the
    /// paper's bit-shifting arithmetic (§4.1).
    #[must_use]
    #[inline]
    pub fn region_base(&self, class: SizeClass) -> usize {
        class.index() * self.region_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `M < 1`, the region size is not a power
    /// of two, the region is too small to host the largest size class under
    /// the `1/M` cap, or its 8-byte class has more slots than a partition
    /// holds ([`MAX_CAPACITY`]: 16 GiB regions and up).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.multiplier.is_finite() || self.multiplier < 1.0 {
            return Err(ConfigError::BadMultiplier(self.multiplier));
        }
        if !self.region_bytes.is_power_of_two() {
            return Err(ConfigError::RegionNotPowerOfTwo(self.region_bytes));
        }
        if self.region_bytes < Self::min_region_bytes(self.multiplier) {
            return Err(ConfigError::RegionTooSmall {
                got: self.region_bytes,
                need: Self::min_region_bytes(self.multiplier),
            });
        }
        if self.capacity(SizeClass::from_index(0)) > MAX_CAPACITY {
            return Err(ConfigError::RegionTooLarge(self.region_bytes));
        }
        Ok(())
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Precomputed shift/mask geometry for a validated [`HeapConfig`].
///
/// The paper's §4.1 chooses power-of-two size classes so that "expensive
/// division and modulus operations [are] replaced with bit-shifting" — this
/// type is where that promise is kept. Built once at heap construction, it
/// turns every per-operation conversion into shifts and masks:
///
/// * offset → class is `offset >> region_shift` (no division),
/// * offset → within-region is `offset & region_mask` (no modulus),
/// * class → region base is `index << region_shift` (no multiply),
/// * per-class capacities are powers of two, for which the partition's
///   probe draw (`⌊next_u64() × capacity / 2^64⌋`, one widening multiply) is
///   exactly `next_u64() >> (64 - log2 capacity)`,
/// * the `1/M` thresholds are integer values computed once
///   ([`HeapConfig::threshold_for`]), never per-call float division.
///
/// Geometry construction *validates*: a `HeapGeometry` existing is proof the
/// configuration is legal, which is what lets the hot paths drop their
/// checks to shifts.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapGeometry {
    config: HeapConfig,
    region_shift: u32,
    region_mask: usize,
    heap_span: usize,
    capacity: [usize; NUM_CLASSES],
    initial_capacity: [usize; NUM_CLASSES],
    initial_threshold: [usize; NUM_CLASSES],
}

impl HeapGeometry {
    /// Validates `config` and precomputes its shift/mask geometry.
    ///
    /// The resulting heap is *fixed-size*: the initial per-class capacity
    /// equals the maximum, so partitions never grow.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new(config: HeapConfig) -> Result<Self, ConfigError> {
        Self::new_elastic(config, 0)
    }

    /// As [`new`](Self::new), but the heap starts *elastic*: each class
    /// begins at `1 / 2^initial_fraction_log2` of its maximum capacity
    /// (clamped to a power of two that can hold at least one live object
    /// under `1/M`) and grows on demand, a quarter of its power-of-two band
    /// at a time ([`AtomicPartition::grow_step`](crate::partition::AtomicPartition::grow_step)),
    /// up to the maximum — which a ladder of quarter-bands reaches exactly
    /// because every start capacity is a power of two. The slot layout is
    /// computed against the *maximum* capacity, so indices, offsets, and
    /// `slot_at`/`locate_free` arithmetic are growth-stable.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn new_elastic(
        config: HeapConfig,
        initial_fraction_log2: u32,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let region_shift = config.region_bytes.trailing_zeros();
        let mut capacity = [0usize; NUM_CLASSES];
        let mut initial_capacity = [0usize; NUM_CLASSES];
        let mut initial_threshold = [0usize; NUM_CLASSES];
        // Smallest useful start: one live slot under 1/M, rounded up to a
        // power of two so the ladder lands on the power-of-two maximum.
        let min_start = (config.multiplier.ceil() as usize)
            .max(2)
            .next_power_of_two();
        for c in SizeClass::all() {
            let cap = config.capacity(c);
            debug_assert!(cap.is_power_of_two(), "pow2 region / pow2 class");
            capacity[c.index()] = cap;
            let start = (cap >> initial_fraction_log2.min(63))
                .max(min_start)
                .min(cap);
            debug_assert!(start.is_power_of_two(), "pow2 max / pow2 fraction");
            initial_capacity[c.index()] = start;
            initial_threshold[c.index()] = config.threshold_for(start).max(1);
        }
        Ok(Self {
            region_shift,
            region_mask: config.region_bytes - 1,
            heap_span: config.heap_span(),
            capacity,
            initial_capacity,
            initial_threshold,
            config,
        })
    }

    /// The validated configuration this geometry was built from.
    #[must_use]
    #[inline]
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// `log2(region_bytes)`: shifting an offset right by this yields its
    /// class index.
    #[must_use]
    #[inline]
    pub fn region_shift(&self) -> u32 {
        self.region_shift
    }

    /// `region_bytes - 1`: masking an offset with this yields the byte
    /// position within its region.
    #[must_use]
    #[inline]
    pub fn region_mask(&self) -> usize {
        self.region_mask
    }

    /// Total bytes spanned by the twelve small-object regions.
    #[must_use]
    #[inline]
    pub fn heap_span(&self) -> usize {
        self.heap_span
    }

    /// Byte offset of the start of `class`'s region (a shift, §4.1).
    #[must_use]
    #[inline]
    pub fn region_base(&self, class: SizeClass) -> usize {
        class.index() << self.region_shift
    }

    /// Number of object slots in `class`'s region (always a power of two).
    #[must_use]
    #[inline]
    pub fn capacity(&self, class: SizeClass) -> usize {
        self.capacity[class.index()]
    }

    /// The slot count `class`'s region starts with — equal to
    /// [`capacity`](Self::capacity) for fixed geometries ([`new`](Self::new)),
    /// a smaller power of two for elastic ones
    /// ([`new_elastic`](Self::new_elastic)).
    #[must_use]
    #[inline]
    pub fn initial_capacity(&self, class: SizeClass) -> usize {
        self.initial_capacity[class.index()]
    }

    /// The `1/M` threshold matching [`initial_capacity`](Self::initial_capacity)
    /// (at least 1, so an elastic start can always serve a first allocation).
    #[must_use]
    #[inline]
    pub fn initial_threshold(&self, class: SizeClass) -> usize {
        self.initial_threshold[class.index()]
    }

    /// Random-fill policy for detecting uninitialized reads.
    #[must_use]
    #[inline]
    pub fn fill(&self) -> FillPolicy {
        self.config.fill
    }
}

/// An invalid [`HeapConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `M` must be a finite value of at least 1.
    BadMultiplier(f64),
    /// Region sizes must be powers of two so offset arithmetic stays
    /// shift/mask only.
    RegionNotPowerOfTwo(usize),
    /// The region cannot hold even one largest-class object under `1/M`.
    RegionTooSmall {
        /// The configured region size.
        got: usize,
        /// The minimum region size for the configured multiplier.
        need: usize,
    },
    /// The region's 8-byte class has more slots than a partition holds
    /// ([`MAX_CAPACITY`]).
    RegionTooLarge(usize),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMultiplier(m) => write!(f, "heap multiplier {m} must be finite and >= 1"),
            Self::RegionNotPowerOfTwo(b) => {
                write!(f, "region size {b} is not a power of two")
            }
            Self::RegionTooSmall { got, need } => {
                write!(f, "region size {got} below minimum {need}")
            }
            Self::RegionTooLarge(b) => write!(
                f,
                "region size {b} holds more than {MAX_CAPACITY} objects of 8 bytes"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        HeapConfig::default().validate().unwrap();
        HeapConfig::paper_default().validate().unwrap();
    }

    #[test]
    fn paper_default_is_384_mb_m2() {
        let cfg = HeapConfig::paper_default();
        assert_eq!(cfg.heap_span(), 384 << 20);
        assert_eq!(cfg.multiplier, 2.0);
    }

    #[test]
    fn capacity_and_threshold() {
        let cfg = HeapConfig::new(); // 1 MB regions, M = 2
        let c0 = SizeClass::from_index(0); // 8 B
        assert_eq!(cfg.capacity(c0), (1 << 20) / 8);
        assert_eq!(cfg.threshold(c0), (1 << 20) / 16);
        let c11 = SizeClass::from_index(11); // 16 KB
        assert_eq!(cfg.capacity(c11), 64);
        assert_eq!(cfg.threshold(c11), 32);
    }

    #[test]
    fn threshold_scales_with_multiplier() {
        let cfg = HeapConfig::new().with_multiplier(4.0);
        let c0 = SizeClass::from_index(0);
        assert_eq!(cfg.threshold(c0), cfg.capacity(c0) / 4);
    }

    #[test]
    fn fractional_multiplier_supported() {
        // M = 4/3 leaves the heap up to 3/4 full, used by Fig 4(a)'s
        // "1/2 full" ... "1/8 full" sweeps via other values.
        let cfg = HeapConfig::new().with_multiplier(4.0 / 3.0);
        cfg.validate().unwrap();
        let c0 = SizeClass::from_index(0);
        let frac = cfg.threshold(c0) as f64 / cfg.capacity(c0) as f64;
        assert!((frac - 0.75).abs() < 0.001);
    }

    #[test]
    fn rejects_multiplier_below_one() {
        let cfg = HeapConfig::new().with_multiplier(0.5);
        assert!(matches!(cfg.validate(), Err(ConfigError::BadMultiplier(_))));
    }

    #[test]
    fn rejects_non_power_of_two_region() {
        let cfg = HeapConfig::new().with_region_bytes(1_000_000);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::RegionNotPowerOfTwo(_))
        ));
    }

    #[test]
    fn rejects_too_small_region() {
        let cfg = HeapConfig::new().with_region_bytes(16 * 1024);
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::RegionTooSmall { .. }));
        // Error message is human-readable.
        assert!(err.to_string().contains("below minimum"));
    }

    #[test]
    fn rejects_region_past_the_partition_capacity() {
        let largest = HeapConfig::new().with_region_bytes(8 << 30);
        largest.validate().unwrap();
        let cfg = largest.with_region_bytes(16 << 30);
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, ConfigError::RegionTooLarge(16 << 30));
        assert!(err.to_string().contains("holds more than"));
    }

    #[test]
    fn min_region_bytes_tracks_multiplier() {
        assert_eq!(HeapConfig::min_region_bytes(2.0), 32 * 1024);
        assert_eq!(HeapConfig::min_region_bytes(8.0), 128 * 1024);
        // M < 1 clamps to 1.
        assert_eq!(HeapConfig::min_region_bytes(0.5), 16 * 1024);
    }

    #[test]
    fn threshold_is_exact_where_the_float_drifted() {
        // Regression cases for the old `(capacity as f64 / M) as usize`:
        // each triple is (capacity, M, exact ⌊capacity / M⌋) at a point
        // where float division lands on the wrong integer.
        //
        // The overshoot cases are the dangerous ones — the float threshold
        // exceeded the paper's `1/M` cap by a slot.
        let cases: &[(usize, f64, usize)] = &[
            // float undershoots (2^60 not representable precisely / 3):
            (1 << 60, 3.0, 384_307_168_202_282_325),
            (1 << 60, 7.0, 164_703_072_086_692_425),
            // float OVERSHOOTS the cap (M = 4/3 as stored in f64):
            ((1 << 53) + 2, 4.0 / 3.0, 6_755_399_441_055_745),
            ((1 << 53) - 1, 4.0 / 3.0, 6_755_399_441_055_743),
            ((1 << 53) - 1, 1.1, 8_188_362_958_855_445),
        ];
        for &(capacity, m, exact) in cases {
            let cfg = HeapConfig::new().with_multiplier(m);
            assert_eq!(
                cfg.threshold_for(capacity),
                exact,
                "capacity {capacity}, M = {m}"
            );
            // And demonstrate the old float arithmetic really was wrong
            // here, so this test fails if anyone "simplifies" it back.
            assert_ne!(
                (capacity as f64 / m) as usize,
                exact,
                "case no longer exercises float drift (capacity {capacity})"
            );
        }
    }

    #[test]
    fn threshold_matches_float_on_dyadic_multipliers() {
        // For dyadic M (exactly representable) and representable capacities
        // the old float result was already exact; the integer path must
        // agree bit for bit.
        for m in [1.0, 1.5, 2.0, 4.0, 8.0, 2.5] {
            let cfg = HeapConfig::new().with_multiplier(m);
            for capacity in [1usize, 2, 63, 64, 4096, 1 << 20, (1 << 30) + 7] {
                assert_eq!(
                    cfg.threshold_for(capacity),
                    (capacity as f64 / m) as usize,
                    "capacity {capacity}, M = {m}"
                );
            }
        }
    }

    #[test]
    fn threshold_huge_multiplier_floors_to_zero() {
        let cfg = HeapConfig::new().with_multiplier(1e300);
        assert_eq!(cfg.threshold_for(usize::MAX), 0);
    }

    proptest::proptest! {
        /// The integer threshold t is the true floor: t·M ≤ capacity and
        /// (t+1)·M > capacity, checked in exact dyadic arithmetic.
        #[test]
        fn threshold_is_true_floor(
            capacity in 1usize..=(1 << 60),
            // Spread multipliers across [1, 16) including non-dyadics.
            num in 8u32..128,
        ) {
            let m = f64::from(num) / 8.0;
            let cfg = HeapConfig::new().with_multiplier(m);
            let t = cfg.threshold_for(capacity);
            // m = mant·2^e exactly; compare t·mant·2^e with capacity in
            // u128 (e here is within ±64 for these multipliers).
            let bits = m.to_bits();
            let exp = ((bits >> 52) & 0x7FF) as i32;
            let mant = ((1u64 << 52) | (bits & ((1u64 << 52) - 1))) as u128;
            let e = exp - 1075;
            let scaled_cap = (capacity as u128) << (-e) as u32;
            proptest::prop_assert!((t as u128) * mant <= scaled_cap);
            proptest::prop_assert!((t as u128 + 1) * mant > scaled_cap);
        }
    }

    #[test]
    fn geometry_matches_config_arithmetic() {
        for region_log2 in [15u32, 20, 25] {
            let cfg = HeapConfig::new().with_region_bytes(1 << region_log2);
            let geom = HeapGeometry::new(cfg.clone()).unwrap();
            assert_eq!(geom.heap_span(), cfg.heap_span());
            assert_eq!(geom.region_mask(), cfg.region_bytes - 1);
            assert_eq!(1usize << geom.region_shift(), cfg.region_bytes);
            for c in SizeClass::all() {
                assert_eq!(geom.capacity(c), cfg.capacity(c));
                assert_eq!(geom.initial_threshold(c), cfg.threshold(c));
                assert_eq!(geom.region_base(c), cfg.region_base(c));
            }
        }
        // Construction validates.
        assert!(HeapGeometry::new(HeapConfig::new().with_region_bytes(12_345)).is_err());
    }

    #[test]
    fn elastic_geometry_starts_small_and_pow2() {
        let cfg = HeapConfig::new(); // 1 MB regions, M = 2
        let geom = HeapGeometry::new_elastic(cfg.clone(), 6).unwrap();
        for c in SizeClass::all() {
            let start = geom.initial_capacity(c);
            let max = geom.capacity(c);
            assert!(start.is_power_of_two(), "start {start} must stay pow2");
            assert!(start <= max);
            assert!(start >= 2, "start can hold one live slot under 1/M");
            assert!(geom.initial_threshold(c) >= 1);
            assert!(geom.initial_threshold(c) <= start);
            // 1/64 of max, clamped from below for the smallest classes.
            assert_eq!(start, (max / 64).max(2).min(max));
        }
        // Fixed geometry: initial == maximum, thresholds identical.
        let fixed = HeapGeometry::new(cfg.clone()).unwrap();
        for c in SizeClass::all() {
            assert_eq!(fixed.initial_capacity(c), fixed.capacity(c));
            assert_eq!(fixed.initial_threshold(c), cfg.threshold(c));
        }
        // Non-dyadic multiplier: the start is still a power of two (the
        // ladder's quarter-bands then land exactly on the maximum).
        let odd = HeapConfig::new().with_multiplier(3.0);
        let geom = HeapGeometry::new_elastic(odd, 10).unwrap();
        for c in SizeClass::all() {
            assert!(geom.initial_capacity(c).is_power_of_two());
        }
    }

    #[test]
    fn region_bases_are_contiguous() {
        let cfg = HeapConfig::new();
        let mut expect = 0;
        for c in SizeClass::all() {
            assert_eq!(cfg.region_base(c), expect);
            expect += cfg.region_bytes;
        }
        assert_eq!(expect, cfg.heap_span());
    }
}
