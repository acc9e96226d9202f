//! The paper's analytical model (§6): closed-form probabilities of avoiding
//! or detecting each class of memory error, plus the allocation-cost and
//! object-separation expectations of §3.1 and §4.2.
//!
//! These functions regenerate Figures 4(a) and 4(b) and the worked examples
//! in the text; the Monte Carlo experiments in `diehard-bench` validate them
//! empirically against the actual allocator.

/// Theorem 1 — probability of *masking* a buffer overflow.
///
/// "Let OverflowedObjects be the number of live objects overwritten by a
/// buffer overflow. Then for k ≠ 2, the probability of masking a buffer
/// overflow is P = 1 − (1 − (F/H)^O)^k."
///
/// `free_fraction` is F/H (1 − heap fullness), `overflow_objects` is O (the
/// number of objects' worth of bytes written), `replicas` is k.
///
/// # Panics
///
/// Panics if `free_fraction` is outside `[0, 1]`, or `replicas == 2` — the
/// paper's analysis excludes two replicas because the voter cannot break a
/// 1–1 tie (§6), or `replicas == 0`.
///
/// # Examples
///
/// ```
/// use diehard_sim::analysis::p_overflow_mask;
///
/// // §6.1: a heap no more than 1/8 full masks a single-object overflow
/// // with probability 87.5% stand-alone…
/// assert!((p_overflow_mask(7.0 / 8.0, 1, 1) - 0.875).abs() < 1e-12);
/// // …and with more than 99% probability with three replicas.
/// assert!(p_overflow_mask(7.0 / 8.0, 1, 3) > 0.99);
/// ```
#[must_use]
pub fn p_overflow_mask(free_fraction: f64, overflow_objects: u32, replicas: u32) -> f64 {
    assert!(
        (0.0..=1.0).contains(&free_fraction),
        "free_fraction {free_fraction} outside [0, 1]"
    );
    assert_valid_replicas(replicas);
    let single = free_fraction.powi(overflow_objects as i32);
    1.0 - (1.0 - single).powi(replicas as i32)
}

/// Theorem 2 — lower bound on the probability that a prematurely freed
/// object survives intact.
///
/// "Let Overwrites be the number of times that a particular freed object of
/// size S gets overwritten by one of the next A allocations. Then
/// P(Overwrites = 0) ≥ 1 − (A / (F/S))^k", valid for `A ≤ F/S` and k ≠ 2.
///
/// `intervening_allocs` is A, `free_slots` is Q = F/S (free space divided by
/// the object size, i.e. the number of slots in the object's region bitmap
/// that are free), `replicas` is k. When `A > Q` the bound degenerates to 0.
///
/// # Panics
///
/// Panics if `free_slots == 0` or `replicas` is 0 or 2.
#[must_use]
pub fn p_dangling_mask(intervening_allocs: u64, free_slots: u64, replicas: u32) -> f64 {
    assert!(free_slots > 0, "free_slots must be positive");
    assert_valid_replicas(replicas);
    if intervening_allocs >= free_slots {
        return 0.0;
    }
    let ratio = intervening_allocs as f64 / free_slots as f64;
    1.0 - ratio.powi(replicas as i32)
}

/// [`p_dangling_mask`] evaluated in the paper's default configuration
/// (384 MB heap, twelve 32 MB regions, M = 2 ⇒ at least half of each
/// region free), as plotted in Figure 4(b).
///
/// # Panics
///
/// Panics if `object_size` is not one of the twelve class sizes, or
/// `replicas` is 0 or 2.
///
/// # Examples
///
/// ```
/// use diehard_sim::analysis::p_dangling_mask_default_config;
///
/// // §6.2: "greater than a 99.5% chance of masking an 8-byte object that
/// // was freed 10,000 allocations too soon."
/// assert!(p_dangling_mask_default_config(8, 10_000, 1) > 0.995);
/// ```
#[must_use]
pub fn p_dangling_mask_default_config(
    object_size: usize,
    intervening_allocs: u64,
    replicas: u32,
) -> f64 {
    use diehard_core::config::HeapConfig;
    use diehard_core::size_class::SizeClass;
    let class = SizeClass::for_size(object_size)
        .unwrap_or_else(|| panic!("{object_size} is not a small-object size"));
    assert_eq!(
        class.object_size(),
        object_size,
        "{object_size} is not an exact class size"
    );
    let cfg = HeapConfig::paper_default();
    // At the 1/M cap, free slots = capacity − threshold = capacity/2.
    let free_slots = (cfg.capacity(class) - cfg.threshold(class)) as u64;
    p_dangling_mask(intervening_allocs, free_slots, replicas)
}

/// Theorem 3 — probability of *detecting* an uninitialized read of `bits`
/// bits across `replicas` replicas (k > 2).
///
/// "P = (2^B)! / ((2^B − k)! · 2^(Bk))" — the probability that all k
/// replicas fill the B uninitialized bits with pairwise-distinct values, so
/// that all outputs disagree and the voter flags the read.
///
/// Computed as ∏_{i=0}^{k−1} (2^B − i)/2^B in log space, which is exact for
/// the small k of interest and never overflows for large B.
///
/// # Panics
///
/// Panics if `replicas < 3` (detection requires disagreement among at least
/// three voters) or `bits == 0`.
///
/// # Examples
///
/// ```
/// use diehard_sim::analysis::p_uninit_detect;
///
/// // §6.3: four bits across three replicas ⇒ 82%; four replicas ⇒ 66.7%.
/// assert!((p_uninit_detect(4, 3) - 0.8203).abs() < 1e-3);
/// assert!((p_uninit_detect(4, 4) - 0.6665).abs() < 1e-3);
/// // Sixteen bits: 99.995% for three replicas.
/// assert!(p_uninit_detect(16, 3) > 0.9999);
/// ```
#[must_use]
pub fn p_uninit_detect(bits: u32, replicas: u32) -> f64 {
    assert!(replicas >= 3, "uninit detection requires k >= 3 replicas");
    assert!(bits > 0, "bits must be positive");
    let domain = (2f64).powi(bits as i32);
    if f64::from(replicas) > domain {
        // More replicas than distinct values: they cannot all differ.
        return 0.0;
    }
    // ln ∏ (domain − i)/domain = Σ ln(1 − i/domain); ln_1p keeps the terms
    // exact when i/domain underflows ordinary subtraction (large B).
    let mut ln_p = 0.0;
    for i in 0..replicas {
        ln_p += (-f64::from(i) / domain).ln_1p();
    }
    ln_p.exp().clamp(0.0, 1.0)
}

/// Expected probes per allocation when the region is `fullness` full
/// (§4.2): probing a bitmap where each probe independently hits a live slot
/// with probability `fullness` succeeds after 1/(1 − fullness) attempts in
/// expectation. At the `1/M` cap this is the paper's `1/(1 − 1/M)`;
/// "for M = 2, the expected number of probes is two".
///
/// # Panics
///
/// Panics if `fullness` is outside `[0, 1)`.
#[must_use]
pub fn expected_probes(fullness: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&fullness),
        "fullness {fullness} outside [0, 1)"
    );
    1.0 / (1.0 - fullness)
}

/// Expected probes at the fullness cap for expansion factor `m`.
///
/// # Panics
///
/// Panics if `m <= 1`.
#[must_use]
pub fn expected_probes_at_cap(m: f64) -> f64 {
    assert!(m > 1.0, "expansion factor must exceed 1");
    expected_probes(1.0 / m)
}

/// Expected minimum separation between live objects, in objects, for an
/// M-approximation of the infinite heap (§3.1): "a minimum expected
/// separation of E[minimum separation] = M − 1 objects, making overflows
/// smaller than M − 1 objects benign."
///
/// # Panics
///
/// Panics if `m < 1`.
#[must_use]
pub fn expected_min_separation(m: f64) -> f64 {
    assert!(m >= 1.0, "expansion factor must be at least 1");
    m - 1.0
}

fn assert_valid_replicas(replicas: u32) {
    assert!(replicas >= 1, "at least one replica required");
    assert!(
        replicas != 2,
        "the analysis excludes k = 2: the voter cannot break a 1-1 tie (§6)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // ---- Theorem 1 -------------------------------------------------------

    #[test]
    fn overflow_paper_values() {
        // Figure 4(a) anchor points (heap 1/8, 1/4, 1/2 full; O = 1).
        assert!((p_overflow_mask(0.875, 1, 1) - 0.875).abs() < 1e-12);
        assert!((p_overflow_mask(0.75, 1, 1) - 0.75).abs() < 1e-12);
        assert!((p_overflow_mask(0.5, 1, 1) - 0.5).abs() < 1e-12);
        // Three replicas at 1/8 full: > 99%.
        assert!(p_overflow_mask(0.875, 1, 3) > 0.99);
        // Six replicas at 1/2 full: 1 − (1/2)^6.
        assert!((p_overflow_mask(0.5, 1, 6) - (1.0 - 0.5f64.powi(6))).abs() < 1e-12);
    }

    #[test]
    fn overflow_larger_overflows_harder_to_mask() {
        let p1 = p_overflow_mask(0.5, 1, 1);
        let p4 = p_overflow_mask(0.5, 4, 1);
        assert!(p4 < p1);
        assert!((p4 - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn overflow_degenerate_fractions() {
        assert_eq!(p_overflow_mask(1.0, 5, 1), 1.0); // empty heap: always masked
        assert_eq!(p_overflow_mask(0.0, 1, 1), 0.0); // full heap: never masked
    }

    #[test]
    #[should_panic(expected = "k = 2")]
    fn overflow_rejects_two_replicas() {
        let _ = p_overflow_mask(0.5, 1, 2);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn overflow_rejects_bad_fraction() {
        let _ = p_overflow_mask(1.5, 1, 1);
    }

    // ---- Theorem 2 -------------------------------------------------------

    #[test]
    fn dangling_paper_value() {
        // 8-byte object, 10,000 intervening allocations, default config:
        // > 99.5% (§6.2).
        let p = p_dangling_mask_default_config(8, 10_000, 1);
        assert!(p > 0.995, "got {p}");
        // Exact: 1 − 10000/2097152.
        assert!((p - (1.0 - 10_000.0 / 2_097_152.0)).abs() < 1e-12);
    }

    #[test]
    fn dangling_saturates_when_allocs_exceed_slots() {
        assert_eq!(p_dangling_mask(100, 50, 1), 0.0);
        assert_eq!(p_dangling_mask(50, 50, 1), 0.0);
    }

    #[test]
    fn dangling_replicas_help() {
        let p1 = p_dangling_mask(1000, 4096, 1);
        let p3 = p_dangling_mask(1000, 4096, 3);
        assert!(p3 > p1);
    }

    #[test]
    fn dangling_larger_objects_riskier() {
        // Fewer slots for bigger classes ⇒ lower survival (Fig 4b shape).
        let small = p_dangling_mask_default_config(8, 1000, 1);
        let big = p_dangling_mask_default_config(256, 1000, 1);
        assert!(big < small);
    }

    #[test]
    #[should_panic(expected = "not an exact class size")]
    fn dangling_default_config_rejects_non_class_size() {
        let _ = p_dangling_mask_default_config(24, 100, 1);
    }

    // ---- Theorem 3 -------------------------------------------------------

    #[test]
    fn uninit_paper_values() {
        assert!((p_uninit_detect(4, 3) - 3360.0 / 4096.0).abs() < 1e-12);
        assert!((p_uninit_detect(4, 4) - 43_680.0 / 65_536.0).abs() < 1e-12);
        assert!(p_uninit_detect(16, 3) > 0.999_94);
        assert!(p_uninit_detect(16, 4) > 0.999_8);
    }

    #[test]
    fn uninit_more_replicas_lower_detection() {
        // The counter-intuitive drop the paper highlights in §6.3.
        assert!(p_uninit_detect(4, 4) < p_uninit_detect(4, 3));
    }

    #[test]
    fn uninit_replicas_exceeding_domain() {
        // 1 bit across 3 replicas: pigeonhole, cannot all differ.
        assert_eq!(p_uninit_detect(1, 3), 0.0);
    }

    #[test]
    fn uninit_large_b_stable() {
        let p = p_uninit_detect(512, 3);
        assert!(p > 0.999_999);
        assert!(p <= 1.0);
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn uninit_rejects_one_replica() {
        let _ = p_uninit_detect(4, 1);
    }

    // ---- Expectations ----------------------------------------------------

    #[test]
    fn probes_paper_value() {
        assert!((expected_probes_at_cap(2.0) - 2.0).abs() < 1e-12);
        assert!((expected_probes(0.0) - 1.0).abs() < 1e-12);
        assert!((expected_probes(0.75) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn separation_paper_value() {
        assert_eq!(expected_min_separation(2.0), 1.0);
        assert_eq!(expected_min_separation(8.0), 7.0);
        assert_eq!(expected_min_separation(1.0), 0.0);
    }

    // ---- Property tests --------------------------------------------------

    fn replica_counts() -> impl Strategy<Value = u32> {
        prop_oneof![Just(1u32), 3u32..=8]
    }

    proptest! {
        #[test]
        fn overflow_in_unit_interval(
            f in 0.0f64..=1.0,
            o in 1u32..8,
            k in replica_counts(),
        ) {
            let p = p_overflow_mask(f, o, k);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        /// More replicas can only help mask overflows.
        #[test]
        fn overflow_monotone_in_replicas(f in 0.01f64..0.99, o in 1u32..4) {
            let p1 = p_overflow_mask(f, o, 1);
            let p3 = p_overflow_mask(f, o, 3);
            let p6 = p_overflow_mask(f, o, 6);
            prop_assert!(p1 <= p3 + 1e-12);
            prop_assert!(p3 <= p6 + 1e-12);
        }

        /// An emptier heap can only help.
        #[test]
        fn overflow_monotone_in_free_fraction(
            a in 0.0f64..=1.0,
            b in 0.0f64..=1.0,
            k in replica_counts(),
        ) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p_overflow_mask(lo, 1, k) <= p_overflow_mask(hi, 1, k) + 1e-12);
        }

        #[test]
        fn dangling_in_unit_interval(
            a in 0u64..100_000,
            q in 1u64..10_000_000,
            k in replica_counts(),
        ) {
            let p = p_dangling_mask(a, q, k);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        /// Waiting longer (more intervening allocations) can only hurt.
        #[test]
        fn dangling_monotone_in_allocs(
            a in 0u64..1000,
            d in 0u64..1000,
            q in 2000u64..100_000,
            k in replica_counts(),
        ) {
            prop_assert!(p_dangling_mask(a + d, q, k) <= p_dangling_mask(a, q, k) + 1e-12);
        }

        #[test]
        fn uninit_in_unit_interval(b in 1u32..64, k in 3u32..8) {
            let p = p_uninit_detect(b, k);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        /// More uninitialized bits ⇒ easier to detect.
        #[test]
        fn uninit_monotone_in_bits(b in 2u32..32, k in 3u32..6) {
            prop_assert!(p_uninit_detect(b, k) <= p_uninit_detect(b + 1, k) + 1e-12);
        }

        #[test]
        fn probes_at_least_one(f in 0.0f64..0.999) {
            prop_assert!(expected_probes(f) >= 1.0);
        }
    }
}
