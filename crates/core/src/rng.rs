//! Marsaglia's multiply-with-carry pseudo-random number generator.
//!
//! The paper (§4.1) specifies "an inlined version of Marsaglia's
//! multiply-with-carry random number generation algorithm, which is a fast,
//! high-quality source of pseudo-random numbers". This module implements the
//! classic two-lag MWC generator posted by George Marsaglia to
//! `sci.stat.math` in 1994:
//!
//! ```text
//! z = 36969 * (z & 65535) + (z >> 16);
//! w = 18000 * (w & 65535) + (w >> 16);
//! result = (z << 16) + w;
//! ```
//!
//! Every source of randomness in this repository flows through [`Mwc`] so
//! that experiments are exactly reproducible from a seed.

use crate::sync::{sole_thread, Word};

/// Marsaglia multiply-with-carry generator ("MWC", a.k.a. `znew`/`wnew`).
///
/// Fast, allocation-free, and deterministic given a seed — the properties the
/// DieHard allocator needs, since it runs inside `malloc` itself.
///
/// # Examples
///
/// ```
/// use diehard_core::rng::Mwc;
///
/// let mut a = Mwc::seeded(42);
/// let mut b = Mwc::seeded(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mwc {
    z: u32,
    w: u32,
}

/// Marsaglia's published default lag values; used when a seed half is zero
/// (a zero lag would collapse the generator into a fixed point).
const DEFAULT_Z: u32 = 362_436_069;
const DEFAULT_W: u32 = 521_288_629;

/// Words generated per state write-back in [`Mwc::fill_bytes`] (512 bytes —
/// a balance between stack footprint and amortizing the batch overhead).
const FILL_BATCH: usize = 64;

/// One step of the two-lag MWC recurrence — the single definition every
/// draw path shares (`next_u32`, batched fills, and the atomic generator's
/// local advance), so their streams are bit-identical by construction.
#[inline(always)]
fn mwc_step(z: &mut u32, w: &mut u32) -> u32 {
    *z = 36_969u32.wrapping_mul(*z & 0xFFFF).wrapping_add(*z >> 16);
    *w = 18_000u32.wrapping_mul(*w & 0xFFFF).wrapping_add(*w >> 16);
    (*z << 16).wrapping_add(*w)
}

impl Mwc {
    /// Creates a generator from a single 64-bit seed.
    ///
    /// The two 32-bit halves seed the two MWC lags. Zero halves are replaced
    /// with Marsaglia's published defaults so the generator never degenerates.
    ///
    /// # Examples
    ///
    /// ```
    /// use diehard_core::rng::Mwc;
    /// let mut rng = Mwc::seeded(0xDEAD_BEEF);
    /// let _ = rng.next_u32();
    /// ```
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let z = (seed >> 32) as u32;
        let w = seed as u32;
        Self {
            z: if z == 0 { DEFAULT_Z } else { z },
            w: if w == 0 { DEFAULT_W } else { w },
        }
    }

    /// Returns the next 32-bit pseudo-random value.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        mwc_step(&mut self.z, &mut self.w)
    }

    /// Returns the next 64-bit pseudo-random value (two MWC draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Returns a uniformly distributed index in `0..bound`.
    ///
    /// Uses the widening-multiply technique, which avoids the modulo bias of
    /// `next % bound` while staying branch-light (important inside `malloc`).
    /// For a power-of-two bound `2^k` the result is exactly
    /// `next_u64() >> (64 - k)` — the shift the partition probe loop used
    /// while every capacity was one.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero (debug builds only; this runs inside the
    /// allocation probe loop, and every caller passes a capacity already
    /// validated positive at construction).
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "bound must be positive");
        // 64x64 -> 128-bit multiply keeps the result uniform for any bound
        // that fits in usize.
        let r = self.next_u64();
        ((u128::from(r) * bound as u128) >> 64) as usize
    }

    /// Fills `out` with pseudo-random bytes, drawing one 64-bit word per
    /// eight bytes (replicated mode fills whole objects this way — a word
    /// per draw instead of calling the generator byte by byte, §4.1/§4.2).
    ///
    /// The byte stream is a pure function of the generator state as long as
    /// the caller chunks on 8-byte boundaries: filling one 64-byte buffer
    /// or eight 8-byte buffers back to back produces the same bytes (the
    /// fill paths chunk at the 4 KB page size, a multiple of 8). A trailing
    /// partial word consumes one full draw and keeps its leading bytes, so
    /// splitting *inside* a word would draw differently — don't.
    #[inline]
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut words = [0u64; FILL_BATCH];
        let mut chunks = out.chunks_exact_mut(8 * FILL_BATCH);
        for chunk in &mut chunks {
            self.fill_words(&mut words);
            for (dst, word) in chunk.chunks_exact_mut(8).zip(&words) {
                dst.copy_from_slice(&word.to_ne_bytes());
            }
        }
        let rest = chunks.into_remainder();
        let full = rest.len() / 8;
        self.fill_words(&mut words[..full]);
        let mut tail = rest.chunks_exact_mut(8);
        for (dst, word) in (&mut tail).zip(&words) {
            dst.copy_from_slice(&word.to_ne_bytes());
        }
        let rem = tail.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u64().to_ne_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }

    /// Fills `out` with consecutive [`next_u64`](Self::next_u64) draws in
    /// one batch: the generator state is hoisted into locals for the whole
    /// slice and written back once, so the loop body is pure register
    /// arithmetic — one state load/store pair per batch instead of per
    /// draw. The word stream is bit-identical to calling `next_u64` in a
    /// loop (both run the same [`mwc_step`]).
    #[inline]
    pub fn fill_words(&mut self, out: &mut [u64]) {
        let (mut z, mut w) = (self.z, self.w);
        for slot in out {
            let hi = mwc_step(&mut z, &mut w);
            let lo = mwc_step(&mut z, &mut w);
            *slot = (u64::from(hi) << 32) | u64::from(lo);
        }
        self.z = z;
        self.w = w;
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits / 2^53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derives a new independent generator, used to hand each replica its own
    /// random sequence from a single experiment master seed.
    #[must_use]
    pub fn split(&mut self) -> Self {
        // SplitMix-style avalanche of a fresh draw decorrelates the child.
        let s = splitmix(self.next_u64());
        Self::seeded(s)
    }
}

impl Default for Mwc {
    /// A generator with Marsaglia's published default lags.
    fn default() -> Self {
        Self {
            z: DEFAULT_Z,
            w: DEFAULT_W,
        }
    }
}

/// A shared-state [`Mwc`] whose two 32-bit lags live packed in one
/// [`Word`], advanced by compare-and-set.
///
/// The lock-free partition probe loop draws from this generator with `&self`
/// from any thread. A draw loads the packed state, computes the next two MWC
/// steps locally, and publishes them with a single compare-and-set (a locked
/// `cmpxchg`, or a load and a store while the process has one thread — see
/// [`crate::sync`]):
///
/// * **single-threaded, the stream is bit-identical to [`Mwc`]** — every
///   successful draw advances the state exactly as two `next_u32` calls
///   would, which is what keeps alloc-only placement sequences identical to
///   the locked heap for the same seed;
/// * **under contention, draws are serialized by the CAS** — each successful
///   `next_u64` returns a distinct consecutive pair from the one sequential
///   MWC stream (losers retry on the updated state), so concurrent threads
///   interleave the stream rather than duplicating values.
///
/// All state transitions use `Relaxed` ordering: the generator carries no
/// payload other than its own lags, and slot claims are ordered separately
/// by the bitmap's own atomics.
#[derive(Debug)]
pub struct AtomicMwc {
    /// `z` in the high 32 bits, `w` in the low 32 bits.
    state: Word,
}

impl AtomicMwc {
    /// Creates a generator from a single 64-bit seed, with the same
    /// zero-half replacement as [`Mwc::seeded`] (so `AtomicMwc::seeded(s)`
    /// and `Mwc::seeded(s)` start from identical lags).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let m = Mwc::seeded(seed);
        Self {
            state: Word::new(pack(m.z, m.w)),
        }
    }

    /// Returns the next 64-bit value (two MWC steps), identical to
    /// [`Mwc::next_u64`] on the same state.
    #[inline]
    pub fn next_u64(&self) -> u64 {
        self.next_u64_in(sole_thread())
    }

    /// [`next_u64`](Self::next_u64) in the arm `sole` picks (read once by
    /// the caller's call, [`crate::sync`]).
    #[inline]
    fn next_u64_in(&self, sole: bool) -> u64 {
        use core::sync::atomic::Ordering::Relaxed;
        let mut out = 0;
        let _ = self.state.update(sole, Relaxed, Relaxed, |cur| {
            let mut m = unpack(cur);
            out = m.next_u64();
            Some(pack(m.z, m.w))
        });
        out
    }

    /// Returns a uniformly distributed index in `0..bound` via the same
    /// widening multiply as [`Mwc::below`] — the partition's one probe draw:
    /// elastic capacities are mostly not powers of two, and for those that
    /// are the result is the shift on `next_u64`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero (debug builds only).
    #[inline]
    pub fn below(&self, bound: usize) -> usize {
        self.below_in(sole_thread(), bound)
    }

    /// [`below`](Self::below) in the arm `sole` picks.
    #[inline]
    pub(crate) fn below_in(&self, sole: bool, bound: usize) -> usize {
        debug_assert!(bound > 0, "bound must be positive");
        let r = self.next_u64_in(sole);
        ((u128::from(r) * bound as u128) >> 64) as usize
    }
}

#[inline]
fn pack(z: u32, w: u32) -> u64 {
    (u64::from(z) << 32) | u64::from(w)
}

#[inline]
fn unpack(state: u64) -> Mwc {
    Mwc {
        z: (state >> 32) as u32,
        w: state as u32,
    }
}

impl Iterator for Mwc {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        Some(self.next_u32())
    }
}

/// Derives the seed of substream `stream` from a single master seed.
///
/// The heap gives every size-class partition its own [`Mwc`] so
/// that shards never contend on a shared generator; seeding each from
/// `stream_seed(master, class_index)` keeps the whole heap deterministic
/// from one master seed while decorrelating the per-shard streams (two
/// SplitMix64 avalanche rounds separate even adjacent stream indices).
///
/// # Examples
///
/// ```
/// use diehard_core::rng::stream_seed;
///
/// assert_eq!(stream_seed(42, 0), stream_seed(42, 0)); // deterministic
/// assert_ne!(stream_seed(42, 0), stream_seed(42, 1)); // streams differ
/// ```
#[must_use]
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    splitmix(master ^ splitmix(stream.wrapping_add(1)))
}

/// The heap seed of replica `replica` in a set derived from one master
/// seed — the one derivation behind the in-process `ReplicaSet` and the
/// process launcher's seeds, so the same master seeds the same replicas in
/// both (§5: every replica runs on a differently seeded heap).
///
/// # Examples
///
/// ```
/// use diehard_core::rng::{replica_seed, splitmix};
///
/// assert_eq!(replica_seed(42, 0), splitmix(42 ^ 0x9E37_79B9_7F4A_7C15));
/// assert_ne!(replica_seed(42, 0), replica_seed(42, 1));
/// ```
#[must_use]
pub fn replica_seed(master: u64, replica: u64) -> u64 {
    splitmix(master ^ (replica + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One round of the SplitMix64 finalizer, used to stretch and decorrelate
/// seeds (not used on the allocation fast path).
#[must_use]
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Reads a 64-bit truly random seed, preferring `/dev/urandom` exactly as the
/// Linux version of DieHard does (§4.1).
///
/// This implementation is allocation-free so it can run inside the global
/// allocator. When `/dev/urandom` cannot be read (non-Unix platforms or a
/// sandboxed environment), it falls back to hashing the current time and a
/// stack address (ASLR entropy).
#[must_use]
pub fn entropy_seed() -> u64 {
    if let Some(seed) = urandom_seed() {
        return seed;
    }
    fallback_seed()
}

#[cfg(all(unix, feature = "global"))]
fn urandom_seed() -> Option<u64> {
    // Raw libc calls: no heap allocation, safe to run inside malloc.
    let path = b"/dev/urandom\0";
    // SAFETY: `path` is a valid NUL-terminated string; O_RDONLY has no
    // required mode argument.
    let fd = unsafe { libc::open(path.as_ptr().cast::<libc::c_char>(), libc::O_RDONLY) };
    if fd < 0 {
        return None;
    }
    let mut buf = [0u8; 8];
    // SAFETY: `buf` is valid for 8 writable bytes and `fd` is open.
    let n = unsafe { libc::read(fd, buf.as_mut_ptr().cast::<libc::c_void>(), 8) };
    // SAFETY: `fd` was returned by `open` above.
    unsafe { libc::close(fd) };
    if n == 8 {
        Some(u64::from_ne_bytes(buf))
    } else {
        None
    }
}

#[cfg(not(all(unix, feature = "global")))]
fn urandom_seed() -> Option<u64> {
    use std::io::Read;
    let mut f = std::fs::File::open("/dev/urandom").ok()?;
    let mut buf = [0u8; 8];
    f.read_exact(&mut buf).ok()?;
    Some(u64::from_ne_bytes(buf))
}

fn fallback_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    let stack_probe = 0u8;
    let addr = core::ptr::addr_of!(stack_probe) as u64;
    splitmix(t ^ addr.rotate_left(17))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed from Marsaglia's recurrence by hand:
    /// starting from the published default lags, one step gives
    /// z1 = 36969*(362436069 & 0xFFFF) + (362436069 >> 16)
    /// w1 = 18000*(521288629 & 0xFFFF) + (521288629 >> 16)
    /// out = (z1 << 16) + w1 (mod 2^32).
    #[test]
    fn matches_marsaglia_recurrence() {
        let mut rng = Mwc::default();
        let z = DEFAULT_Z;
        let w = DEFAULT_W;
        let z1 = 36_969u32.wrapping_mul(z & 0xFFFF).wrapping_add(z >> 16);
        let w1 = 18_000u32.wrapping_mul(w & 0xFFFF).wrapping_add(w >> 16);
        let expect = (z1 << 16).wrapping_add(w1);
        assert_eq!(rng.next_u32(), expect);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Mwc::seeded(123_456_789);
        let mut b = Mwc::seeded(123_456_789);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Mwc::seeded(1);
        let mut b = Mwc::seeded(2);
        let equal = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(equal < 4, "streams should differ (got {equal} collisions)");
    }

    #[test]
    fn zero_seed_does_not_degenerate() {
        let mut rng = Mwc::seeded(0);
        let first = rng.next_u32();
        let second = rng.next_u32();
        assert_ne!(first, second);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Mwc::seeded(7);
        for bound in [1usize, 2, 3, 10, 1024, 4095] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)] // `below` hot path carries a debug_assert only
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        Mwc::seeded(1).below(0);
    }

    #[test]
    fn below_power_of_two_equals_shift() {
        // The strength-reduced partition draw relies on this identity.
        let mut a = Mwc::seeded(0x5EED);
        let mut b = Mwc::seeded(0x5EED);
        for k in [1u32, 3, 6, 14, 20, 31, 47, 63] {
            for _ in 0..256 {
                let via_below = a.below(1usize << k);
                let via_shift = (b.next_u64() >> (64 - k)) as usize;
                assert_eq!(via_below, via_shift, "bound 2^{k}");
            }
        }
    }

    #[test]
    fn fill_bytes_matches_word_draws_and_chunking() {
        let mut words = Mwc::seeded(42);
        let mut filler = Mwc::seeded(42);
        let mut buf = [0u8; 24];
        filler.fill_bytes(&mut buf);
        for chunk in buf.chunks(8) {
            assert_eq!(chunk, &words.next_u64().to_ne_bytes());
        }
        // Chunked fills draw the same stream as one contiguous fill.
        let mut chunked = Mwc::seeded(42);
        let mut a = [0u8; 16];
        let mut b = [0u8; 8];
        chunked.fill_bytes(&mut a);
        chunked.fill_bytes(&mut b);
        assert_eq!(&buf[..16], &a);
        assert_eq!(&buf[16..], &b);
        // A trailing partial word consumes one draw and keeps its prefix.
        let mut tail = Mwc::seeded(7);
        let expect = tail.next_u64().to_ne_bytes();
        let mut tail2 = Mwc::seeded(7);
        let mut small = [0u8; 3];
        tail2.fill_bytes(&mut small);
        assert_eq!(small, expect[..3]);
        assert_eq!(tail2.next_u64(), tail.next_u64(), "exactly one draw used");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Mwc::seeded(99);
        let bound = 8;
        let mut counts = [0usize; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.below(bound)] += 1;
        }
        let expect = n / bound;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.05, "bucket {i} off by {dev:.3}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Mwc::seeded(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Mwc::seeded(11);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.1));
        }
    }

    #[test]
    fn chance_mid_probability() {
        let mut rng = Mwc::seeded(13);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn split_produces_distinct_stream() {
        let mut parent = Mwc::seeded(77);
        let mut child = parent.split();
        let mut collisions = 0;
        for _ in 0..64 {
            if parent.next_u32() == child.next_u32() {
                collisions += 1;
            }
        }
        assert!(collisions < 4);
    }

    #[test]
    fn entropy_seed_varies() {
        // Two reads should essentially never agree.
        assert_ne!(entropy_seed(), entropy_seed());
    }

    #[test]
    fn iterator_interface() {
        let rng = Mwc::seeded(3);
        let v: Vec<u32> = rng.take(4).collect();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn stream_seeds_deterministic_and_distinct() {
        let seeds: Vec<u64> = (0..16).map(|i| stream_seed(0xA11C, i)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_eq!(a, stream_seed(0xA11C, i as u64), "stream {i} unstable");
            for (j, &b) in seeds.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "streams {i} and {j} collide");
            }
        }
        // Different masters shift every stream.
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
    }

    #[test]
    fn atomic_mwc_matches_sequential_stream() {
        // Single-threaded, the CAS generator is bit-identical to Mwc in
        // either arm — the property the heap's determinism contract rests on.
        fn check(sole: bool) {
            let mut seq = Mwc::seeded(0xD1E_4A8D);
            let atomic = AtomicMwc::seeded(0xD1E_4A8D);
            for _ in 0..1000 {
                assert_eq!(atomic.next_u64_in(sole), seq.next_u64());
            }
            for bound in [1usize, 3, 1024, 4095] {
                assert_eq!(atomic.below_in(sole, bound), seq.below(bound));
            }
        }
        check(false);
        check(true);
    }

    #[test]
    fn atomic_mwc_interleaves_one_stream_across_threads() {
        // Concurrent draws must partition the single sequential stream:
        // every value drawn by any thread appears in the sequential stream,
        // and no value is drawn twice.
        use std::collections::HashSet;
        use std::sync::Arc;
        let atomic = Arc::new(AtomicMwc::seeded(0xC0FFEE));
        const PER_THREAD: usize = 2000;
        const THREADS: usize = 4;
        let mut drawn: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let rng = Arc::clone(&atomic);
                    s.spawn(move || (0..PER_THREAD).map(|_| rng.next_u64()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("drawer thread"))
                .collect()
        });
        let mut seq = Mwc::seeded(0xC0FFEE);
        let expected: HashSet<u64> = (0..THREADS * PER_THREAD).map(|_| seq.next_u64()).collect();
        drawn.sort_unstable();
        let before = drawn.len();
        drawn.dedup();
        assert_eq!(drawn.len(), before, "a draw was duplicated");
        for v in &drawn {
            assert!(expected.contains(v), "draw {v:#x} not in the MWC stream");
        }
    }

    #[test]
    fn splitmix_known_value() {
        // First output of SplitMix64 with seed 0 (well-known test vector).
        assert_eq!(splitmix(0), 0xE220_A839_7B1D_CDAF);
    }
}
