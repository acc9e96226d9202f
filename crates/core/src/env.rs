//! Audited parsing for the `DIEHARD_*` environment knobs.
//!
//! Every environment read the allocator performs funnels through this
//! module, so the whole knob surface has one parsing contract:
//!
//! * **Strict decimal.** A value is accepted only when it is a non-empty
//!   run of ASCII digits whose value fits the target type. Anything else —
//!   empty string, sign, whitespace, hex, overflow — is *malformed* and
//!   treated exactly like an unset variable, falling back to the knob's
//!   documented default. Malformed input never panics: these parsers run
//!   inside allocator initialization, where a panic would try to allocate
//!   and recurse.
//! * **No allocation.** The readers walk the `getenv` C string into a
//!   fixed stack buffer; a value longer than the longest representable
//!   `u64` (20 digits) cannot be in range, so oversized values are
//!   malformed by construction. This keeps the readers callable from
//!   inside `malloc` itself (the `global` allocator and the `LD_PRELOAD`
//!   interposer both initialize lazily on first allocation).
//! * **Only values a heap can be built with.** A well-formed value the
//!   heap cannot be built with — a region that is not a power of two, an
//!   `M` whose `1/M` cap leaves the region no room for one 16 KiB object —
//!   is treated as unset too. Allocator initialization is terminal, so the
//!   alternative is a process whose every allocation fails, for a value
//!   that looks plausible (`DIEHARD_REGION_MB=48`). Knobs with an exponent
//!   domain (`DIEHARD_GROW`) are clamped instead of being truncated ad hoc
//!   at the use site.
//!
//! One pure parser per knob decides all of that ([`parse_u64`] for the
//! seed, [`parse_grow`], [`parse_region_mb`], [`parse_multiplier`]); they
//! are always available and unit-tested without any process-global state.
//! The `getenv`-backed readers call them, and exist on Unix only, alongside
//! the allocator that uses them.
//!
//! | Variable            | Meaning                                  | Default | Accepted                  |
//! |---------------------|------------------------------------------|---------|---------------------------|
//! | `DIEHARD_SEED`      | master RNG seed                          | entropy | any `u64`                 |
//! | `DIEHARD_REGION_MB` | per-class region megabytes               | 32      | power of two, ≤ 8192      |
//! | `DIEHARD_M`         | expansion factor `M`                     | 2       | 1 ≤ `M` ≤ 64 × region MB  |
//! | `DIEHARD_GROW`      | elastic start fraction `1/2^n`           | unset¹  | any, clamped to `n` ≤ 63  |
//!
//! ¹ Unset means what the allocator's constructor says. A `DieHard::new`
//! global allocator is the fixed heap (`n` = 0: regions born at their
//! maximum). `libdiehard.so` falls back to `global::DEFAULT_GROW_LOG2` = 9:
//! with 32 MB
//! regions every class starts at 64 KiB (8192 slots of 8 B … 4 slots of
//! 16 KiB), grows by a quarter of its power-of-two band (64, 80, 96, 112,
//! 128, 160 … KiB) whenever `1/M` of its active range is live, and is
//! resident in proportion to what is live in it — within a quarter of `M` ×
//! the most that has been. The variable names where the ladder *starts*,
//! not how it climbs. `DIEHARD_GROW=4` is the
//! 2 MB-per-class start the library shipped with before, `DIEHARD_GROW=0`
//! the fixed heap. Whatever the start, a class denied at its maximum spills
//! the request to a dedicated mapping instead of returning null. Where the
//! start matters for §3's bounds is spelled out in `global`'s module docs.

use crate::partition::MAX_CAPACITY;
use crate::size_class::MIN_OBJECT_SIZE;

/// Largest accepted `DIEHARD_GROW` exponent: a class starting at `1/2^63`
/// of its maximum is already clamped to the smallest start there is, and the
/// geometry's shift arithmetic lives in `u64` space. Values above this are
/// clamped (the intent "start tiny" is preserved), never truncated bit-wise
/// — `DIEHARD_GROW=4294967296` used to truncate through `as u32` to `0`,
/// silently meaning "start at full size".
pub const MAX_GROW_LOG2: u32 = 63;

/// Default `DIEHARD_REGION_MB`: 32 MB per class, the paper's 384 MB heap.
pub const DEFAULT_REGION_MB: u64 = 32;

/// Largest accepted `DIEHARD_REGION_MB`: the largest power of two whose
/// 8-byte class fits a partition's packed 31-bit capacity
/// ([`MAX_CAPACITY`]): 8 GiB regions, 2³⁰ slots. Twice that is 2³¹ slots,
/// which `HeapConfig::validate` refuses.
pub const MAX_REGION_MB: u64 = ((MAX_CAPACITY as u64).div_ceil(2) * MIN_OBJECT_SIZE as u64) >> 20;

/// Default `DIEHARD_M`: the paper's evaluation multiplier.
pub const DEFAULT_MULTIPLIER: u64 = 2;

/// Strict decimal parse: `Some(value)` iff `bytes` is a non-empty ASCII
/// digit run whose value fits a `u64`. No sign, no whitespace, no radix
/// prefixes; leading zeros are fine.
#[must_use]
pub fn parse_u64(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() {
        return None;
    }
    let mut value: u64 = 0;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(value)
}

/// Parses a `DIEHARD_GROW` value: strict decimal, then clamped to
/// [`MAX_GROW_LOG2`]. Malformed input is `None` (treated as unset).
#[must_use]
pub fn parse_grow(bytes: &[u8]) -> Option<u32> {
    parse_u64(bytes).map(|g| g.min(u64::from(MAX_GROW_LOG2)) as u32)
}

/// Parses a `DIEHARD_REGION_MB` value: strict decimal, a power of two (the
/// heap's offset arithmetic is shifts and masks) and at most
/// [`MAX_REGION_MB`]. Anything else is `None` (treated as unset).
#[must_use]
pub fn parse_region_mb(bytes: &[u8]) -> Option<u64> {
    parse_u64(bytes).filter(|&mb| mb.is_power_of_two() && mb <= MAX_REGION_MB)
}

/// Parses a `DIEHARD_M` value for regions of `region_mb` megabytes: strict
/// decimal, at least 1, and small enough that the largest class (16 KiB)
/// keeps room for one object under its `1/M` cap — `M × 16 KiB` at most the
/// region, i.e. `M ≤ 64 × region_mb`. Anything else is `None` (treated as
/// unset).
#[must_use]
pub fn parse_multiplier(bytes: &[u8], region_mb: u64) -> Option<u64> {
    let most = (region_mb << 20) / crate::size_class::MAX_OBJECT_SIZE as u64;
    parse_u64(bytes).filter(|m| (1..=most).contains(m))
}

#[cfg(unix)]
mod readers {
    use super::{
        parse_grow, parse_multiplier, parse_region_mb, parse_u64, DEFAULT_MULTIPLIER,
        DEFAULT_REGION_MB,
    };

    /// Longest value worth reading: `u64::MAX` has 20 digits; anything
    /// longer is out of range (or has leading zeros past any sane use) and
    /// is treated as malformed.
    const VALUE_MAX: usize = 20;

    /// Reads environment variable `name` (NUL-terminated literal) as a
    /// strict decimal `u64` without allocating. `None` when unset,
    /// malformed, or longer than `VALUE_MAX` (20) bytes.
    #[must_use]
    pub fn read_u64(name: &'static str) -> Option<u64> {
        read(name, parse_u64)
    }

    /// Hands the value of environment variable `name` (NUL-terminated
    /// literal) to `parse` without allocating. `None` when unset, longer
    /// than `VALUE_MAX` (20) bytes, or refused by `parse`.
    fn read<T>(name: &'static str, parse: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        debug_assert!(name.ends_with('\0'), "env names must be NUL-terminated");
        // SAFETY: `name` is NUL-terminated; getenv does not allocate.
        let raw = unsafe { libc::getenv(name.as_ptr().cast::<libc::c_char>()) };
        if raw.is_null() {
            return None;
        }
        let mut buf = [0u8; VALUE_MAX];
        let mut len = 0;
        loop {
            // SAFETY: `raw + len` walks the NUL-terminated getenv string;
            // every byte before the terminator is readable.
            let c = unsafe { *raw.add(len) } as u8;
            if c == 0 {
                break;
            }
            if len == VALUE_MAX {
                return None; // longer than any in-range value
            }
            buf[len] = c;
            len += 1;
        }
        parse(&buf[..len])
    }

    /// `DIEHARD_SEED`: `Some(seed)` when set and well-formed, else `None`
    /// (the allocator then draws true entropy).
    #[must_use]
    pub fn seed() -> Option<u64> {
        read_u64("DIEHARD_SEED\0")
    }

    /// `DIEHARD_GROW` through [`parse_grow`]. `None` (unset/malformed)
    /// leaves the choice to the allocator's constructor (fixed-size, or its
    /// own default fraction).
    #[must_use]
    pub fn grow() -> Option<u32> {
        read("DIEHARD_GROW\0", parse_grow)
    }

    /// `DIEHARD_REGION_MB` through [`parse_region_mb`], default
    /// [`DEFAULT_REGION_MB`].
    #[must_use]
    pub fn region_mb() -> u64 {
        read("DIEHARD_REGION_MB\0", parse_region_mb).unwrap_or(DEFAULT_REGION_MB)
    }

    /// `DIEHARD_M` through [`parse_multiplier`] for regions of `region_mb`
    /// megabytes ([`region_mb`]'s answer), default [`DEFAULT_MULTIPLIER`] —
    /// which every accepted region can hold.
    #[must_use]
    pub fn multiplier(region_mb: u64) -> u64 {
        read("DIEHARD_M\0", |bytes| parse_multiplier(bytes, region_mb))
            .unwrap_or(DEFAULT_MULTIPLIER)
    }
}

#[cfg(unix)]
pub use readers::{grow, multiplier, read_u64, region_mb, seed};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_plain_decimal() {
        assert_eq!(parse_u64(b"0"), Some(0));
        assert_eq!(parse_u64(b"12345"), Some(12345));
        assert_eq!(parse_u64(b"00042"), Some(42));
        assert_eq!(parse_u64(b"18446744073709551615"), Some(u64::MAX));
    }

    #[test]
    fn parse_rejects_everything_else() {
        for bad in [
            &b""[..],
            b" 1",
            b"1 ",
            b"-1",
            b"+1",
            b"0x10",
            b"1e3",
            b"12x45",
            b"18446744073709551616", // u64::MAX + 1
            b"99999999999999999999999999",
        ] {
            assert_eq!(parse_u64(bad), None, "{:?}", core::str::from_utf8(bad));
        }
    }

    #[test]
    fn grow_clamps_instead_of_truncating() {
        assert_eq!(parse_grow(b"6"), Some(6));
        assert_eq!(parse_grow(b"63"), Some(63));
        // The old `as u32` cast turned 2^32 into 0 ("start at full size");
        // the audited parser clamps to the largest meaningful exponent.
        assert_eq!(parse_grow(b"4294967296"), Some(MAX_GROW_LOG2));
        assert_eq!(parse_grow(b"18446744073709551615"), Some(MAX_GROW_LOG2));
        assert_eq!(parse_grow(b"sideways"), None);
        assert_eq!(parse_grow(b""), None);
    }

    /// What the region and `M` knobs accept is exactly what the heap can be
    /// built with: `HeapConfig::validate` agrees on every region from 1 MB
    /// to twice the maximum and every `M` around the bound, and the largest
    /// region is the last whose slot counts fit the partition's packed
    /// words.
    #[test]
    fn region_and_multiplier_accept_only_buildable_heaps() {
        use crate::config::HeapConfig;
        for (raw, region) in [
            (&b"48"[..], None),
            (b"0", None),
            (b"1", Some(1)),
            (b"32", Some(32)),
        ] {
            assert_eq!(parse_region_mb(raw), region, "{raw:?}");
        }
        assert_eq!(MAX_REGION_MB, 8192);
        assert_eq!(parse_region_mb(b"8192"), Some(MAX_REGION_MB));
        assert_eq!(parse_region_mb(b"16384"), None);
        let slots = |mb: u64| (mb << 20) / 8;
        assert!(slots(MAX_REGION_MB) < 1 << 31 && slots(2 * MAX_REGION_MB) >= 1 << 31);
        assert_eq!(parse_multiplier(b"100000", DEFAULT_REGION_MB), None);
        assert_eq!(parse_multiplier(b"0", DEFAULT_REGION_MB), None);
        assert_eq!(parse_multiplier(b"2x", DEFAULT_REGION_MB), None);
        for log2 in 0..=MAX_REGION_MB.ilog2() + 1 {
            let mb = 1u64 << log2;
            let region = HeapConfig::paper_default().with_region_bytes((mb as usize) << 20);
            assert_eq!(
                parse_region_mb(mb.to_string().as_bytes()).is_some(),
                region.validate().is_ok(),
                "{mb} MB regions"
            );
            if mb > MAX_REGION_MB {
                continue;
            }
            let most = mb * 64;
            for m in [1, 2, most - 1, most, most + 1, most * 2] {
                let config = HeapConfig::paper_default()
                    .with_region_bytes((mb as usize) << 20)
                    .with_multiplier(m as f64);
                assert_eq!(
                    parse_multiplier(m.to_string().as_bytes(), mb).is_some(),
                    config.validate().is_ok(),
                    "M = {m} for {mb} MB regions"
                );
            }
        }
    }

    #[cfg(unix)]
    mod getenv_backed {
        use super::super::*;

        // One test mutating one process-global variable, serialized with
        // nothing: no other test in the workspace reads this name.
        #[test]
        fn read_u64_walks_real_environment() {
            std::env::set_var("DIEHARD_ENV_MODULE_TEST", "12345");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), Some(12345));
            std::env::set_var("DIEHARD_ENV_MODULE_TEST", "12x45");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), None);
            std::env::set_var("DIEHARD_ENV_MODULE_TEST", "184467440737095516151");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), None, "21 digits");
            std::env::remove_var("DIEHARD_ENV_MODULE_TEST");
            assert_eq!(read_u64("DIEHARD_ENV_MODULE_TEST\0"), None);
        }

        #[test]
        fn defaults_apply_when_unset() {
            // These names are never set by the test harness.
            assert_eq!(region_mb(), DEFAULT_REGION_MB);
            assert_eq!(multiplier(region_mb()), DEFAULT_MULTIPLIER);
        }
    }
}
