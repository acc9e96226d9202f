//! Heap-bounded replacements for unsafe C string functions (§4.4).
//!
//! "DieHard replaces these unsafe library functions with variants that do
//! not write beyond the allocated area of heap objects. Each function first
//! checks if the destination pointer lies within the heap (two comparisons).
//! If so, it finds the start of the object by bitmasking the pointer with
//! its size (computed with a bitshift) minus one. DieHard then computes the
//! available space from the pointer to the end of the object (two
//! subtractions)."
//!
//! Notably, the paper replaces the "safe" `strncpy` too: its caller-supplied
//! length bound is itself a bug vector, so DieHard clamps it with the *true*
//! object bound.
//!
//! This module implements the bound computation against [`Heap`] and
//! slice-based copy routines shared by the simulated heap; the real global
//! allocator wraps them with raw-pointer entry points.

use crate::config::HeapGeometry;
use crate::sharded::Heap;
use crate::sync::Arm;

/// Computes the number of bytes available from `offset` to the end of the
/// heap object containing it, via the paper's mask-and-subtract scheme.
///
/// Returns `None` when `offset` lies outside the small-object heap (the
/// paper's variants then fall back to the unchecked behaviour, since the
/// pointer may target a stack or global buffer).
///
/// Note the deliberate fidelity to the paper: the bound comes from the
/// *size class geometry alone* — no liveness check — because `strcpy` must
/// stay two-comparisons-cheap.
///
/// # Examples
///
/// ```
/// use diehard_core::{config::HeapConfig, safe_str::space_to_object_end, Heap};
///
/// let heap: Heap = Heap::new(HeapConfig::default(), 1)?;
/// let slot = heap.alloc(100).unwrap(); // rounds to a 128-byte object
/// let off = heap.offset_of(slot);
/// assert_eq!(space_to_object_end(&heap, off), Some(128));
/// assert_eq!(space_to_object_end(&heap, off + 100), Some(28));
/// # Ok::<(), diehard_core::config::ConfigError>(())
/// ```
#[must_use]
pub fn space_to_object_end<A: Arm>(heap: &Heap<A>, offset: usize) -> Option<usize> {
    space_in_object(heap.geometry(), offset)
}

/// As [`space_to_object_end`], but computed from the precomputed heap
/// geometry alone.
///
/// The bound depends only on the (immutable) geometry — not on any
/// allocation state — so the sharded global allocator computes it **without
/// taking any shard lock**, preserving the paper's two-comparisons-cheap
/// contract for the string functions even under concurrency.
#[must_use]
pub fn space_in_object(geometry: &HeapGeometry, offset: usize) -> Option<usize> {
    // One comparison (`slot_at` range-checks via a shift) plus the mask:
    // inside the heap span?
    let slot = crate::engine::slot_at(geometry, offset)?;
    let size = slot.class.object_size();
    // Mask with (size - 1) to find the object start, subtract twice.
    let object_start = offset & !(size - 1);
    Some(size - (offset - object_start))
}

/// The outcome of a bounded copy: how many payload bytes were written and
/// whether the requested copy had to be truncated to stay inside the
/// destination object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOutcome {
    /// Bytes of payload actually copied (excluding any NUL terminator).
    pub copied: usize,
    /// `true` when DieHard clamped the copy to prevent a heap overflow.
    pub truncated: bool,
}

/// DieHard's `strcpy`: copies the NUL-terminated prefix of `src` into
/// `dest`, but never more than `dest_space` bytes (the bound computed by
/// [`space_to_object_end`]). The destination is always NUL-terminated when
/// any space exists.
///
/// Returns the copy outcome; a `truncated` result is precisely the case
/// where glibc's `strcpy` would have overflowed the heap object.
pub fn bounded_strcpy(dest: &mut [u8], dest_space: usize, src: &[u8]) -> CopyOutcome {
    let src_len = src.iter().position(|&b| b == 0).unwrap_or(src.len());
    bounded_copy(dest, dest_space, &src[..src_len])
}

/// DieHard's `strncpy`: like [`bounded_strcpy`] but additionally limited by
/// the caller's length argument `n` — which is *clamped* by the true object
/// bound, because "programmers can inadvertently specify an incorrect
/// length" (§4.4).
pub fn bounded_strncpy(dest: &mut [u8], dest_space: usize, src: &[u8], n: usize) -> CopyOutcome {
    let src_len = src.iter().position(|&b| b == 0).unwrap_or(src.len());
    let want = src_len.min(n);
    bounded_copy(dest, dest_space, &src[..want])
}

fn bounded_copy(dest: &mut [u8], dest_space: usize, payload: &[u8]) -> CopyOutcome {
    let space = dest_space.min(dest.len());
    if space == 0 {
        return CopyOutcome {
            copied: 0,
            truncated: !payload.is_empty(),
        };
    }
    // Reserve one byte for the terminator.
    let room = space - 1;
    let n = payload.len().min(room);
    dest[..n].copy_from_slice(&payload[..n]);
    dest[n] = 0;
    CopyOutcome {
        copied: n,
        truncated: n < payload.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;
    use proptest::prelude::*;

    fn heap() -> Heap {
        Heap::new(HeapConfig::default(), 42).unwrap()
    }

    #[test]
    fn space_full_object() {
        let h = heap();
        for req in [8usize, 33, 4097] {
            let slot = h.alloc(req).unwrap();
            let off = h.offset_of(slot);
            assert_eq!(space_to_object_end(&h, off), Some(slot.size()));
        }
    }

    #[test]
    fn space_interior_pointer() {
        let h = heap();
        let slot = h.alloc(256).unwrap();
        let off = h.offset_of(slot);
        assert_eq!(space_to_object_end(&h, off + 200), Some(56));
        assert_eq!(space_to_object_end(&h, off + 255), Some(1));
    }

    #[test]
    fn space_outside_heap() {
        let h = heap();
        assert_eq!(space_to_object_end(&h, h.heap_span()), None);
        assert_eq!(space_to_object_end(&h, usize::MAX), None);
    }

    #[test]
    fn strcpy_fits() {
        let mut dest = [0xAAu8; 16];
        let out = bounded_strcpy(&mut dest, 16, b"hello\0");
        assert_eq!(
            out,
            CopyOutcome {
                copied: 5,
                truncated: false
            }
        );
        assert_eq!(&dest[..6], b"hello\0");
    }

    #[test]
    fn strcpy_truncates_instead_of_overflowing() {
        let mut dest = [0xAAu8; 8];
        let out = bounded_strcpy(&mut dest, 8, b"overflowing string\0");
        assert!(out.truncated);
        assert_eq!(out.copied, 7);
        assert_eq!(dest[7], 0, "always NUL-terminated");
        // Nothing written past the bound: the slice itself is the proof
        // (a real overflow would have needed dest.len() > 8).
    }

    #[test]
    fn strcpy_unterminated_source_bounded_by_slice() {
        let mut dest = [0u8; 32];
        let out = bounded_strcpy(&mut dest, 32, b"no nul here");
        assert_eq!(out.copied, 11);
        assert!(!out.truncated);
    }

    #[test]
    fn strncpy_caller_bound_respected() {
        let mut dest = [0u8; 16];
        let out = bounded_strncpy(&mut dest, 16, b"hello world\0", 5);
        assert_eq!(out.copied, 5);
        assert_eq!(&dest[..6], b"hello\0");
    }

    #[test]
    fn strncpy_lying_caller_clamped_by_object_bound() {
        // The §4.4 scenario: caller says "copy up to 100 bytes" but the
        // object only holds 8.
        let mut dest = [0u8; 8];
        let out = bounded_strncpy(&mut dest, 8, b"aaaaaaaaaaaaaaaaaaaa\0", 100);
        assert!(out.truncated);
        assert_eq!(out.copied, 7);
    }

    #[test]
    fn zero_space_copies_nothing() {
        let mut dest = [0u8; 4];
        let out = bounded_strcpy(&mut dest, 0, b"x\0");
        assert_eq!(out.copied, 0);
        assert!(out.truncated);
    }

    proptest! {
        /// The copy never writes at or past `dest_space`, and always leaves
        /// a NUL inside the bound when space exists.
        #[test]
        fn never_exceeds_bound(
            src in proptest::collection::vec(1u8..255, 0..64),
            space in 0usize..32,
        ) {
            let mut dest = vec![0xEEu8; 64];
            let out = bounded_strcpy(&mut dest, space, &src);
            prop_assert!(out.copied < space.max(1));
            for (i, &b) in dest.iter().enumerate() {
                if i >= space {
                    prop_assert_eq!(b, 0xEE, "byte {} past bound touched", i);
                }
            }
            if space > 0 {
                prop_assert_eq!(dest[out.copied], 0);
            }
        }

        /// strncpy == strcpy when the caller bound is not the binding one.
        #[test]
        fn strncpy_degenerates_to_strcpy(
            src in proptest::collection::vec(1u8..255, 0..32),
        ) {
            let mut a = vec![0u8; 64];
            let mut b = vec![0u8; 64];
            let oa = bounded_strcpy(&mut a, 40, &src);
            let ob = bounded_strncpy(&mut b, 40, &src, usize::MAX);
            prop_assert_eq!(oa, ob);
            prop_assert_eq!(a, b);
        }

        /// Interior-pointer bound plus offset always equals the object size.
        #[test]
        fn interior_bounds_consistent(req in 1usize..=16*1024, delta in 0usize..64) {
            let h = heap();
            let slot = h.alloc(req).unwrap();
            let off = h.offset_of(slot);
            let delta = delta % slot.size();
            let space = space_to_object_end(&h, off + delta).unwrap();
            prop_assert_eq!(space + delta, slot.size());
        }
    }
}
