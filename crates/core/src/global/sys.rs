//! Thin, allocation-free wrappers over the Unix virtual-memory syscalls the
//! real DieHard heap needs: reserve, release, and guard-page protection.

/// The system page size, queried once per call site (cheap syscall; the
/// allocator caches it in its state).
#[must_use]
pub fn page_size() -> usize {
    // SAFETY: sysconf is async-signal-safe and has no preconditions.
    let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    if sz <= 0 {
        4096
    } else {
        sz as usize
    }
}

/// Reserves `len` bytes of zeroed, lazily-committed, read-write anonymous
/// memory (the paper: "memory that is reserved by DieHard but not used does
/// not consume any virtual memory; the actual implementation of DieHard
/// lazily initializes heap partitions"). Returns null on failure.
#[must_use]
pub fn map_reserve(len: usize) -> *mut u8 {
    // SAFETY: anonymous private mapping with no address hint; all argument
    // combinations here are valid per POSIX.
    let ptr = unsafe {
        libc::mmap(
            core::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
            -1,
            0,
        )
    };
    if ptr == libc::MAP_FAILED {
        core::ptr::null_mut()
    } else {
        ptr.cast::<u8>()
    }
}

/// Releases a mapping previously returned by [`map_reserve`].
///
/// # Safety
///
/// `ptr`/`len` must denote a live mapping created by [`map_reserve`] and no
/// references into it may outlive the call.
pub unsafe fn unmap(ptr: *mut u8, len: usize) {
    // SAFETY: forwarded caller contract.
    unsafe {
        libc::munmap(ptr.cast::<libc::c_void>(), len);
    }
}

pub use crate::sharded::HUGE_PAGE;

/// As [`map_reserve`], but the returned address is [`HUGE_PAGE`]-aligned:
/// over-reserves by one huge page and unmaps the unaligned head and the
/// unused tail. Kernels that do not THP-align anonymous mappings hand back
/// page-aligned addresses only, and a span whose class regions straddle
/// 2 MB boundaries can be neither advised nor collapsed cleanly. `len` must
/// be a multiple of the page size. Returns null on failure.
#[must_use]
pub fn map_reserve_huge_aligned(len: usize) -> *mut u8 {
    let Some(padded) = len.checked_add(HUGE_PAGE) else {
        return core::ptr::null_mut();
    };
    let raw = map_reserve(padded);
    if raw.is_null() {
        return raw;
    }
    let head = (raw as usize).wrapping_neg() & (HUGE_PAGE - 1);
    // SAFETY: `head < HUGE_PAGE`, so `[raw, raw + head)` and
    // `[raw + head + len, raw + padded)` are page-aligned, unreferenced
    // slices of the mapping created just above; the middle `len` bytes stay
    // mapped and are what the caller receives.
    unsafe {
        let aligned = raw.add(head);
        if head > 0 {
            unmap(raw, head);
        }
        unmap(aligned.add(len), HUGE_PAGE - head);
        aligned
    }
}

/// `madvise` over `[ptr, ptr + len)`, reporting whether the kernel honoured
/// it. Self-gates on null and on ranges shorter than one huge page, where
/// either advice below is pure syscall overhead.
fn madvise_huge(ptr: *mut u8, len: usize, advice: libc::c_int) -> bool {
    if ptr.is_null() || len < HUGE_PAGE {
        return false;
    }
    // SAFETY: both callers pass non-destructive advice on a mapping the
    // caller owns; neither can unmap, move, or change the contents of the
    // range, and an unmapped or unaligned range is an error return.
    unsafe { libc::madvise(ptr.cast::<libc::c_void>(), len, advice) == 0 }
}

/// Advises the kernel to back `[ptr, ptr + len)` with transparent huge
/// pages from now on (`MADV_HUGEPAGE`): pages faulted in *after* the call
/// arrive 2 MB at a time wherever the host's THP mode lets them. `true`
/// means the kernel recorded the advice on the mapping, not that it will
/// act on it: under THP `never` the call still succeeds and the range keeps
/// faulting in 4 KB pages. `false` (a kernel built without THP, an
/// unaligned or sub-2 MB range) means nothing about the mapping changed.
/// Best-effort and non-destructive either way — callers on the allocation
/// side ignore the result; tests and perf kernels read it.
pub fn advise_hugepages(ptr: *mut u8, len: usize) -> bool {
    madvise_huge(ptr, len, libc::MADV_HUGEPAGE)
}

/// Collapses the base pages *already* mapped in `[ptr, ptr + len)` into
/// huge pages in place (`MADV_COLLAPSE`, Linux 6.1+), so a range that was
/// touched 4 KB at a time gets the TLB reach it would have had if it had
/// been advised from the start. Contents and addresses are unchanged.
/// `true` only when every 2 MB extent of the range ended up huge; `false`
/// covers partial collapses (never-touched extents are skipped), `EINVAL`
/// on pre-6.1 kernels and on hosts where THP is off (the kernel documents
/// the collapse as independent of the sysfs mode, so whether `never`
/// refuses it is the kernel's call), and a kernel out of free 2 MB blocks
/// — in every case the range stays valid on whatever mix of page sizes it
/// had.
pub fn collapse_hugepages(ptr: *mut u8, len: usize) -> bool {
    madvise_huge(ptr, len, libc::MADV_COLLAPSE)
}

/// Hints that the cache line holding `ptr` is about to be written
/// (`prefetcht0` on baseline x86-64, `prefetchw` where the target has it).
/// A hint only: it reads and writes no memory, changes no architectural
/// state, and cannot fault — the CPU drops it when the address is unmapped
/// or its page not yet faulted in — so any address is acceptable and the
/// function is safe. Nothing on other architectures.
#[inline(always)]
pub fn prefetch_write(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
        // SAFETY: SSE is part of the x86-64 baseline, and a prefetch has no
        // requirement on its address (see above).
        unsafe { _mm_prefetch::<_MM_HINT_ET0>(ptr.cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc's own record of whether the process has ever had a second
    /// thread (`<sys/single_threaded.h>`, glibc ≥ 2.32): 1 from process
    /// start, set to 0 by the creating thread at the top of its first
    /// `pthread_create`. Typed as an atomic byte because it is a C global
    /// that changes: an immutable extern static would license the compiler
    /// to read it once.
    static __libc_single_threaded: core::sync::atomic::AtomicU8;
}

/// The one read behind [`crate::sync::sole_thread`] (the argument for
/// acting on it is in that module's docs).
#[cfg(target_env = "gnu")]
#[must_use]
#[inline(always)]
pub fn single_threaded() -> bool {
    // SAFETY: the symbol is a one-byte object glibc defines for the life of
    // the process, and glibc writes it only from a thread that is alone
    // (its first `pthread_create`), so an atomic byte load of it is always
    // in bounds and never races a non-atomic write.
    unsafe { __libc_single_threaded.load(core::sync::atomic::Ordering::Relaxed) != 0 }
}

/// Revokes all access to `[ptr, ptr + len)`, turning it into a guard region
/// ("guard pages without read or write access", §4.1).
///
/// # Safety
///
/// The range must lie within a live mapping and be page-aligned.
pub unsafe fn protect_none(ptr: *mut u8, len: usize) {
    // SAFETY: forwarded caller contract.
    unsafe {
        libc::mprotect(ptr.cast::<libc::c_void>(), len, libc::PROT_NONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_sane() {
        let p = page_size();
        assert!(p >= 4096);
        assert!(p.is_power_of_two());
    }

    #[test]
    fn map_and_unmap() {
        let len = 1 << 20;
        let ptr = map_reserve(len);
        assert!(!ptr.is_null());
        // Newly mapped anonymous memory reads as zero and is writable.
        // SAFETY: `ptr` maps `len` zeroed writable bytes.
        unsafe {
            assert_eq!(*ptr, 0);
            *ptr = 0xAB;
            assert_eq!(*ptr, 0xAB);
            unmap(ptr, len);
        }
    }

    #[test]
    fn huge_aligned_reservation_is_aligned_and_exactly_sized() {
        let len = 3 * HUGE_PAGE;
        let ptr = map_reserve_huge_aligned(len);
        assert!(!ptr.is_null());
        assert_eq!(ptr as usize % HUGE_PAGE, 0);
        // First and last byte are mapped; the trimmed head and tail are the
        // caller's business no longer (unmapping exactly `len` must release
        // everything the reservation kept).
        // SAFETY: `ptr` maps `len` zeroed writable bytes.
        unsafe {
            *ptr = 1;
            *ptr.add(len - 1) = 2;
            assert_eq!((*ptr, *ptr.add(len - 1)), (1, 2));
            unmap(ptr, len);
        }
        assert!(map_reserve_huge_aligned(usize::MAX - 4096).is_null());
    }

    #[test]
    fn hugepage_advice_is_harmless() {
        // Under the 2 MB gate: no syscall, reported as not honoured (null
        // included).
        assert!(!advise_hugepages(core::ptr::null_mut(), 1 << 30));
        assert!(!advise_hugepages(4096 as *mut u8, 4096));
        assert!(!collapse_hugepages(core::ptr::null_mut(), 1 << 30));
        assert!(!collapse_hugepages(4096 as *mut u8, 4096));
        // At size: either answer leaves the mapping fully usable with its
        // contents intact. Which answer comes back is the kernel's business
        // (`MADV_HUGEPAGE` succeeds under every sysfs mode, `never` and a
        // sandbox without /sys included; only a kernel built without THP
        // refuses it), so the test holds it to nothing.
        let len = 2 * HUGE_PAGE;
        let ptr = map_reserve_huge_aligned(len);
        assert!(!ptr.is_null());
        // SAFETY: `ptr` maps `len` zeroed writable bytes.
        unsafe {
            *ptr = 0xCD;
            *ptr.add(len - 1) = 0xEF;
        }
        let advised = advise_hugepages(ptr, len);
        // A kernel that refuses the advice has no THP to collapse into; one
        // that cannot collapse (pre-6.1, THP off, no free 2 MB block) must
        // say so and change nothing.
        let collapsed = collapse_hugepages(ptr, len);
        assert!(advised || !collapsed, "no collapse without THP");
        // SAFETY: as above.
        unsafe {
            assert_eq!(*ptr, 0xCD);
            assert_eq!(*ptr.add(len - 1), 0xEF);
            assert_eq!(*ptr.add(HUGE_PAGE), 0, "untouched bytes still zero");
            unmap(ptr, len);
        }
    }
}
