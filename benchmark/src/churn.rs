//! The allocation-churn trace `churn-host` replays, and the model that
//! predicts its checksum.
//!
//! One replay driver serves both: [`replay`] walks the seeded trace over
//! any [`Objects`] store. `churn-host` plugs in the C allocator (every
//! object fully written when allocated, its first and last byte read back
//! when freed); the harness plugs in [`Model`], which remembers only what
//! *should* be read back. The two checksums agree exactly when every
//! object kept its contents for its whole life — under glibc and under
//! DieHard alike, whatever the placement.

use crate::inputs::{stream, Rng};

/// What to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Trace seed.
    pub seed: u64,
    /// Free+malloc pairs after the live ring is filled.
    pub ops: u64,
    /// Objects kept live throughout.
    pub live: usize,
}

/// What a replay did; identical for every correct allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Folded from every freed object's size, first and last byte.
    pub checksum: u64,
    /// Bytes requested (and written) over the whole replay.
    pub bytes: u64,
}

/// A store of live objects.
pub trait Objects {
    /// Names one live object.
    type Handle;
    /// Allocates `size` bytes and fills them with `fill`; `None` when the
    /// allocator is out of memory.
    fn alloc(&mut self, size: usize, fill: u8) -> Option<Self::Handle>;
    /// Reads the object's first and last byte, then frees it.
    fn free(&mut self, handle: Self::Handle, size: usize) -> (u8, u8);
}

/// The store that allocates nothing: the bytes a correct allocator must
/// hand back are the fill byte.
#[derive(Debug, Default)]
pub struct Model;

impl Objects for Model {
    type Handle = u8;
    fn alloc(&mut self, _size: usize, fill: u8) -> Option<u8> {
        Some(fill)
    }
    fn free(&mut self, handle: u8, _size: usize) -> (u8, u8) {
        (handle, handle)
    }
}

/// The allocator returned null.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Objects live when it happened.
    pub live: usize,
}

/// Request sizes: 60 % 8–63 B, 30 % 64–255 B, 9 % 256–1023 B, 1 % 1–4 KiB —
/// small-object dominated like the allocation-intensive programs of the
/// paper's Fig. 5, with enough spread to touch nine size classes.
fn draw_size(rng: &mut Rng) -> usize {
    let size = match rng.below(100) {
        0..=59 => rng.range(8, 63),
        60..=89 => rng.range(64, 255),
        90..=98 => rng.range(256, 1023),
        _ => rng.range(1024, 4096),
    };
    size as usize
}

/// Replays the trace: fill `live` objects, then `ops` times free a random
/// live object and allocate its replacement, then free everything.
///
/// # Errors
///
/// Returns [`OutOfMemory`] the first time `store.alloc` yields `None`.
pub fn replay<S: Objects>(params: Params, store: &mut S) -> Result<Summary, OutOfMemory> {
    let mut rng = Rng::new(params.seed, stream::CHURN);
    let mut summary = Summary {
        checksum: 0,
        bytes: 0,
    };
    let mut ring: Vec<(S::Handle, usize)> = Vec::with_capacity(params.live);
    let place = |rng: &mut Rng, store: &mut S, summary: &mut Summary, live: usize| {
        let size = draw_size(rng);
        let fill = rng.next_u64() as u8;
        summary.bytes += size as u64;
        store
            .alloc(size, fill)
            .map(|handle| (handle, size))
            .ok_or(OutOfMemory { live })
    };
    let fold = |summary: &mut Summary, size: usize, (first, last): (u8, u8)| {
        summary.checksum = summary.checksum.rotate_left(5)
            ^ u64::from(first)
            ^ (u64::from(last) << 8)
            ^ ((size as u64) << 16);
    };
    for live in 0..params.live {
        ring.push(place(&mut rng, store, &mut summary, live)?);
    }
    for _ in 0..params.ops {
        let slot = rng.below(params.live as u64) as usize;
        let fresh = place(&mut rng, store, &mut summary, params.live)?;
        let (handle, size) = std::mem::replace(&mut ring[slot], fresh);
        fold(&mut summary, size, store.free(handle, size));
    }
    for (handle, size) in ring {
        fold(&mut summary, size, store.free(handle, size));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_checksum_depends_only_on_the_trace() {
        let p = Params {
            seed: 9,
            ops: 10_000,
            live: 500,
        };
        let a = replay(p, &mut Model).unwrap();
        assert_eq!(a, replay(p, &mut Model).unwrap());
        assert_ne!(a, replay(Params { seed: 10, ..p }, &mut Model).unwrap());
        assert!(a.bytes > 10_000 * 8);
    }

    #[test]
    fn exhaustion_is_reported_not_swallowed() {
        struct Tiny(usize);
        impl Objects for Tiny {
            type Handle = ();
            fn alloc(&mut self, _: usize, _: u8) -> Option<()> {
                self.0 = self.0.checked_sub(1)?;
                Some(())
            }
            fn free(&mut self, (): (), _: usize) -> (u8, u8) {
                self.0 += 1;
                (0, 0)
            }
        }
        let p = Params {
            seed: 1,
            ops: 10,
            live: 8,
        };
        assert_eq!(replay(p, &mut Tiny(5)), Err(OutOfMemory { live: 5 }));
        assert!(replay(p, &mut Tiny(9)).is_ok());
    }
}
