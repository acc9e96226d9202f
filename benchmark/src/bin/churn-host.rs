//! `churn-host`: a tiny single-threaded C-ABI host for the `churn_host`
//! workload. It replays the seeded trace of `diehard_benchmark::churn`
//! through whatever `malloc`/`free` the process was started with — glibc's,
//! or `libdiehard.so`'s under `LD_PRELOAD` — and prints the checksum.
//!
//! ```text
//! churn-host --seed N --ops N --live N
//! ```
//!
//! Exit status: 0 and one `checksum=<hex> bytes=<n>` line on success, 3 when
//! the allocator returned null, 2 on a usage error.

use diehard_benchmark::churn::{replay, Objects, Params};
use diehard_benchmark::sys;

/// Objects held through the process's C allocator.
struct CHeap;

impl Objects for CHeap {
    type Handle = *mut u8;

    fn alloc(&mut self, size: usize, fill: u8) -> Option<*mut u8> {
        // SAFETY: malloc has no preconditions; a non-null result is valid
        // for `size` bytes of writes, which is all write_bytes touches.
        unsafe {
            let p = sys::malloc(size).cast::<u8>();
            if p.is_null() {
                return None;
            }
            p.write_bytes(fill, size);
            Some(p)
        }
    }

    fn free(&mut self, handle: *mut u8, size: usize) -> (u8, u8) {
        // SAFETY: `handle` came from `alloc` above with this `size` (≥ 8)
        // and has not been freed: the replay driver frees each handle once.
        // The volatile reads keep the read-back from being folded into the
        // fill value.
        unsafe {
            let ends = (handle.read_volatile(), handle.add(size - 1).read_volatile());
            sys::free(handle.cast());
            ends
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: churn-host --seed N --ops N --live N");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = Params {
        seed: 1,
        ops: 0,
        live: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().and_then(|v| v.parse::<u64>().ok());
        match (flag.as_str(), value) {
            ("--seed", Some(v)) => params.seed = v,
            ("--ops", Some(v)) => params.ops = v,
            ("--live", Some(v)) if v >= 1 => params.live = v as usize,
            _ => usage(),
        }
    }
    match replay(params, &mut CHeap) {
        Ok(summary) => println!("checksum={:016x} bytes={}", summary.checksum, summary.bytes),
        Err(oom) => {
            eprintln!(
                "churn-host: malloc returned null with {} objects live",
                oom.live
            );
            std::process::exit(3);
        }
    }
}
