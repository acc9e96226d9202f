//! Instructions per `malloc`/`free` pair through `libdiehard.so`, counted by
//! single-stepping — a number this box's noise cannot move.
//!
//! No libtest harness: the count needs a process whose thread count the
//! test decides. `main` re-executes this binary as a traced child
//! (`PTRACE_TRACEME`, then `execve`) with `LD_PRELOAD=libdiehard.so` and a
//! fixed `DIEHARD_SEED`. The child fills a ring of 64 objects of 128 B and
//! raises `SIGUSR1`; then, `pairs` times, it frees one slot's object,
//! allocates a fresh one and writes it, and raises `SIGUSR1` again. The
//! parent lets it run to the first marker, single-steps it to the second
//! and counts the steps. Two runs that differ only in `pairs` differ by
//! exactly the extra pairs (the seed fixes every placement), so the
//! difference of their counts over the difference of their lengths is what
//! one pair costs in user instructions, with start-up, the warm-up and the
//! markers subtracted out.
//!
//! Two arms: `alone` (the child has one thread, so the heap's words are
//! plain loads and stores and its magazines are the heap's own) and
//! `threaded` (a parked thread exists first: thread-local magazines and
//! locked instructions). glibc's own `malloc` is counted the same way for
//! reference. Each arm's count must stay within its bound below.
//!
//! The counts are of the release build; a debug build (tier-1's `cargo
//! test`) prints a skip line. So does a machine where the library has not
//! been built in this profile, or where `ptrace` is refused.

use std::hint::black_box;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use libc::{c_int, c_void};

/// The argument that makes this binary the traced child.
const CHILD: &str = "--traced-ring";
/// Live objects in the ring, and the size of each.
const RING: usize = 64;
const OBJECT: usize = 128;
/// The two ring lengths whose counts are subtracted.
const SHORT: usize = 256;
const LONG: usize = 768;

/// Instructions a pair may take alone: this library reads 292.1 and glibc
/// 143.0 (x86-64, the pinned toolchain). Only this library's code and the
/// ring's own loop are counted in this arm, so the bound is tight; its
/// headroom covers the few instructions the count shifts with the
/// checkout's path.
const ALONE_BOUND: f64 = 300.0;
/// Instructions a pair may take beside a parked thread: this library reads
/// 334.8, of which 22 are glibc's `__tls_get_addr` — the bound leaves room
/// for another glibc's.
const THREADED_BOUND: f64 = 370.0;

/// `target/<profile>/libdiehard.so`, if it has been built.
fn preload_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let so = exe.parent()?.parent()?.join("libdiehard.so");
    so.exists().then_some(so)
}

/// The child: warm the ring, then `pairs` free + malloc + write pairs
/// between two markers.
fn ring(threaded: bool, pairs: usize) {
    extern "C" {
        fn malloc(size: usize) -> *mut c_void;
        fn free(p: *mut c_void);
    }
    let (unpark, parked) = std::sync::mpsc::channel::<()>();
    let helper = threaded.then(|| std::thread::spawn(move || parked.recv().is_err()));
    // Through opaque pointers: the optimizer knows `malloc` and `free` and
    // may elide a pair whose object nothing reads.
    type Malloc = unsafe extern "C" fn(usize) -> *mut c_void;
    type Free = unsafe extern "C" fn(*mut c_void);
    let (malloc, free) = black_box((malloc as Malloc, free as Free));
    let fresh = |i: usize| {
        // SAFETY: `malloc` is C's; a non-null result holds `OBJECT` bytes.
        let p = unsafe { malloc(OBJECT) };
        assert!(!p.is_null(), "malloc({OBJECT}) failed");
        // SAFETY: as above.
        unsafe { p.cast::<usize>().write_volatile(i) };
        p
    };
    let mut ring = [std::ptr::null_mut(); RING];
    for (i, slot) in ring.iter_mut().enumerate() {
        *slot = fresh(i);
    }
    // SAFETY: `raise` has no preconditions; the tracer suppresses both.
    unsafe { libc::raise(libc::SIGUSR1) };
    for i in 0..pairs {
        let slot = &mut ring[i % RING];
        // SAFETY: the slot's object came from `malloc` and is freed once.
        unsafe { free(*slot) };
        *slot = fresh(i);
    }
    // SAFETY: as above.
    unsafe { libc::raise(libc::SIGUSR1) };
    for p in ring {
        // SAFETY: each object came from `malloc` and is freed once.
        unsafe { free(p) };
    }
    drop(unpark);
    if let Some(helper) = helper {
        assert!(helper.join().expect("parked helper"));
    }
}

/// `waitpid` on `pid`, returning the raw status.
fn wait(pid: c_int) -> c_int {
    let mut status: c_int = 0;
    // SAFETY: `pid` is this process's child; `status` is a live out-pointer.
    let got = unsafe { libc::waitpid(pid, &raw mut status, 0) };
    assert_eq!(got, pid, "waitpid");
    status
}

/// Resumes the stopped tracee `pid` with `request`, delivering `signal`.
fn resume(pid: c_int, request: libc::c_uint, signal: c_int) {
    let (addr, data) = (
        std::ptr::null_mut::<c_void>(),
        signal as usize as *mut c_void,
    );
    // SAFETY: `pid` is a stopped tracee of this process.
    let rc = unsafe { libc::ptrace(request, pid, addr, data) };
    assert_eq!(rc, 0, "ptrace({request}) on {pid}");
}

/// User instructions the child executes between its two markers, or `None`
/// when `ptrace` is refused.
fn count(so: Option<&Path>, threaded: bool, pairs: usize) -> Option<u64> {
    let exe = std::env::current_exe().expect("current_exe");
    let arm = if threaded { "threaded" } else { "alone" };
    let mut command = Command::new(exe);
    command
        .args([CHILD, arm, &pairs.to_string()])
        .env("DIEHARD_SEED", "1")
        .env_remove("LD_PRELOAD")
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if let Some(so) = so {
        command.env("LD_PRELOAD", so);
    }
    // SAFETY: runs in the forked child before `execve` and makes one system
    // call, which is async-signal-safe.
    unsafe {
        command.pre_exec(|| {
            let null = std::ptr::null_mut::<c_void>();
            match libc::ptrace(libc::PTRACE_TRACEME, 0, null, null) {
                0 => Ok(()),
                _ => Err(std::io::Error::last_os_error()),
            }
        });
    }
    let Ok(child) = command.spawn() else {
        return None;
    };
    let pid = child.id() as c_int;
    let (mut steps, mut markers) = (0u64, 0);
    loop {
        let status = wait(pid);
        if status & 0xff != 0x7f {
            assert_eq!(status, 0, "the {arm} child exited cleanly");
            break;
        }
        let (request, deliver) = match ((status >> 8) & 0xff, markers) {
            (libc::SIGUSR1, 0) => {
                markers = 1;
                (libc::PTRACE_SINGLESTEP, 0)
            }
            (libc::SIGUSR1, _) => {
                markers = 2;
                (libc::PTRACE_CONT, 0)
            }
            (libc::SIGTRAP, 1) => {
                steps += 1;
                (libc::PTRACE_SINGLESTEP, 0)
            }
            // The stop after `execve`, before the first marker.
            (libc::SIGTRAP, _) => (libc::PTRACE_CONT, 0),
            (other, _) => (libc::PTRACE_CONT, other),
        };
        resume(pid, request, deliver);
    }
    assert_eq!(markers, 2, "the {arm} child reached both markers");
    Some(steps)
}

/// Instructions per pair in one arm: the two ring lengths' difference.
fn per_pair(so: Option<&Path>, threaded: bool) -> Option<f64> {
    let short = count(so, threaded, SHORT)?;
    let long = count(so, threaded, LONG)?;
    Some((long - short) as f64 / (LONG - SHORT) as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some(CHILD) {
        let pairs = args[3].parse().expect("pairs");
        ring(args[2] == "threaded", pairs);
        return;
    }
    if cfg!(debug_assertions) {
        println!("instructions: skipped (the counts are of the release build)");
        return;
    }
    let Some(so) = preload_path() else {
        println!("instructions: skipped (libdiehard.so not built in this profile)");
        return;
    };
    let Some(alone) = per_pair(Some(&so), false) else {
        println!("instructions: skipped (ptrace refused)");
        return;
    };
    let threaded = per_pair(Some(&so), true).expect("ptrace worked once");
    let glibc = per_pair(None, false).expect("ptrace worked once");
    println!(
        "instructions: a {OBJECT} B malloc + free + write takes {alone:.1} alone and \
         {threaded:.1} beside a parked thread under libdiehard.so (bounds {ALONE_BOUND} \
         and {THREADED_BOUND}), {glibc:.1} under glibc"
    );
    assert!(alone <= ALONE_BOUND, "alone: {alone:.1} > {ALONE_BOUND}");
    assert!(
        threaded <= THREADED_BOUND,
        "threaded: {threaded:.1} > {THREADED_BOUND}"
    );
}
