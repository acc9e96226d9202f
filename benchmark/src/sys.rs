//! The few C-library entry points the offline `libc` shim does not
//! declare, and the child-process runner built on them.
//!
//! A job's wall time and peak resident set both come from one `wait4(2)`
//! call: the clock stops when the kernel hands back the exit status, and
//! `ru_maxrss` is the largest resident set of the job and of every
//! descendant it waited for (a `sh -c 'a | b'` pipeline reports the larger
//! of `a` and `b`).
//!
//! `ru_maxrss` has a floor: `exec` carries the pre-exec image's high-water
//! mark into the new program, and `Command` spawns with `CLONE_VM`, so no
//! child can report less than this harness's own peak. The harness
//! therefore never holds a large buffer, and prints its own `VmHWM` so the
//! floor is visible next to every RSS ratio. The proxy workloads, whose
//! processes are smaller than that floor and whose cost is a *sum* over
//! replicas, use [`group_resident_kb`] instead.

use std::ffi::c_void;
use std::process::Child;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux (two timevals and fourteen longs).
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// Peak resident set size in kilobytes.
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    /// The process's own C allocator — glibc's unless `LD_PRELOAD` says
    /// otherwise. `churn-host` and the glibc ledger row call these.
    pub fn malloc(size: usize) -> *mut c_void;
    /// See [`malloc`].
    pub fn free(ptr: *mut c_void);
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// `PR_SET_CHILD_SUBREAPER` from `<linux/prctl.h>`.
const PR_SET_CHILD_SUBREAPER: i32 = 36;

/// Makes this process the reaper of its orphaned descendants, so that the
/// replicas a killed proxy leaves behind become *our* children and
/// [`reap_group`] can wait until each has really ended (instead of hoping
/// the container's init gets to them).
///
/// # Errors
///
/// The `prctl` error, on kernels older than 3.4.
pub fn become_subreaper() -> std::io::Result<()> {
    // SAFETY: this prctl option takes one integer argument and touches no
    // memory.
    if unsafe { prctl(PR_SET_CHILD_SUBREAPER, 1usize) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Kills whatever is left of process group `group` and reaps every member
/// that is (or has become, see [`become_subreaper`]) a child of this
/// process. Returns when none remains.
pub fn reap_group(group: u32) {
    let group = group as i32;
    // SAFETY: kill(2) and wait4(2) with null out-pointers touch no memory;
    // a negative pid addresses the process group in both.
    unsafe {
        libc::kill(-group, libc::SIGKILL);
        while wait4(-group, std::ptr::null_mut(), 0, std::ptr::null_mut()) > 0 {}
    }
}

/// How a finished job is judged before its output is looked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Exited with this status.
    Code(i32),
    /// Killed by this signal (the time-out sends `SIGKILL`).
    Signal(i32),
    /// The job outlived its time limit and was killed.
    TimedOut,
}

/// One finished child: how long it took, how much memory it peaked at,
/// and how it ended.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Spawn-to-reap wall time.
    pub wall: Duration,
    /// `ru_maxrss` in kilobytes (see the module note on its floor).
    pub max_rss_kb: u64,
    /// Exit status, signal, or time-out.
    pub exit: Exit,
}

impl Finished {
    /// Exited with status 0 inside the time limit.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.exit == Exit::Code(0)
    }
}

/// Blocks until `child` ends and returns its status and resource usage.
/// A watchdog kills the child if it is still running after `limit`.
///
/// # Errors
///
/// Returns the `wait4` error (the child is then left to `Child`'s drop).
pub fn reap(child: Child, started: Instant, limit: Duration) -> std::io::Result<Finished> {
    let pid = child.id() as i32;
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut status = 0i32;
    let mut usage = Rusage::default();
    let (ret, timed_out) = std::thread::scope(|scope| {
        let watchdog = scope.spawn(move || {
            let expired = matches!(done_rx.recv_timeout(limit), Err(RecvTimeoutError::Timeout));
            if expired {
                // SAFETY: kill(2) on a pid we own; the child is not yet
                // reaped (wait4 below is still blocked), so the pid cannot
                // have been recycled.
                unsafe { libc::kill(pid, libc::SIGKILL) };
            }
            expired
        });
        // SAFETY: `status` and `usage` are valid for writes and outlive the
        // call; `pid` is this process's own un-reaped child.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        drop(done_tx);
        (ret, watchdog.join().expect("watchdog thread"))
    });
    let wall = started.elapsed();
    if ret != pid {
        return Err(std::io::Error::last_os_error());
    }
    // The child is reaped: forgetting the handle skips nothing (`Child`
    // has no drop glue beyond closing its already-taken pipes).
    drop(child);
    let exit = if timed_out {
        Exit::TimedOut
    } else if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    Ok(Finished {
        wall,
        max_rss_kb: usage.maxrss.max(0) as u64,
        exit,
    })
}

/// Sends `SIGKILL` to a child this process spawned and has not reaped.
pub fn kill(child: &Child) {
    // SAFETY: kill(2) has no memory preconditions; the pid belongs to an
    // un-reaped child of this process.
    unsafe { libc::kill(child.id() as i32, libc::SIGKILL) };
}

/// This process's peak resident set (`VmHWM`) in kilobytes — the floor
/// under every child's `ru_maxrss`. `None` off Linux.
#[must_use]
pub fn own_peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Summed resident set, in kilobytes, of every live process in process
/// group `group` — for a proxy started in its own group, the proxy plus all
/// its replicas, parked or serving. Unlike `ru_maxrss` this is a sum (three
/// replicas cost three times one) and has no inherited floor. Processes
/// that exit mid-walk are skipped.
#[must_use]
pub fn group_resident_kb(group: u32) -> u64 {
    // SAFETY: sysconf has no preconditions.
    let page_kb = (unsafe { libc::sysconf(libc::_SC_PAGESIZE) }.max(1024) / 1024) as u64;
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
            continue;
        };
        // "pid (comm) state ppid pgrp …": comm may hold spaces and
        // parentheses, so count fields from the last ')'.
        let pgrp = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(2))
            .and_then(|f| f.parse::<u32>().ok());
        if pgrp != Some(group) {
            continue;
        }
        let resident_pages = std::fs::read_to_string(path.join("statm"))
            .ok()
            .and_then(|m| m.split_whitespace().nth(1)?.parse::<u64>().ok());
        total += resident_pages.unwrap_or(0) * page_kb;
    }
    total
}
