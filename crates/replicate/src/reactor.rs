//! The bottom layer of the replication stack: a generic `poll(2)` reactor.
//!
//! Nothing in this module knows about replicas, voting, or transports. It
//! owns exactly three jobs, shared by the pipe path ([`crate::event`]) and
//! the TCP proxy ([`crate::proxy`]):
//!
//! * **registration** — each loop iteration, interested parties re-declare
//!   the descriptors that can make progress (`POLLIN`/`POLLOUT`) together
//!   with a caller-defined token; per-round re-registration keeps the
//!   interest set trivially consistent with rapidly-changing session state
//!   (a full chunk buffer, a consumed input window) at the cost of
//!   rebuilding a small `pollfd` array, which is in the noise next to the
//!   process I/O being multiplexed. A set of its own waited on with a zero
//!   timeout is an instantaneous probe (the warm pool's parked stdouts at
//!   handoff, the proxy's listener before a refill);
//! * **readiness dispatch** — one `EINTR`-retrying `poll(2)` over the
//!   registered set, then iteration over `(token, revents)` pairs for every
//!   descriptor with any returned event (`POLLERR`/`POLLHUP` included: the
//!   subsequent read/write observes the EOF or `EPIPE` and retires the
//!   descriptor, so errors need no separate path);
//! * **non-blocking plumbing** — [`set_nonblocking`] for the pipes a
//!   session creates, and the two pipe-to-pipe moves a session's input
//!   broadcast is made of: [`tee`] duplicates a staged window into a
//!   sibling's staging pipe without copying it, and [`splice`] moves staged
//!   bytes into a replica's stdin.
//!
//! This module holds the crate's only `unsafe`, one line for each of its four
//! system calls: `poll(2)` in [`Reactor::wait`], `fcntl(2)` in
//! [`set_nonblocking`], and `tee(2)` and `splice(2)`. None passes memory
//! the kernel writes through except `wait`'s `pollfd` array, which the
//! reactor owns.

use std::io;
use std::os::unix::io::{AsFd, AsRawFd, RawFd};

/// A single-round `poll(2)` registration set with caller-defined tokens.
///
/// The token type `T` is whatever the transport needs to route a readiness
/// event back to its source — a replica-pipe target for the pipe path, a
/// `(connection, target)` pair for the proxy.
#[derive(Debug)]
pub struct Reactor<T> {
    fds: Vec<libc::pollfd>,
    tokens: Vec<T>,
}

impl<T: Copy> Reactor<T> {
    /// An empty registration set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }

    /// Drops all registrations (start of a new loop iteration).
    pub fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Registers `fd` for `events` (`POLLIN` and/or `POLLOUT`), routing its
    /// readiness back through `token`.
    pub fn register(&mut self, fd: RawFd, events: libc::c_short, token: T) {
        self.fds.push(libc::pollfd {
            fd,
            events,
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Blocks until at least one registered descriptor is ready (or
    /// `timeout_ms` elapses; negative means wait forever), retrying
    /// `EINTR`. Returns the number of ready descriptors.
    ///
    /// # Errors
    ///
    /// Propagates any `poll(2)` failure other than `EINTR`.
    pub fn wait(&mut self, timeout_ms: libc::c_int) -> io::Result<usize> {
        if self.fds.is_empty() {
            return Ok(0);
        }
        loop {
            // SAFETY: fds is a live, correctly-sized pollfd array.
            let rc = unsafe {
                libc::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as libc::nfds_t,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// The tokens whose descriptors reported any event in the last
    /// [`wait`](Self::wait), with the returned event mask.
    pub fn ready(&self) -> impl Iterator<Item = (T, libc::c_short)> + '_ {
        self.fds
            .iter()
            .zip(&self.tokens)
            .filter(|(pfd, _)| pfd.revents != 0)
            .map(|(pfd, &token)| (token, pfd.revents))
    }
}

impl<T: Copy> Default for Reactor<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Switches `fd` to non-blocking mode.
///
/// Only for pipes the caller has just created: the one `F_SETFL` replaces
/// every file-status flag (a fresh pipe has none), and `O_NONBLOCK` lives on
/// the open file *description*, so flipping it on an inherited descriptor
/// (a launcher's stdin sharing a terminal with its stdout) would leak the
/// mode to every other handle on the same description.
///
/// # Errors
///
/// Propagates `fcntl(2)` failures.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on a descriptor the caller owns; no memory is passed, and
    // the third argument is the int F_SETFL expects.
    if unsafe { libc::fcntl(fd, libc::F_SETFL, libc::O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// `tee(2)`: duplicates up to `len` bytes at the head of pipe `src` into pipe
/// `dst` without consuming them — the kernel shares the pages, it copies no
/// byte. Never blocks (`SPLICE_F_NONBLOCK`). Returns how many bytes `dst`
/// took, which is short when `dst` has fewer free slots than `src` holds
/// pages.
///
/// # Errors
///
/// `WouldBlock` when `src` is empty or `dst` full; otherwise whatever
/// `tee(2)` reports (`EINVAL` when either end is not a pipe).
pub fn tee(src: &impl AsFd, dst: &impl AsFd, len: usize) -> io::Result<usize> {
    let (src, dst) = (src.as_fd().as_raw_fd(), dst.as_fd().as_raw_fd());
    // SAFETY: both descriptors are borrowed open for the call; no memory is passed.
    let n = unsafe { libc::tee(src, dst, len, libc::SPLICE_F_NONBLOCK) };
    usize::try_from(n).map_err(|_| io::Error::last_os_error())
}

/// `splice(2)` between two pipes: moves up to `len` bytes from the head of
/// `src` to the tail of `dst`, handing over page references rather than
/// copying. Never blocks (`SPLICE_F_NONBLOCK`).
///
/// # Errors
///
/// `WouldBlock` when `src` is empty or `dst` full, `BrokenPipe` when `dst`
/// has no reader left; otherwise whatever `splice(2)` reports.
pub fn splice(src: &impl AsFd, dst: &impl AsFd, len: usize) -> io::Result<usize> {
    let (src, dst) = (src.as_fd().as_raw_fd(), dst.as_fd().as_raw_fd());
    let none = std::ptr::null_mut();
    // SAFETY: both descriptors are borrowed open for the call; null offsets (pipes have none).
    let n = unsafe { libc::splice(src, none, dst, none, len, libc::SPLICE_F_NONBLOCK) };
    usize::try_from(n).map_err(|_| io::Error::last_os_error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_routes_tokens() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        let mut reactor: Reactor<u32> = Reactor::new();
        reactor.register(a.as_raw_fd(), libc::POLLIN, 17);
        reactor.register(b.as_raw_fd(), libc::POLLOUT, 99);
        b.write_all(b"x").unwrap();
        let n = reactor.wait(1000).unwrap();
        assert!(n >= 1);
        let ready: Vec<u32> = reactor.ready().map(|(t, _)| t).collect();
        assert!(ready.contains(&17), "read side must be ready");
        assert!(ready.contains(&99), "idle socket is writable");
        let mut buf = [0u8; 1];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x");
    }

    #[test]
    fn empty_set_returns_immediately() {
        let mut reactor: Reactor<u8> = Reactor::new();
        assert_eq!(reactor.wait(-1).unwrap(), 0, "nothing to wait on");
    }

    #[test]
    fn clear_resets_registrations() {
        let (_a, b) = UnixStream::pair().unwrap();
        let mut reactor: Reactor<u8> = Reactor::new();
        reactor.register(b.as_raw_fd(), libc::POLLOUT, 1);
        assert_eq!(reactor.wait(0).unwrap(), 1, "an idle socket is writable");
        reactor.clear();
        assert_eq!(reactor.wait(0).unwrap(), 0, "nothing left to poll");
        assert_eq!(reactor.ready().count(), 0);
    }

    #[test]
    fn a_one_entry_wait_sees_peer_close_and_idle_quiet() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut probe: Reactor<()> = Reactor::new();
        probe.register(a.as_raw_fd(), libc::POLLIN, ());
        // Nothing readable yet: a 0-timeout probe reports nothing.
        assert_eq!(probe.wait(0).unwrap(), 0);
        assert_eq!(probe.ready().count(), 0);
        drop(b);
        assert_eq!(probe.wait(1000).unwrap(), 1);
        let (_, rev) = probe.ready().next().expect("the one entry is ready");
        assert!(
            rev & (libc::POLLIN | libc::POLLHUP) != 0,
            "peer close must be visible to the probe"
        );
    }

    #[test]
    fn tee_duplicates_and_splice_moves() {
        let (mut src_r, mut src_w) = io::pipe().unwrap();
        let (mut dup_r, dup_w) = io::pipe().unwrap();
        let (mut out_r, out_w) = io::pipe().unwrap();
        src_w.write_all(b"staged").unwrap();
        assert_eq!(tee(&src_r, &dup_w, 6).unwrap(), 6);
        assert_eq!(splice(&src_r, &out_w, 6).unwrap(), 6);
        drop((src_w, dup_w, out_w));
        let mut buf = Vec::new();
        dup_r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"staged", "tee copied the head of the pipe");
        buf.clear();
        out_r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"staged", "splice moved it");
        assert_eq!(src_r.read(&mut [0u8; 1]).unwrap(), 0, "and consumed it");
    }

    #[test]
    fn an_empty_source_would_block_and_a_readerless_sink_is_a_broken_pipe() {
        let (src_r, mut src_w) = io::pipe().unwrap();
        let (dst_r, dst_w) = io::pipe().unwrap();
        let kind = |r: io::Result<usize>| r.unwrap_err().kind();
        assert_eq!(kind(tee(&src_r, &dst_w, 1)), io::ErrorKind::WouldBlock);
        assert_eq!(kind(splice(&src_r, &dst_w, 1)), io::ErrorKind::WouldBlock);
        src_w.write_all(b"x").unwrap();
        drop(dst_r);
        assert_eq!(kind(splice(&src_r, &dst_w, 1)), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn set_nonblocking_makes_reads_return_wouldblock() {
        let (mut a, _b) = UnixStream::pair().unwrap();
        set_nonblocking(a.as_raw_fd()).unwrap();
        let mut buf = [0u8; 1];
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
