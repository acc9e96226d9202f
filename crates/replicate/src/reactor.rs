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
//!   process I/O being multiplexed;
//! * **readiness dispatch** — one `EINTR`-retrying `poll(2)` over the
//!   registered set, then iteration over `(token, revents)` pairs for every
//!   descriptor with any returned event (`POLLERR`/`POLLHUP` included: the
//!   subsequent read/write observes the EOF or `EPIPE` and retires the
//!   descriptor, so errors need no separate path);
//! * **non-blocking plumbing** — the [`set_nonblocking`] helper every
//!   transport uses on descriptors it owns outright.

use std::io;
use std::os::unix::io::RawFd;

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

/// One-shot readiness probe of a single descriptor: polls `fd` for
/// `events` with the given timeout (0 = instantaneous) and returns the
/// returned-event mask (0 when nothing is ready). `EINTR` is retried like
/// [`Reactor::wait`].
///
/// This is the liveness probe for *parked* descriptors — the warm pool
/// checks a pre-spawned replica set's stdout pipes for `POLLHUP` at
/// handoff time without disturbing the main registration set.
///
/// # Errors
///
/// Propagates any `poll(2)` failure other than `EINTR`.
pub fn poll_fd(
    fd: RawFd,
    events: libc::c_short,
    timeout_ms: libc::c_int,
) -> io::Result<libc::c_short> {
    let mut pfd = libc::pollfd {
        fd,
        events,
        revents: 0,
    };
    loop {
        // SAFETY: pfd is a live pollfd; count 1 matches.
        let rc = unsafe { libc::poll(&mut pfd, 1, timeout_ms) };
        if rc >= 0 {
            return Ok(pfd.revents);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Switches `fd` to non-blocking mode.
///
/// Only for descriptors the caller owns outright: `O_NONBLOCK` lives on the
/// open file *description*, so flipping it on an inherited descriptor (a
/// launcher's stdin sharing a terminal with its stdout) would leak the mode
/// to every other handle on the same description.
///
/// # Errors
///
/// Propagates `fcntl(2)` failures.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on a descriptor the caller owns; no memory is passed.
    let flags = unsafe { libc::fcntl(fd, libc::F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: as above; third argument is the int F_SETFL expects.
    if unsafe { libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
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
    fn poll_fd_sees_peer_close_and_idle_quiet() {
        let (a, b) = UnixStream::pair().unwrap();
        // Nothing readable yet: a 0-timeout probe reports nothing.
        assert_eq!(poll_fd(a.as_raw_fd(), libc::POLLIN, 0).unwrap(), 0);
        drop(b);
        let rev = poll_fd(a.as_raw_fd(), libc::POLLIN, 1000).unwrap();
        assert!(
            rev & (libc::POLLIN | libc::POLLHUP) != 0,
            "peer close must be visible to the probe"
        );
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
