//! The proxy's loopback TCP edge, on `std::net`.
//!
//! The [`crate::proxy`] transport needs five socket operations: bind and
//! listen, accept, connect, the bound port, and write-half shutdown. `std`
//! binds with `SO_REUSEADDR` and a backlog of 128, and creates and accepts
//! every socket close-on-exec (`SOCK_CLOEXEC`, `accept4`), so no replica
//! spawned later inherits a client connection (one that did would hold it
//! open, and the client would never see EOF). The listener and the streams
//! it accepts are non-blocking, so one reactor multiplexes accepts with
//! session I/O. Addresses are IPv4 loopback only: the proxy is a voted
//! front end for local experiments, not a hardened network daemon.

use std::io;
use std::net::{Ipv4Addr, Shutdown, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};

/// A non-blocking loopback TCP listener whose accepted streams are
/// non-blocking and close-on-exec.
#[derive(Debug)]
pub struct Listener(TcpListener);

impl Listener {
    /// Binds `127.0.0.1:port` (port 0 asks the kernel for an ephemeral
    /// port; recover it with [`local_port`](Self::local_port)) and starts
    /// listening, non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures.
    pub fn bind_loopback(port: u16) -> io::Result<Self> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        listener.set_nonblocking(true)?;
        Ok(Self(listener))
    }

    /// The locally bound port (the kernel's pick after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failures.
    pub fn local_port(&self) -> io::Result<u16> {
        Ok(self.0.local_addr()?.port())
    }

    /// Accepts one pending connection, or `None` when nothing is queued.
    /// The returned stream is non-blocking and close-on-exec.
    ///
    /// # Errors
    ///
    /// Propagates `accept(2)` failures other than `EAGAIN` (`ECONNABORTED`,
    /// a client that gave up while queued, is folded into `None` too).
    pub fn accept(&self) -> io::Result<Option<TcpStream>> {
        match self.0.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(true)?;
                Ok(Some(stream))
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::ConnectionAborted => Ok(None),
                _ => Err(e),
            },
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

/// Connects to `127.0.0.1:port`, blocking, and returns the stream in its
/// default blocking mode (client drivers want plain blocking reads).
///
/// # Errors
///
/// Propagates connect failures.
pub fn connect_loopback(port: u16) -> io::Result<TcpStream> {
    TcpStream::connect((Ipv4Addr::LOCALHOST, port))
}

/// Closes the write half of `stream`, delivering EOF to the peer while the
/// read half stays open: how a client says "full request sent, now stream
/// your response".
///
/// # Errors
///
/// Propagates `shutdown(2)` failures.
pub fn shutdown_write(stream: &TcpStream) -> io::Result<()> {
    stream.shutdown(Shutdown::Write)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn bind_accept_connect_roundtrip() {
        let listener = Listener::bind_loopback(0).unwrap();
        let port = listener.local_port().unwrap();
        assert_ne!(port, 0, "kernel must assign a real port");
        assert!(
            listener.accept().unwrap().is_none(),
            "no client yet: non-blocking accept must not block"
        );
        let mut client = connect_loopback(port).unwrap();
        // The connection may still be in the listener's queue for an
        // instant; poll for it rather than assuming instant readiness.
        let mut server = None;
        for _ in 0..1000 {
            if let Some(s) = listener.accept().unwrap() {
                server = Some(s);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let server = server.expect("queued connection must be accepted");
        client.write_all(b"ping").unwrap();
        shutdown_write(&client).unwrap();
        server.set_nonblocking(false).unwrap();
        let mut got = Vec::new();
        let mut server = server;
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"ping", "bytes and the EOF from SHUT_WR must arrive");
    }

    #[test]
    fn accepted_sockets_are_cloexec_and_nonblocking() {
        let listener = Listener::bind_loopback(0).unwrap();
        let port = listener.local_port().unwrap();
        let _client = connect_loopback(port).unwrap();
        let mut server = None;
        for _ in 0..1000 {
            if let Some(s) = listener.accept().unwrap() {
                server = Some(s);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut server = server.expect("queued connection must be accepted");
        let fd = server.as_raw_fd();
        // SAFETY: fcntl queries on a descriptor the stream owns.
        let fdflags = unsafe { libc::fcntl(fd, libc::F_GETFD) };
        assert_ne!(fdflags & libc::FD_CLOEXEC, 0, "replicas must not inherit");
        let mut buf = [0u8; 1];
        let err = server.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "non-blocking");
    }
}
