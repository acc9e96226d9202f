//! Driving `diehard-proxy` from outside: starting and stopping the shipped
//! binary as a child process, and the two client operations the proxy
//! workloads are made of — a short voted echo and a long voted stream —
//! each verified byte for byte.

use crate::artifacts::{Artifacts, Heap};
use crate::sys;
use crate::trace::Tracer;
use diehard_replicate::net::{connect_loopback, shutdown_write};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::process::CommandExt;
use std::process::{Child, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A client gives up on a connection after this long; the connection then
/// counts as failed and enters the latency sample at this value.
pub const CONN_TIME_LIMIT: Duration = Duration::from_secs(10);

/// How long a freshly started proxy has to print its listening line.
const START_LIMIT: Duration = Duration::from_secs(10);

/// How the proxy is started.
#[derive(Debug, Clone, Copy)]
pub struct ProxyFlags<'a> {
    /// `-n`: 1 (no vote) or ≥ 3.
    pub replicas: usize,
    /// `--pool` depth; 0 is the cold path.
    pub pool: usize,
    /// Give every replica `--preload libdiehard.so`.
    pub preload: bool,
    /// `--seed`: replica seeds derive from it, so runs repeat.
    pub seed: u64,
    /// The replicated command.
    pub command: &'a [&'a str],
}

/// A running `diehard-proxy` child. Dropping it kills the proxy, reaps it,
/// and waits until its whole process group (parked replicas included) is
/// gone.
#[derive(Debug)]
pub struct ProxyChild {
    child: Option<Child>,
    /// The loopback port it listens on.
    pub port: u16,
    stderr_tail: Option<std::thread::JoinHandle<Option<String>>>,
}

impl ProxyChild {
    /// Starts the proxy in its own process group and waits for its
    /// `listening on 127.0.0.1:<port>` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or `TimedOut`/`UnexpectedEof` when the line never
    /// comes (the child is killed first).
    pub fn start(art: &Artifacts, flags: ProxyFlags) -> io::Result<Self> {
        let mut cmd = art.command(&art.proxy, Heap::Glibc);
        cmd.args(["-n", &flags.replicas.to_string()])
            .args(["--seed", &flags.seed.to_string()]);
        if flags.pool > 0 {
            cmd.args(["--pool", &flags.pool.to_string()]);
        }
        if flags.preload {
            cmd.arg("--preload").arg(&art.preload);
        }
        cmd.arg("--").args(flags.command);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .process_group(0);
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("piped stderr");
        // The proxy logs a pool line per retired connection; a reader
        // thread keeps the pipe drained for the proxy's whole life and
        // hands back the last pool line at the end.
        let (port_tx, port_rx) = mpsc::channel::<u16>();
        let stderr_tail = std::thread::spawn(move || {
            let mut last_pool_line = None;
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(port) = line
                    .rsplit_once("listening on 127.0.0.1:")
                    .and_then(|(_, p)| p.trim().parse().ok())
                {
                    let _ = port_tx.send(port);
                } else if line.contains("pool depth=") {
                    last_pool_line = Some(line);
                }
            }
            last_pool_line
        });
        let mut proxy = Self {
            child: Some(child),
            port: 0,
            stderr_tail: Some(stderr_tail),
        };
        match port_rx.recv_timeout(START_LIMIT) {
            Ok(port) => {
                proxy.port = port;
                Ok(proxy)
            }
            Err(_) => {
                drop(proxy);
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "diehard-proxy did not report a listening port",
                ))
            }
        }
    }

    /// Resident memory of the proxy and all its replicas right now, KB.
    #[must_use]
    pub fn resident_kb(&self) -> u64 {
        self.child
            .as_ref()
            .map_or(0, |c| sys::group_resident_kb(c.id()))
    }

    /// Kills the proxy and returns the last `pool …` stats line it logged
    /// (if `--pool` was on).
    ///
    /// # Errors
    ///
    /// Propagates `wait4` failures.
    pub fn stop(mut self) -> io::Result<Option<String>> {
        self.kill_and_reap()?;
        Ok(self
            .stderr_tail
            .take()
            .and_then(|t| t.join().ok())
            .flatten())
    }

    fn kill_and_reap(&mut self) -> io::Result<()> {
        let Some(child) = self.child.take() else {
            return Ok(());
        };
        let group = child.id();
        sys::kill(&child);
        sys::reap(child, Instant::now(), CONN_TIME_LIMIT)?;
        // Parked replicas see EOF on stdin when the proxy dies and exit by
        // themselves; a replica mid-exec might not have yet. As orphans
        // they are now this process's children (the harness is a
        // subreaper): kill what is left of the group and reap it.
        sys::reap_group(group);
        Ok(())
    }
}

impl Drop for ProxyChild {
    fn drop(&mut self) {
        // Errors cannot be returned from Drop; `stop` is the checked path.
        let _ = self.kill_and_reap();
        if let Some(tail) = self.stderr_tail.take() {
            let _ = tail.join();
        }
    }
}

/// Why a client operation failed.
#[derive(Debug)]
pub enum ConnError {
    /// Refused, reset, or timed out.
    Io(io::Error),
    /// The bytes that came back are not the bytes that were sent.
    WrongEcho {
        /// Bytes received.
        got: usize,
        /// Bytes expected.
        wanted: usize,
    },
}

impl From<io::Error> for ConnError {
    fn from(e: io::Error) -> Self {
        ConnError::Io(e)
    }
}

/// When the client of a short connection closes its sending side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HalfClose {
    /// Right after the request, as the workloads' clients do: the replicas
    /// see end of input at once, and the response and the end of the
    /// connection arrive together.
    WithRequest,
    /// Only once the whole response is back, as the ledger does to time
    /// set-up + vote apart from exit ballots + reap.
    AfterResponse,
}

/// Client-side timing of one verified short connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoTimes {
    /// Connect → the voted chunk is back: replica set-up plus one vote.
    pub first_chunk: Duration,
    /// From there to EOF: with [`HalfClose::AfterResponse`], the exit
    /// ballots and the reap.
    pub drain: Duration,
}

/// One short voted connection: connect, send `payload`, read the response
/// to EOF, compare; the sending side is closed when `half_close` says.
/// Spans: `conn.connect`, `conn.send`, `conn.first_byte` (until the voted
/// chunk is back — it is voted and written as a unit, so its first byte
/// and its last arrive together), `conn.drain` (from there to EOF).
///
/// # Errors
///
/// [`ConnError`] on any socket failure or a wrong echo.
pub fn echo_once(
    port: u16,
    payload: &[u8],
    half_close: HalfClose,
    tracer: &Tracer,
    parent: u64,
) -> Result<EchoTimes, ConnError> {
    let started = Instant::now();
    let mut stream = {
        let _span = tracer.span("conn.connect", parent);
        connect_loopback(port)?
    };
    stream.set_read_timeout(Some(CONN_TIME_LIMIT))?;
    stream.set_write_timeout(Some(CONN_TIME_LIMIT))?;
    {
        let _span = tracer.span("conn.send", parent);
        stream.write_all(payload)?;
        if half_close == HalfClose::WithRequest {
            shutdown_write(&stream)?;
        }
    }
    let mut echoed = Vec::with_capacity(payload.len() + 1);
    {
        let _span = tracer.span("conn.first_byte", parent);
        (&stream)
            .take(payload.len() as u64)
            .read_to_end(&mut echoed)?;
    }
    let first_chunk = started.elapsed();
    if half_close == HalfClose::AfterResponse {
        shutdown_write(&stream)?;
    }
    {
        let _span = tracer.span("conn.drain", parent);
        stream.read_to_end(&mut echoed)?;
    }
    if echoed == payload {
        Ok(EchoTimes {
            first_chunk,
            drain: started.elapsed() - first_chunk,
        })
    } else {
        Err(ConnError::WrongEcho {
            got: echoed.len(),
            wanted: payload.len(),
        })
    }
}

/// Bytes per stream block; every 4 KiB chunk of a block carries its own
/// position in the stream.
pub const BLOCK: usize = 1 << 20;

/// Stamps the stream position into each 4 KiB chunk of block number
/// `index`, so a dropped, repeated or reordered chunk cannot verify.
fn stamp(block: &mut [u8], index: u64) {
    for (j, chunk) in block.chunks_exact_mut(4096).enumerate() {
        let position = index * (BLOCK / 4096) as u64 + j as u64;
        chunk[..8].copy_from_slice(&position.to_le_bytes());
    }
}

/// One long voted connection: streams `blocks` × 1 MiB derived from the
/// seeded `base` block (writer and reader run concurrently), and checks
/// every returned byte. Neither side ever holds more than one block, so
/// the harness's own memory stays flat. `at_midpoint` runs on the reader
/// side once half the blocks are back — the moment to sample the serving
/// proxy's footprint. Spans: `stream.connect`,
/// `stream.send`, `stream.first_byte`, `stream.drain`.
///
/// # Errors
///
/// [`ConnError`] on any socket failure or the first wrong block.
pub fn stream_once(
    port: u16,
    base: &[u8],
    blocks: u64,
    mut at_midpoint: impl FnMut(),
    tracer: &Tracer,
    parent: u64,
) -> Result<(), ConnError> {
    assert_eq!(base.len(), BLOCK, "base block is one BLOCK");
    let mut stream = {
        let _span = tracer.span("stream.connect", parent);
        connect_loopback(port)?
    };
    stream.set_read_timeout(Some(CONN_TIME_LIMIT))?;
    stream.set_write_timeout(Some(CONN_TIME_LIMIT))?;
    let mut sender = stream.try_clone()?;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<()> {
            let _span = tracer.span("stream.send", parent);
            let mut block = base.to_vec();
            for index in 0..blocks {
                stamp(&mut block, index);
                sender.write_all(&block)?;
            }
            shutdown_write(&sender)
        });
        let received = (|| -> Result<(), ConnError> {
            let mut wanted = base.to_vec();
            let mut got = vec![0u8; BLOCK];
            for index in 0..blocks {
                if index == blocks / 2 {
                    at_midpoint();
                }
                stamp(&mut wanted, index);
                let first_byte = (index == 0).then(|| tracer.span("stream.first_byte", parent));
                stream.read_exact(&mut got[..1])?;
                drop(first_byte);
                stream.read_exact(&mut got[1..])?;
                if got != wanted {
                    return Err(ConnError::WrongEcho {
                        got: index as usize * BLOCK,
                        wanted: blocks as usize * BLOCK,
                    });
                }
            }
            let _span = tracer.span("stream.drain", parent);
            let extra = stream.read(&mut got)?;
            if extra != 0 {
                return Err(ConnError::WrongEcho {
                    got: blocks as usize * BLOCK + extra,
                    wanted: blocks as usize * BLOCK,
                });
            }
            Ok(())
        })();
        if received.is_err() {
            // Unblock the writer if the proxy stopped reading.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let sent = writer.join().expect("writer thread");
        received.and(sent.map_err(ConnError::Io))
    })
}
