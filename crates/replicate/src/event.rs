//! The pipe transport: [`run_streamed`] drives one [`Session`] over a
//! [`Reactor`] between a launcher's stdin and stdout (§5.2).
//!
//! It is one of the transports over the layers below:
//!
//! * [`crate::reactor`] owns `poll(2)` — registration, readiness dispatch,
//!   non-blocking fd plumbing — and knows nothing about replicas;
//! * [`crate::voter::VoteCore`] owns the paper's vote for one client
//!   stream — the bounded input window and stdout buffers (each may run
//!   one *transfer unit*, [`crate::TRANSFER`], ahead of the vote), the
//!   vote barriers every [`crate::CHUNK`] and their kills, the stderr
//!   captures, and the closing stderr/exit ballots — and touches no
//!   descriptor;
//! * [`crate::session`] is the core's process edge: spawn, pipes,
//!   `SIGKILL`, reaping;
//! * this module (and its TCP sibling [`crate::proxy`]) wires a session's
//!   descriptors into a reactor, feeds the input window from a buffer or
//!   the launcher's stdin, and ships each resolved quorum chunk to the
//!   caller's sink the moment the barrier commits.
//!
//! The division of labor per reactor round is the protocol every transport
//! follows: [`Session::pump`] resolves satisfied barriers into an output
//! buffer — every one of them here, since this transport's sink blocks
//! rather than fills, so the loop never reaches `poll` with a satisfiable
//! barrier left in the buffers — the transport flushes that buffer wherever
//! it goes (a transport with a bounded sink applies backpressure through
//! `pump`'s byte budget: unvoted bytes fill the session's buffers, full
//! buffers stop being polled and the kernel pipes throttle the replicas),
//! [`Session::register_interest`] + [`Session::wants_input`] name the
//! descriptors worth polling, and [`Session::service`] consumes readiness.
//! Once the session drains, each round also calls [`Session::finalize`],
//! which reaps the replicas that have exited, until it runs the closing
//! ballots and yields the [`StreamOutcome`]; while it reaps, `poll` sleeps
//! at most 200 ms, the backstop for a grandchild that holds a replica's
//! stderr open past the replica's exit.
//!
//! Everything observable about the pipe path — committed bytes, kill
//! timing, stderr/exit ballots — is pinned by `tests/streaming.rs` and
//! `tests/pipe_equivalence.rs`; `peak_buffered` is pinned exactly where
//! the run is one chunk long and against the
//! `(2 × replicas + 1) × TRANSFER` bound where replicas can run ahead of
//! each other.
//!
//! Two deliberate limits, both inherited from the paper's design: a replica
//! that trickles a partial chunk without closing its stream delays the
//! barrier until the chunk fills or the stream ends (§5.2 votes on *full*
//! buffers), and the bounded input window means the slowest consumer
//! gates how fast input is replayed to the others (beyond the kernel's own
//! per-pipe buffering).

use crate::reactor::Reactor;
use crate::session::{resolve_seeds, Phase, Session, SessionInput, SessionIo};
use crate::LaunchConfig;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::io::{AsRawFd, OwnedFd};

pub use crate::session::StreamOutcome;

/// Where the broadcast standard input comes from.
#[derive(Debug)]
pub enum InputSource {
    /// The whole input is already in memory ([`crate::run_replicated`]'s
    /// path); replicas consume it at their own pace via per-replica
    /// offsets, with no further copies.
    Buffer(Vec<u8>),
    /// Stream incrementally from this descriptor (the launcher passes a
    /// duplicate of its stdin), closed when the run ends. Its file-status
    /// flags are left untouched — in particular it is NOT switched to
    /// `O_NONBLOCK`, which lives on the open file description a duplicate
    /// shares, and would leak to any stdout/stderr sharing it (a terminal).
    /// The reactor only reads it once `poll(2)` reports it readable.
    Fd(OwnedFd),
}

/// What a pipe-transport `pollfd` entry refers to.
#[derive(Debug, Clone, Copy)]
enum Token {
    /// One of the session's replica pipes.
    Session(SessionIo),
    /// The streamed input source (the launcher's stdin).
    Source,
}

/// Runs `config.command` in `config.replicas` differently-seeded replicas,
/// broadcasting `input` to each and committing voted output chunks to
/// `sink` as each barrier resolves.
///
/// `config.input` is ignored here — the input source is explicit so the
/// launcher can hand over its stdin descriptor without buffering it.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when `config.seeds` is non-empty
/// but its length differs from `config.replicas`, or when
/// [`LaunchConfig::validated`] refuses the replica count;
/// otherwise propagates process-spawn, `poll(2)`, and
/// sink-write failures. Replica crashes and disagreements are **not**
/// errors — the voter folds them into the returned [`StreamOutcome`].
pub fn run_streamed(
    config: &LaunchConfig,
    input: InputSource,
    sink: &mut dyn Write,
) -> io::Result<StreamOutcome> {
    let seeds = resolve_seeds(config)?;
    let (session_input, mut source) = match input {
        InputSource::Buffer(data) => (SessionInput::Buffer(data), None),
        InputSource::Fd(fd) => (SessionInput::Streamed, Some(File::from(fd))),
    };
    // On any error below, Session's Drop kills and reaps the replicas.
    let mut session = Session::spawn(config, &seeds, session_input)?;
    let mut reactor: Reactor<Token> = Reactor::new();
    let mut voted = Vec::new();
    loop {
        // Resolve every satisfied barrier, then ship the quorum bytes
        // immediately — the pipe transport has no cap of its own; the
        // sink (a Vec or the launcher's stdout) absorbs every commit.
        let phase = session.pump(&mut voted, usize::MAX);
        if !voted.is_empty() {
            sink.write_all(&voted)?;
            sink.flush()?;
            voted.clear();
        }
        if phase == Phase::Drained {
            if let Some(outcome) = session.finalize() {
                return Ok(outcome);
            }
        }
        reactor.clear();
        session
            .register_interest(|fd, events, io| reactor.register(fd, events, Token::Session(io)));
        if let Some(file) = &source {
            if session.wants_input() {
                reactor.register(file.as_raw_fd(), libc::POLLIN, Token::Source);
            }
        }
        reactor.wait(if phase == Phase::Drained { 200 } else { -1 })?;
        for (token, _revents) in reactor.ready() {
            // POLLERR/POLLHUP fall through to the same handlers: the
            // read/write sees the EOF or EPIPE and retires the descriptor.
            match token {
                Token::Session(io) => session.service(io),
                Token::Source => {
                    refill(&mut session, source.as_mut().expect("streamed mode"));
                }
            }
        }
    }
}

/// Slides the session's input window forward by one read from the source,
/// straight into the window (≤ one transfer unit — the window is the
/// memory bound).
fn refill(session: &mut Session, source: &mut File) {
    loop {
        match session.fill_input(source) {
            Ok(_) => break, // bytes, or the end of the input
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                // Treat an unreadable source as end-of-input.
                session.accept_input_eof();
                break;
            }
        }
    }
    // Eagerly broadcast what just arrived — the replica pipes are almost
    // always writable, so this saves a poll round per window.
    session.flush_input();
}
