//! The middle layer of the replication stack: one voted replica session.
//!
//! A [`Session`] is the paper's §5.2 voting state machine for a *single*
//! client stream, with every transport decision factored out: it does not
//! know whether its input arrives from a launcher's stdin, an in-memory
//! buffer, or a TCP socket, and it never writes to the outside world —
//! voted bytes are appended to a caller-supplied buffer and the transport
//! decides when (and whether) to ship them. What it *does* own:
//!
//! * the `config.replicas` differently-seeded child processes and their
//!   non-blocking stdin/stdout/stderr pipes;
//! * the bounded broadcast-input **window** (refilled only once every live
//!   consumer has drained it);
//! * per-replica stdout buffers and the **barrier votes** over them the
//!   instant every live replica has a chunk ready, with `SIGKILL` for
//!   outvoted replicas mid-run;
//! * bounded (≤ chunk) stderr captures, drained past the cap;
//! * the endgame: reap (stderr still drained), crash demotion for signal
//!   deaths, the **stderr ballot**, and the final **exit-status ballot**.
//!
//! **Transfer unit vs barrier unit.** §5.2 votes "when the buffer fills
//! (4K, the unit of transfer of a pipe)"; on today's kernels a pipe holds
//! 64 KiB, and a 4 KiB `read` from a full pipe wakes the blocked writer for
//! one page. So the two sizes are separate here. The *barrier* is
//! [`LaunchConfig::chunk`]: every ballot is ≤ chunk bytes, a replica is
//! outvoted and killed at the first chunk that differs, and a one-chunk
//! response commits the moment every live replica has produced it. The
//! *transfer* is `max(chunk, `[`TRANSFER`](crate::TRANSFER)`)`: each stdout
//! buffer and the input window may run ahead of the vote by up to that
//! much, filled by `read`s straight into them, and [`Session::pump`] votes
//! chunk-sized slices of the buffers until one of them runs short. Buffers
//! start empty, begin at one chunk and double only after a read has filled
//! them to the brim (the one sign that the pipe may hold more), so a
//! connection that never has more than a chunk in flight touches two chunks
//! per buffer, not sixteen, and a parked pool set holds nothing.
//!
//! Transports drive a session through a narrow pull/push protocol each
//! reactor round: [`Session::pump`] resolves satisfied barriers into the
//! caller's output buffer (backpressure = a byte budget, or simply not
//! calling it), [`Session::register_interest`] names the descriptors that
//! can make progress, [`Session::service`] dispatches one readiness event,
//! and [`Session::wants_input`]/[`Session::fill_input`] gate the bounded
//! window. A transport must not sleep in `poll` while
//! [`Session::barrier_ready`] and its sink has room: full buffers are not
//! polled, so nothing would wake it. When [`Session::pump`] reports
//! [`Phase::Drained`], [`Session::finalize`] runs the closing ballots and
//! yields the [`StreamOutcome`]. Peak engine memory per session is
//! `(2 × replicas + 1) × max(chunk, TRANSFER)` retained bytes by
//! construction — `replicas` stdout buffers, `replicas` stderr captures
//! (≤ chunk each) and the window; the same order as the `3 × replicas`
//! kernel pipe buffers the session already owns — reported via
//! [`StreamOutcome::peak_buffered`].

use crate::voter::{ChunkVote, Voter};
use crate::{reactor, LaunchConfig, TRANSFER};
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};

/// Outcome of one streamed replicated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// The voter hit an unresolvable disagreement — no strict plurality on
    /// some output chunk or on the final exit-status ballot (the §6.3
    /// uninitialized-read signal).
    pub diverged: bool,
    /// Replica indices killed for disagreeing or crashing, in kill order.
    pub killed: Vec<usize>,
    /// The exit status the surviving quorum agreed on; `None` when the run
    /// diverged or no replica survived to vote.
    pub exit_code: Option<i32>,
    /// Total bytes committed to the transport's output buffer.
    pub committed: u64,
    /// High-water mark of bytes retained inside the session (per-replica
    /// stdout buffers and stderr captures plus the streamed-input window)
    /// — bounded by `(2 × replicas + 1) × max(chunk, TRANSFER)` by
    /// construction. How far below the bound it reads depends on how far
    /// the replicas ran ahead of each other, so it is timing-dependent
    /// once a stream is longer than one chunk.
    pub peak_buffered: usize,
    /// The quorum-agreed standard error (first ≤ chunk bytes — the same
    /// chunk discipline as stdout voting). After the streams end the
    /// replicas' captures are voted as a ballot: a minority stderr loses
    /// its replica its vote, and no strict plurality means the run
    /// [`diverged`](Self::diverged). Empty when the run diverged or no
    /// replica survived.
    pub stderr: Vec<u8>,
    /// Bytes of the winning replica's stderr beyond the chunk capture cap.
    /// They were read and discarded — never left in the pipe, so a chatty
    /// replica cannot block on stderr backpressure.
    pub stderr_dropped: u64,
}

/// How a session's broadcast input arrives.
#[derive(Debug)]
pub enum SessionInput {
    /// The whole input is already in memory; replicas consume it at their
    /// own pace via per-replica offsets, with no further copies. The buffer
    /// is caller memory and does not count toward the session's bound.
    Buffer(Vec<u8>),
    /// The transport refills the window (≤ one transfer unit) via
    /// [`Session::fill_input`] whenever [`Session::wants_input`] allows;
    /// the window is session memory and counts toward the session's bound.
    Streamed,
}

/// What one of a session's descriptors is for; the token a transport maps
/// into its own reactor token space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionIo {
    /// Replica `i`'s stdout (read side).
    Out(usize),
    /// Replica `i`'s stderr (read side, capture + drain).
    Err(usize),
    /// Replica `i`'s stdin (write side).
    In(usize),
}

/// What [`Session::pump`] left the stream in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Barriers remain; keep servicing I/O.
    Streaming,
    /// Every live stream has resolved (agreement, divergence, or total
    /// crash); call [`Session::finalize`] for the closing ballots.
    Drained,
}

/// Per-replica session state.
struct Replica {
    child: Child,
    /// `None` once closed (input fully delivered, broken pipe, or killed).
    stdin: Option<ChildStdin>,
    /// `None` once the replica's output stream ended.
    stdout: Option<ChildStdout>,
    /// `None` once the replica's stderr ended (or it was killed).
    stderr: Option<ChildStderr>,
    /// Stdout read but not yet voted (≤ one transfer unit); the next
    /// ballot is its first ≤ chunk bytes.
    out: RunAhead,
    /// Captured stderr: the first ≤ chunk bytes this replica wrote.
    err_buf: Vec<u8>,
    /// Stderr bytes beyond the capture cap, drained and discarded.
    err_dropped: u64,
    /// The output stream has ended; what is left of `out` is voted chunk
    /// by chunk, a partial last one included.
    eof: bool,
    /// Absolute input offset this replica has consumed up to.
    in_pos: u64,
    /// Exit status once reaped.
    status: Option<ExitStatus>,
}

impl Replica {
    /// The next ballot: the first ≤ `chunk` bytes not yet voted, `None`
    /// once the stream has nothing left.
    fn ballot(&self, chunk: usize) -> Option<&[u8]> {
        let unvoted = self.out.as_slice();
        (!unvoted.is_empty()).then(|| &unvoted[..unvoted.len().min(chunk)])
    }
}

/// A read-ahead byte queue: filled by `read`s straight into its tail,
/// consumed from its head, contiguous throughout (ballots are slices of
/// it). `buf` is initialised storage and `buf[head..tail]` the retained
/// bytes. Consuming moves no byte; room is made only before a read.
#[derive(Default)]
struct RunAhead {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl RunAhead {
    fn len(&self) -> usize {
        self.tail - self.head
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf[self.head..self.tail]
    }

    /// Drops the first `n` retained bytes.
    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
    }

    /// Whether [`spare`](Self::spare) would offer any room. It does not
    /// when the storage is at `limit`, the tail has reached its end, and
    /// the consumed prefix is still shorter than what is retained: sliding
    /// then would move more bytes than it frees, so the reader waits until
    /// the vote has consumed half the buffer, and each byte is moved at
    /// most once. A buffer in that state retains more than `limit / 2`
    /// bytes, which is at least a chunk whenever a partial consume can
    /// leave a prefix at all (`limit` is the chunk or a multiple of two
    /// chunks), so it never withholds a ballot.
    fn has_room(&self, limit: usize) -> bool {
        self.tail < self.buf.len() || self.slides() || self.buf.len() < limit
    }

    /// Whether sliding the retained bytes down to the start frees at least
    /// as much as it moves.
    fn slides(&self) -> bool {
        self.head > 0 && self.head >= self.len()
    }

    /// The writable tail for the next read, after making room if the tail
    /// is exhausted: slide the retained bytes down when that moves no more
    /// than it frees, else double the storage (first `floor`, never beyond
    /// `limit`). Empty when neither applies — see
    /// [`has_room`](Self::has_room).
    fn spare(&mut self, floor: usize, limit: usize) -> &mut [u8] {
        if self.tail == self.buf.len() {
            if self.slides() {
                self.buf.copy_within(self.head..self.tail, 0);
                (self.head, self.tail) = (0, self.len());
            } else if self.buf.len() < limit {
                let grown = (self.buf.len() * 2).clamp(floor, limit);
                self.buf.resize(grown, 0);
            }
        }
        &mut self.buf[self.tail..]
    }

    /// Records that a read put `n` bytes into [`spare`](Self::spare).
    fn filled(&mut self, n: usize) {
        self.tail += n;
        debug_assert!(self.tail <= self.buf.len());
    }
}

/// The broadcast-input window: `buf[..len]` holds bytes
/// `[base, base + len)` of the overall input stream. It is replaced
/// wholesale, never appended to, so it needs no head.
struct Window {
    /// Initialised storage; grows by doubling, on demand, up to one
    /// transfer unit (or is the caller's whole input in buffer mode).
    buf: Vec<u8>,
    len: usize,
    base: u64,
    eof: bool,
    /// Whether `buf` is session memory (streamed mode) or a caller-provided
    /// buffer that does not count toward the session's memory bound.
    engine_owned: bool,
}

impl Window {
    /// The caller's whole input, already in memory and already ended.
    fn buffer(data: Vec<u8>) -> Self {
        Self {
            len: data.len(),
            buf: data,
            base: 0,
            eof: true,
            engine_owned: false,
        }
    }

    /// Absolute offset one past the last byte currently available.
    fn end(&self) -> u64 {
        self.base + self.len as u64
    }
}

/// Best-effort `SIGKILL`; failure (e.g. already reaped) is fine.
fn sigkill(child: &Child) {
    // SAFETY: plain kill(2) on the child's pid; the Child handle keeps the
    // pid from being reaped (and thus reused) until we wait() on it.
    unsafe {
        let _ = libc::kill(child.id() as libc::pid_t, libc::SIGKILL);
    }
}

/// One voted replica session (see the module docs for the protocol).
pub struct Session {
    reps: Vec<Replica>,
    seeds: Vec<u64>,
    input: Window,
    voter: Voter,
    /// The barrier unit: every ballot is ≤ this many bytes.
    chunk: usize,
    /// The transfer unit, `max(chunk, TRANSFER)`: how far each stdout
    /// buffer and the input window may run ahead of the vote.
    unit: usize,
    committed: u64,
    peak_buffered: usize,
    diverged: bool,
    drained: bool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("replicas", &self.reps.len())
            .field("chunk", &self.chunk)
            .field("committed", &self.committed)
            .field("drained", &self.drained)
            .field("diverged", &self.diverged)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Spawns `seeds.len()` replicas of `config.command` (each seeded via
    /// `DIEHARD_SEED`, stdio piped and non-blocking) and readies the
    /// barrier machinery. `config.input` is ignored — the input source is
    /// the explicit `input` argument.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] when
    /// [`LaunchConfig::validated`] refuses `config`; propagates spawn and
    /// `fcntl(2)` failures, and anything spawned before the failure is
    /// killed and reaped.
    pub fn spawn(config: &LaunchConfig, seeds: &[u64], input: SessionInput) -> io::Result<Self> {
        let chunk = config.validated()?;
        let mut reps: Vec<Replica> = Vec::with_capacity(seeds.len());
        // Kill-and-reap anything spawned so far if setup fails partway.
        let abort = |reps: &mut Vec<Replica>, e: io::Error| -> io::Error {
            for r in reps.iter_mut() {
                sigkill(&r.child);
                let _ = r.child.wait();
            }
            e
        };
        for &seed in seeds {
            let mut cmd = Command::new(&config.command[0]);
            cmd.args(&config.command[1..])
                .env("DIEHARD_SEED", seed.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            if let Some(ref lib) = config.preload {
                cmd.env("LD_PRELOAD", lib);
            }
            let mut child = match cmd.spawn() {
                Ok(c) => c,
                Err(e) => return Err(abort(&mut reps, e)),
            };
            let stdin = child.stdin.take().expect("piped stdin");
            let stdout = child.stdout.take().expect("piped stdout");
            let stderr = child.stderr.take().expect("piped stderr");
            let nb = reactor::set_nonblocking(stdin.as_raw_fd())
                .and_then(|()| reactor::set_nonblocking(stdout.as_raw_fd()))
                .and_then(|()| reactor::set_nonblocking(stderr.as_raw_fd()));
            let rep = Replica {
                child,
                stdin: Some(stdin),
                stdout: Some(stdout),
                stderr: Some(stderr),
                out: RunAhead::default(),
                err_buf: Vec::new(),
                err_dropped: 0,
                eof: false,
                in_pos: 0,
                status: None,
            };
            if let Err(e) = nb {
                sigkill(&rep.child);
                reps.push(rep); // abort() reaps it with the others
                return Err(abort(&mut reps, e));
            }
            reps.push(rep);
        }
        let input = match input {
            SessionInput::Buffer(data) => Window::buffer(data),
            SessionInput::Streamed => Window {
                buf: Vec::new(),
                len: 0,
                base: 0,
                eof: false,
                engine_owned: true,
            },
        };
        let n = reps.len();
        Ok(Self {
            reps,
            seeds: seeds.to_vec(),
            input,
            voter: Voter::new(n),
            chunk,
            unit: chunk.max(TRANSFER),
            committed: 0,
            peak_buffered: 0,
            diverged: false,
            drained: false,
        })
    }

    /// The per-replica seeds this session's children were spawned with (in
    /// replica-index order). Pooling is required to be invisible to seed
    /// assignment; transports surface this so tests can pin it.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Converts a freshly spawned streamed-mode session to buffer-mode
    /// input, exactly as if it had been spawned with
    /// [`SessionInput::Buffer`]: the whole input is caller memory (not
    /// counted toward the session's bound) and EOF is already known. Used
    /// when a pre-spawned (pooled) set — always parked in streamed mode —
    /// is handed to a buffered workload.
    ///
    /// Only meaningful while the streamed window is untouched; a window
    /// that has already accepted bytes keeps its streaming discipline
    /// (debug builds assert).
    pub fn adopt_buffer_input(&mut self, data: Vec<u8>) {
        debug_assert!(
            self.input.engine_owned && self.input.base == 0 && self.input.len == 0,
            "adopt_buffer_input on a session that already streamed input"
        );
        self.input = Window::buffer(data);
    }

    /// Declares the descriptors a *parked* (pre-spawned, not yet handed
    /// out) session should be watched on while idle: each replica's
    /// stdout. Readiness before handoff is either a death (`POLLHUP` when
    /// the replica exits and its pipe write end closes) or early output —
    /// the pool decides which by checking
    /// [`any_member_exited`](Self::any_member_exited).
    pub fn park_interest(&self, mut register: impl FnMut(RawFd)) {
        for r in &self.reps {
            if let Some(ref out) = r.stdout {
                register(out.as_raw_fd());
            }
        }
    }

    /// Non-blocking check whether any replica has already exited
    /// (`try_wait` each child, recording statuses). A pooled set where any
    /// member died before handoff is useless — the vote would start a
    /// replica down — so the pool reaps such sets instead of handing them
    /// out.
    pub fn any_member_exited(&mut self) -> bool {
        let mut exited = false;
        for r in &mut self.reps {
            if r.status.is_none() {
                if let Ok(Some(status)) = r.child.try_wait() {
                    r.status = Some(status);
                }
            }
            exited |= r.status.is_some();
        }
        exited
    }

    /// Bytes committed to the transport's output buffer so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Replica indices killed so far, in kill order.
    #[must_use]
    pub fn killed(&self) -> &[usize] {
        self.voter.killed()
    }

    /// Whether a barrier can be resolved right now: some replica is live
    /// and every live one has a full chunk unvoted or has ended its stream
    /// (a partial or empty final chunk is still a ballot). Reading more
    /// cannot change that, so a transport that sleeps on it sleeps until
    /// its next timeout.
    #[must_use]
    pub fn barrier_ready(&self) -> bool {
        let ready = |r: &Replica| r.eof || r.out.len() >= self.chunk;
        self.voter.live_count() > 0 && self.voter.live().all(|i| ready(&self.reps[i]))
    }

    /// Updates the buffered-bytes high-water mark.
    fn note_buffered(&mut self) {
        let win = if self.input.engine_owned {
            self.input.len
        } else {
            0 // a caller-provided buffer is not session memory
        };
        debug_assert!(win <= self.unit, "window {win} beyond the transfer unit");
        let cur = self
            .reps
            .iter()
            .map(|r| {
                debug_assert!(r.out.len() <= self.unit && r.err_buf.len() <= self.chunk);
                r.out.len() + r.err_buf.len()
            })
            .sum::<usize>()
            + win;
        self.peak_buffered = self.peak_buffered.max(cur);
    }

    /// SIGKILLs replicas the voter just condemned, closes their pipes and
    /// frees what they had buffered.
    fn enforce_kills(&mut self, already_killed: usize) {
        for &idx in &self.voter.killed()[already_killed..] {
            let r = &mut self.reps[idx];
            sigkill(&r.child);
            r.stdin = None;
            r.stdout = None;
            r.stderr = None;
            r.out = RunAhead::default();
            r.eof = true;
        }
    }

    /// SIGKILLs every not-yet-reaped replica (divergence or abort
    /// teardown).
    fn kill_all_processes(&mut self) {
        for r in &mut self.reps {
            if r.status.is_none() {
                sigkill(&r.child);
            }
            r.stdin = None;
            r.stdout = None;
            r.stderr = None;
        }
    }

    /// Closes the stdin of replicas that have consumed all input, so they
    /// see EOF.
    fn close_finished_stdins(&mut self) {
        if !self.input.eof {
            return;
        }
        let end = self.input.end();
        for r in &mut self.reps {
            if r.stdin.is_some() && r.in_pos >= end {
                r.stdin = None;
            }
        }
    }

    /// Whether the transport should supply the next input window: streamed
    /// mode only, not yet EOF, and every replica still consuming input has
    /// caught up with the current window (keeping the window, and thus
    /// memory, bounded).
    #[must_use]
    pub fn wants_input(&self) -> bool {
        if !self.input.engine_owned || self.input.eof {
            return false;
        }
        let end = self.input.end();
        let mut any_consumer = false;
        for r in &self.reps {
            if r.stdin.is_some() {
                any_consumer = true;
                if r.in_pos < end {
                    return false;
                }
            }
        }
        any_consumer
    }

    /// Slides the input window forward by one `read` from `src`, straight
    /// into the window's storage (≤ one transfer unit — the window is the
    /// per-session input memory bound; it starts at one chunk and doubles
    /// only after a read has filled it to the brim). Only valid while
    /// [`wants_input`](Self::wants_input) is true. `Ok(0)` is the end of
    /// the source: the input is marked ended, as by
    /// [`accept_input_eof`](Self::accept_input_eof).
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns, `WouldBlock` and `Interrupted`
    /// included; the window is then empty and still wants input.
    pub fn fill_input(&mut self, src: &mut impl Read) -> io::Result<usize> {
        debug_assert!(self.wants_input(), "window still has unconsumed bytes");
        let win = &mut self.input;
        // Emptied first, so a failed read leaves an empty window behind.
        let consumed = std::mem::take(&mut win.len);
        win.base += consumed as u64;
        if consumed == win.buf.len() && consumed < self.unit {
            let grown = (consumed * 2).clamp(self.chunk, self.unit);
            win.buf.resize(grown, 0);
        }
        let n = src.read(&mut win.buf)?;
        win.len = n;
        win.eof = n == 0;
        self.note_buffered();
        Ok(n)
    }

    /// Opportunistically writes pending window bytes to every replica
    /// stdin that will take them — the pipes are non-blocking, so a full
    /// one is simply left for its next `POLLOUT` round. Transports call
    /// this right after sliding the window so freshly-arrived input
    /// reaches the replicas without spending a whole poll round on a
    /// writability report for an empty pipe (on the warm-pool fast path
    /// that round is a measurable share of the connection latency).
    pub fn flush_input(&mut self) {
        for i in 0..self.reps.len() {
            if self.reps[i].stdin.is_some() && self.reps[i].in_pos < self.input.end() {
                self.write_stdin(i);
            }
        }
        // And retire whatever just finished: when the flush delivered the
        // final bytes of an ended input, closing the pipe now means the
        // replica wakes once to find data *and* EOF, instead of waking
        // again a poll round later just to learn the stream ended.
        self.close_finished_stdins();
    }

    /// Marks the broadcast input as ended; replicas see EOF on their stdin
    /// once they drain what remains.
    pub fn accept_input_eof(&mut self) {
        self.input.base += self.input.len as u64;
        self.input.len = 0;
        self.input.eof = true;
    }

    /// Declares every descriptor that can make progress this round,
    /// notably *excluding* stdouts whose buffer has no room — that is the
    /// barrier backpressure (the kernel pipe throttles the replica while
    /// slower siblings catch up, or while the transport is not pumping).
    pub fn register_interest(&self, mut register: impl FnMut(RawFd, libc::c_short, SessionIo)) {
        for (i, r) in self.reps.iter().enumerate() {
            if let Some(ref out) = r.stdout {
                if self.voter.is_alive(i) && r.out.has_room(self.unit) {
                    register(out.as_raw_fd(), libc::POLLIN, SessionIo::Out(i));
                }
            }
            if let Some(ref err) = r.stderr {
                // Always drain stderr — unlike stdout there is deliberately
                // no backpressure: a full capture buffer switches to
                // read-and-discard rather than letting the pipe fill.
                register(err.as_raw_fd(), libc::POLLIN, SessionIo::Err(i));
            }
            if let Some(ref sin) = r.stdin {
                if r.in_pos < self.input.end() {
                    register(sin.as_raw_fd(), libc::POLLOUT, SessionIo::In(i));
                }
            }
        }
    }

    /// Dispatches one readiness event. `POLLERR`/`POLLHUP` need no special
    /// casing — the read/write sees the EOF or `EPIPE` and retires the
    /// descriptor.
    pub fn service(&mut self, io: SessionIo) {
        match io {
            SessionIo::Out(i) => self.read_stdout(i),
            SessionIo::Err(i) => self.read_stderr(i),
            SessionIo::In(i) => self.write_stdin(i),
        }
    }

    /// Reads replica `i`'s stdout straight into its buffer, as far ahead
    /// of the vote as one transfer unit.
    fn read_stdout(&mut self, i: usize) {
        let (chunk, unit) = (self.chunk, self.unit);
        let r = &mut self.reps[i];
        let Some(out) = r.stdout.as_mut() else { return };
        let mut ended = false;
        loop {
            let spare = r.out.spare(chunk, unit);
            let room = spare.len();
            if room == 0 {
                break; // no room until the vote consumes some
            }
            match out.read(spare) {
                Ok(0) => {
                    ended = true;
                    break;
                }
                Ok(n) => {
                    r.out.filled(n);
                    if n < room {
                        // The pipe is drained: asking again would only buy
                        // an EAGAIN, and `poll` reports the next byte (or
                        // the hang-up) anyway.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    ended = true;
                    break;
                }
            }
        }
        if ended {
            r.stdout = None;
            r.eof = true;
        }
        self.note_buffered();
    }

    /// Drains replica `i`'s stderr. The capture keeps the first ≤ chunk
    /// bytes (the same chunk discipline as stdout voting); everything
    /// beyond the cap is still *read* — and discarded — so a chatty replica
    /// can never block on a full stderr pipe and stall its own exit.
    fn read_stderr(&mut self, i: usize) {
        let chunk = self.chunk;
        // Diagnostics are short: a page of stack is transfer enough.
        let mut buf = [0u8; 4096];
        let r = &mut self.reps[i];
        let Some(err) = r.stderr.as_mut() else { return };
        loop {
            match err.read(&mut buf) {
                Ok(0) => {
                    r.stderr = None;
                    break;
                }
                Ok(n) => {
                    let keep = (chunk.saturating_sub(r.err_buf.len())).min(n);
                    r.err_buf.extend_from_slice(&buf[..keep]);
                    r.err_dropped += (n - keep) as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    r.stderr = None;
                    break;
                }
            }
        }
        self.note_buffered();
    }

    /// Pushes pending window bytes into replica `i`'s stdin.
    fn write_stdin(&mut self, i: usize) {
        let base = self.input.base;
        let r = &mut self.reps[i];
        loop {
            let Some(sin) = r.stdin.as_mut() else { return };
            let off = (r.in_pos - base) as usize;
            if off >= self.input.len {
                return;
            }
            match sin.write(&self.input.buf[off..self.input.len]) {
                Ok(0) => {
                    r.stdin = None; // no progress possible: give up on it
                    return;
                }
                Ok(n) => r.in_pos += n as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EPIPE from a dead/closed replica; its fate is the
                    // stream vote's business, not the broadcaster's.
                    r.stdin = None;
                    return;
                }
            }
        }
    }

    /// Resolves barriers that are already satisfied — one ≤ chunk ballot
    /// at a time over the replicas' buffers, several in a row when they ran
    /// ahead or all streams have ended — appending quorum bytes to `out`
    /// and SIGKILLing outvoted replicas on the spot, until no barrier is
    /// satisfied or `budget` bytes have been appended (so at most
    /// `budget − 1 + chunk` are: the transport's room, checked between
    /// chunks). The transport applies backpressure through the budget, or
    /// by *not* calling this while its own output buffer is full — unvoted
    /// bytes fill the buffers, full buffers stop being polled, and the
    /// kernel pipes throttle the replicas.
    ///
    /// Also retires the stdins of replicas that have consumed all input.
    pub fn pump(&mut self, out: &mut Vec<u8>, budget: usize) -> Phase {
        let mut appended = 0;
        while !self.drained && appended < budget {
            if self.voter.live_count() == 0 {
                self.drained = true;
                break;
            }
            if !self.barrier_ready() {
                break;
            }
            let killed_before = self.voter.killed().len();
            let (chunk, reps) = (self.chunk, &self.reps);
            match self.voter.vote_by(|i| reps[i].ballot(chunk)) {
                ChunkVote::Commit(winner) => {
                    let bytes = reps[winner].ballot(chunk).expect("a committed ballot");
                    out.extend_from_slice(bytes);
                    let n = bytes.len();
                    self.committed += n as u64;
                    appended += n;
                    self.enforce_kills(killed_before);
                    // Every survivor cast exactly these bytes.
                    for i in self.voter.live() {
                        self.reps[i].out.consume(n);
                    }
                }
                ChunkVote::Divergence => {
                    self.diverged = true;
                    self.kill_all_processes();
                    self.drained = true;
                }
                ChunkVote::AllDone => {
                    self.enforce_kills(killed_before);
                    self.drained = true;
                }
            }
        }
        self.close_finished_stdins();
        if self.drained {
            Phase::Drained
        } else {
            Phase::Streaming
        }
    }

    /// Whether [`pump`](Self::pump) has reported [`Phase::Drained`].
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Whether the stream vote hit an unresolvable divergence.
    #[must_use]
    pub fn has_diverged(&self) -> bool {
        self.diverged
    }

    /// The endgame after [`Phase::Drained`]: closes the remaining stream
    /// pipes, reaps every replica (stderr drained throughout so a replica
    /// blocked on diagnostics can exit), demotes signal deaths to crashes,
    /// then votes the stderr and exit-status ballots. Blocks until every
    /// replica is reaped — on the agreement path they have already ended
    /// their streams, and on the divergence/abort path they were SIGKILLed.
    pub fn finalize(&mut self) -> StreamOutcome {
        // Close stdin/stdout first so replicas blocked on either see
        // EOF/EPIPE, then reap everyone — draining stderr throughout.
        // Stderr must stay open and drained until each replica exits:
        // closing it would SIGPIPE a chatty replica into a spurious
        // "crash", and merely ignoring it would let a >pipe-capacity burst
        // of diagnostics block the replica's exit forever. (A replica that
        // closed stdout but never exits still stalls the run — by design:
        // its exit status is its final ballot.)
        for r in &mut self.reps {
            r.stdin = None;
            r.stdout = None;
        }
        self.reap_draining_stderr();

        // Signal deaths are crashes: remove them from the live set (§5.2
        // "when a replica dies, DieHard decrements the number of currently
        // live replicas"). SIGKILLed losers are already out.
        let n = self.reps.len();
        let mut codes = vec![[0u8; 4]; n];
        for (i, code) in codes.iter_mut().enumerate() {
            if !self.voter.is_alive(i) {
                continue;
            }
            match self.reps[i].status {
                Some(st) if st.signal().is_none() => {
                    *code = st.code().unwrap_or(0).to_le_bytes();
                }
                _ => self.voter.kill(i),
            }
        }

        // Stderr ballot: each survivor's complete captured diagnostics.
        // A memory error that only corrupts what a replica *reports* (an
        // assertion message, a differing warning) is a divergence every bit
        // as much as corrupted stdout; a minority stderr loses its replica
        // its vote before the exit ballot below. Capture truncation is
        // deterministic (same cap per replica), so identical diagnostics
        // truncate identically and still agree.
        let mut diverged = self.diverged;
        if !diverged && self.voter.live_count() > 0 {
            let reps = &self.reps;
            let vote = self.voter.vote_by(|i| Some(reps[i].err_buf.as_slice()));
            if vote == ChunkVote::Divergence {
                diverged = true;
            }
        }

        // Final ballot: the exit status itself. A command that legitimately
        // exits nonzero in every replica (grep with no matches) agrees with
        // itself and its status is forwarded, not treated as a crash.
        let mut exit_code = None;
        if !diverged && self.voter.live_count() > 0 {
            match self.voter.vote_by(|i| Some(&codes[i][..])) {
                ChunkVote::Commit(winner) => exit_code = Some(i32::from_le_bytes(codes[winner])),
                ChunkVote::Divergence => diverged = true,
                ChunkVote::AllDone => {}
            }
        }

        // Forward the winning replica's captured stderr: after the stderr
        // ballot, every member of the surviving quorum carries the *agreed*
        // diagnostics (the lowest live index is deterministic). A diverged
        // or fully-crashed run has no winner and forwards nothing.
        let (stderr, stderr_dropped) = if diverged {
            (Vec::new(), 0)
        } else {
            match self.voter.live().next() {
                Some(i) => (
                    core::mem::take(&mut self.reps[i].err_buf),
                    self.reps[i].err_dropped,
                ),
                None => (Vec::new(), 0),
            }
        };
        self.diverged = diverged;

        StreamOutcome {
            diverged,
            killed: self.voter.killed().to_vec(),
            exit_code,
            committed: self.committed,
            peak_buffered: self.peak_buffered,
            stderr,
            stderr_dropped,
        }
    }

    /// Abandons the session (the transport's client vanished): SIGKILLs and
    /// reaps every replica without running the closing ballots. Fast by
    /// construction — nothing survives the SIGKILL.
    pub fn abort(&mut self) {
        self.kill_all_processes();
        self.drained = true;
        self.shutdown();
    }

    /// Reaps every replica while keeping its stderr drained, so a replica
    /// blocked writing diagnostics can make progress and exit. Leaves every
    /// `status` populated and every stderr handle closed.
    fn reap_draining_stderr(&mut self) {
        loop {
            let mut unreaped = false;
            for r in &mut self.reps {
                if r.status.is_none() {
                    match r.child.try_wait() {
                        Ok(Some(status)) => r.status = Some(status),
                        Ok(None) => unreaped = true,
                        Err(_) => r.status = r.child.wait().ok(),
                    }
                }
            }
            for i in 0..self.reps.len() {
                self.read_stderr(i);
            }
            if !unreaped {
                break;
            }
            let mut fds: Vec<libc::pollfd> = self
                .reps
                .iter()
                .filter(|r| r.status.is_none())
                .filter_map(|r| r.stderr.as_ref())
                .map(|err| libc::pollfd {
                    fd: err.as_raw_fd(),
                    events: libc::POLLIN,
                    revents: 0,
                })
                .collect();
            if fds.is_empty() {
                // Nothing left to drain for the stragglers: block on them
                // directly (pre-stderr-capture behavior).
                for r in &mut self.reps {
                    if r.status.is_none() {
                        r.status = r.child.wait().ok();
                    }
                }
            } else {
                // Sleep until a straggler writes or exits (its stderr EOF
                // wakes us); the timeout is a backstop for a grandchild
                // inheriting the pipe and outliving the replica.
                // SAFETY: fds is a live, correctly-sized pollfd array.
                unsafe { libc::poll(fds.as_mut_ptr(), fds.len() as libc::nfds_t, 200) };
            }
        }
        // Final drain: the pipes may still hold bytes written before exit.
        for i in 0..self.reps.len() {
            self.read_stderr(i);
        }
        for r in &mut self.reps {
            r.stderr = None;
        }
    }

    /// Final teardown: kill and reap anything still unreaped (the error
    /// path — the success path has already waited on every replica).
    pub fn shutdown(&mut self) {
        for r in &mut self.reps {
            if r.status.is_none() {
                sigkill(&r.child);
                r.stdin = None;
                r.stdout = None;
                r.stderr = None;
                r.status = r.child.wait().ok();
            }
        }
    }
}

impl Drop for Session {
    /// Dropping a session never leaks replica processes: anything unreaped
    /// is killed and waited on. The orderly paths (finalize/abort) have
    /// already reaped everything, making this a no-op.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Validates explicit seeds or draws fresh entropy (the paper seeds each
/// replica from `/dev/urandom`).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when `config.seeds` is non-empty
/// but its length differs from `config.replicas`.
pub(crate) fn resolve_seeds(config: &LaunchConfig) -> io::Result<Vec<u64>> {
    use diehard_core::rng::{entropy_seed, replica_seed};
    if config.seeds.is_empty() {
        let master = entropy_seed();
        return Ok((0..config.replicas as u64)
            .map(|i| replica_seed(master, i))
            .collect());
    }
    if config.seeds.len() != config.replicas {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{} seeds for {} replicas (provide one per replica or none)",
                config.seeds.len(),
                config.replicas
            ),
        ));
    }
    Ok(config.seeds.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a [`RunAhead`] the way a session does — reads of arbitrary
    /// length into `spare`, whole-chunk consumes while a chunk is there —
    /// against a plain queue, for every chunk/limit shape the config
    /// allows (limit = chunk, or a multiple of two chunks).
    #[test]
    fn run_ahead_is_a_bounded_fifo_that_never_withholds_a_ballot() {
        for (chunk, limit) in [(4usize, 4usize), (4, 8), (4, 64), (16, 64)] {
            let mut q = RunAhead::default();
            let mut model: std::collections::VecDeque<u8> = Default::default();
            let (mut next, mut moved, mut read) = (0u8, 0usize, 0usize);
            let mut state = 0x9E37_79B9u32;
            for _ in 0..20_000 {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                if (state >> 16) % 3 < 2 {
                    let had_room = q.has_room(limit);
                    let before = (q.head, q.len());
                    let spare = q.spare(chunk, limit);
                    assert_eq!(had_room, !spare.is_empty(), "has_room mirrors spare");
                    let n = spare.len().min(1 + (state >> 8) as usize % (limit + 1));
                    for byte in &mut spare[..n] {
                        *byte = next;
                        model.push_back(next);
                        next = next.wrapping_add(1);
                    }
                    q.filled(n);
                    read += n;
                    if q.head == 0 && before.0 > 0 && before.1 > 0 {
                        moved += before.1; // a slide
                    }
                    if !had_room {
                        assert!(q.len() >= chunk, "a full buffer holds a ballot");
                    }
                } else if q.len() >= chunk {
                    q.consume(chunk);
                    model.drain(..chunk);
                }
                assert!(q.len() <= limit && q.buf.len() <= limit);
                assert!(q.as_slice().iter().eq(model.iter()), "FIFO order");
            }
            assert!(read > 10 * limit, "the walk must keep reading");
            assert!(moved <= read, "a byte is slid at most once");
        }
    }

    #[test]
    fn a_spawned_session_holds_no_buffers_and_a_one_chunk_echo_grows_none_past_need() {
        let mut config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
        config.seeds = vec![1, 2, 3];
        let mut session =
            Session::spawn(&config, &config.seeds, SessionInput::Streamed).expect("spawn cat");
        // What a parked pool set is: processes and pipes, no memory.
        assert_eq!(session.input.buf.capacity(), 0);
        for r in &session.reps {
            assert_eq!(r.out.buf.capacity() + r.err_buf.capacity(), 0);
        }

        // One chunk in, one chunk voted out, input ended.
        let request = vec![b'q'; session.chunk];
        assert_eq!(
            session.fill_input(&mut &request[..]).unwrap(),
            request.len()
        );
        session.flush_input();
        assert_eq!(session.fill_input(&mut io::empty()).unwrap(), 0);
        let mut out = Vec::new();
        let mut reactor: reactor::Reactor<SessionIo> = reactor::Reactor::new();
        while session.pump(&mut out, usize::MAX) == Phase::Streaming {
            reactor.clear();
            session.register_interest(|fd, events, io| reactor.register(fd, events, io));
            reactor.wait(10_000).expect("poll");
            for (io, _) in reactor.ready() {
                session.service(io);
            }
        }
        assert_eq!(out, request);
        // A brim-full read is a buffer's only sign that more may follow, so
        // the reads that found the ends of the streams had two chunks each.
        assert_eq!(session.input.buf.len(), 2 * session.chunk);
        for r in &session.reps {
            assert_eq!(r.out.buf.len(), 2 * session.chunk);
        }
        let outcome = session.finalize();
        assert_eq!(outcome.exit_code, Some(0));
        assert!(outcome.peak_buffered <= 4 * request.len());
    }
}
