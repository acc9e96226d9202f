//! The process edge of the replication stack: one voted replica session.
//!
//! A [`Session`] runs a [`VoteCore`] — the §5.2 vote of one client stream,
//! see [`crate::voter`] — over real processes. It spawns the
//! `config.replicas` differently-seeded children with non-blocking
//! stdin/stdout/stderr pipes, moves bytes between those pipes and the core
//! (stdout is read straight into the core's buffers, the core's window is
//! written straight from), `SIGKILL`s the replicas the core outvotes, and at
//! the end reaps every child, stderr drained throughout, and hands the core
//! their exit statuses for the closing ballots. It does not know whether
//! its input arrives from a launcher's stdin, an in-memory buffer, or a TCP
//! socket, and it never writes to the outside world: voted bytes are
//! appended to a caller-supplied buffer and the transport decides when (and
//! whether) to ship them.
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
//! yields the [`StreamOutcome`]. The core's memory bound,
//! `(2 × replicas + 1) × max(chunk, TRANSFER)` retained bytes, is the same
//! order as the `3 × replicas` kernel pipe buffers the session owns.

use crate::reactor::{self, Reactor};
use crate::voter::{VoteCore, Voter};
use crate::LaunchConfig;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, Command, Stdio};

pub use crate::voter::{Phase, SessionInput, StreamOutcome};

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

/// One voted replica session (see the module docs for the protocol).
#[derive(Debug)]
pub struct Session {
    /// The replicas. A pipe is `None` once closed: its stream ended, its
    /// input is done, or the replica was killed.
    children: Vec<Child>,
    seeds: Vec<u64>,
    core: VoteCore,
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
        // On an error below, Drop kills and reaps what was spawned.
        let mut session = Self {
            children: Vec::with_capacity(seeds.len()),
            seeds: seeds.to_vec(),
            core: VoteCore::new(Voter::new(seeds.len()), chunk, input),
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
            session.children.push(cmd.spawn()?);
            let child = &session.children[session.children.len() - 1];
            let fds = [
                child.stdin.as_ref().map(AsRawFd::as_raw_fd),
                child.stdout.as_ref().map(AsRawFd::as_raw_fd),
                child.stderr.as_ref().map(AsRawFd::as_raw_fd),
            ];
            for fd in fds.into_iter().flatten() {
                reactor::set_nonblocking(fd)?;
            }
        }
        Ok(session)
    }

    /// The per-replica seeds this session's children were spawned with (in
    /// replica-index order). Pooling is required to be invisible to seed
    /// assignment; transports surface this so tests can pin it.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Declares the descriptors a *parked* (pre-spawned, not yet handed
    /// out) session should be watched on while idle: each replica's
    /// stdout. Readiness before handoff is either a death (`POLLHUP` when
    /// the replica exits and its pipe write end closes) or early output —
    /// the pool decides which by checking
    /// [`any_member_exited`](Self::any_member_exited).
    pub fn park_interest(&self, mut register: impl FnMut(RawFd)) {
        for pipe in self.children.iter().filter_map(|c| c.stdout.as_ref()) {
            register(pipe.as_raw_fd());
        }
    }

    /// Non-blocking check whether any replica has already exited. A pooled
    /// set where any member died before handoff is useless — the vote would
    /// start a replica down — so the pool reaps such sets instead of
    /// handing them out.
    pub fn any_member_exited(&mut self) -> bool {
        self.children
            .iter_mut()
            .any(|c| matches!(c.try_wait(), Ok(Some(_))))
    }

    /// Bytes committed to the transport's output buffer so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.core.committed()
    }

    /// Replica indices killed so far, in kill order.
    #[must_use]
    pub fn killed(&self) -> &[usize] {
        self.core.killed()
    }

    /// Whether a barrier can be resolved right now (see
    /// [`VoteCore::barrier_ready`]). Reading more cannot change that, so a
    /// transport that sleeps on it sleeps until its next timeout.
    #[must_use]
    pub fn barrier_ready(&self) -> bool {
        self.core.barrier_ready()
    }

    /// Whether the transport should supply the next input window (see
    /// [`VoteCore::wants_input`]).
    #[must_use]
    pub fn wants_input(&self) -> bool {
        self.core.wants_input()
    }

    /// Slides the input window forward by one `read` from `src` (see
    /// [`VoteCore::fill_input`]).
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns, `WouldBlock` and `Interrupted`
    /// included; the window is then empty and still wants input.
    pub fn fill_input(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.core.fill_input(src)
    }

    /// Opportunistically writes pending window bytes to every replica
    /// stdin that will take them — the pipes are non-blocking, so a full
    /// one is simply left for its next `POLLOUT` round. Transports call
    /// this right after sliding the window so freshly-arrived input
    /// reaches the replicas without spending a whole poll round on a
    /// writability report for an empty pipe (on the warm-pool fast path
    /// that round is a measurable share of the connection latency).
    pub fn flush_input(&mut self) {
        for i in 0..self.children.len() {
            self.write_stdin(i);
        }
        // And retire whatever just finished: when the flush delivered the
        // final bytes of an ended input, closing the pipe now means the
        // replica wakes once to find data *and* EOF, instead of waking
        // again a poll round later just to learn the stream ended.
        self.core.close_finished_inputs();
        self.close_retired_stdins();
    }

    /// Marks the broadcast input as ended; replicas see EOF on their stdin
    /// once they drain what remains.
    pub fn accept_input_eof(&mut self) {
        self.core.accept_input_eof();
    }

    /// Declares every descriptor that can make progress this round,
    /// notably *excluding* stdouts whose buffer has no room — that is the
    /// barrier backpressure (the kernel pipe throttles the replica while
    /// slower siblings catch up, or while the transport is not pumping).
    pub fn register_interest(&self, mut register: impl FnMut(RawFd, libc::c_short, SessionIo)) {
        for (i, child) in self.children.iter().enumerate() {
            if let Some(pipe) = child.stdout.as_ref().filter(|_| self.core.out_room(i)) {
                register(pipe.as_raw_fd(), libc::POLLIN, SessionIo::Out(i));
            }
            if let Some(pipe) = &child.stderr {
                // Always drain stderr — unlike stdout there is deliberately
                // no backpressure: a full capture buffer switches to
                // read-and-discard rather than letting the pipe fill.
                register(pipe.as_raw_fd(), libc::POLLIN, SessionIo::Err(i));
            }
            let pending = self.core.pending_input(i).is_some_and(|p| !p.is_empty());
            if let Some(pipe) = child.stdin.as_ref().filter(|_| pending) {
                register(pipe.as_raw_fd(), libc::POLLOUT, SessionIo::In(i));
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

    /// Reads replica `i`'s stdout straight into the core's buffer, as far
    /// ahead of the vote as one transfer unit.
    fn read_stdout(&mut self, i: usize) {
        let Some(pipe) = self.children[i].stdout.as_mut() else {
            return;
        };
        let ended = loop {
            let spare = self.core.out_spare(i);
            let room = spare.len();
            if room == 0 {
                break false; // no room until the vote consumes some
            }
            match pipe.read(spare) {
                Ok(0) => break true,
                Ok(n) => {
                    self.core.out_filled(i, n);
                    if n < room {
                        // The pipe is drained: asking again would only buy
                        // an EAGAIN, and `poll` reports the next byte (or
                        // the hang-up) anyway.
                        break false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        if ended {
            self.children[i].stdout = None;
            self.core.out_ended(i);
        }
    }

    /// Drains replica `i`'s stderr into the core's capture. Everything
    /// beyond the capture cap is still *read* — and discarded — so a
    /// chatty replica can never block on a full stderr pipe and stall its
    /// own exit.
    fn read_stderr(&mut self, i: usize) {
        // Diagnostics are short: a page of stack is transfer enough.
        let mut buf = [0u8; 4096];
        let Some(pipe) = self.children[i].stderr.as_mut() else {
            return;
        };
        loop {
            match pipe.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.core.err_read(i, &buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.children[i].stderr = None;
    }

    /// Pushes pending window bytes into replica `i`'s stdin.
    fn write_stdin(&mut self, i: usize) {
        let Some(pipe) = self.children[i].stdin.as_mut() else {
            return;
        };
        // Until the core retires it, or the pipe breaks.
        while let Some(pending) = self.core.pending_input(i) {
            if pending.is_empty() {
                return;
            }
            match pipe.write(pending) {
                Ok(n) if n > 0 => self.core.input_written(i, n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // No progress possible, or EPIPE from a dead/closed
                // replica: its fate is the stream vote's business, not the
                // broadcaster's.
                _ => break,
            }
        }
        self.children[i].stdin = None;
        self.core.input_closed(i);
    }

    /// SIGKILLs replica `i` and closes its pipes. `Child::kill` sends
    /// nothing to a child already reaped, so a recycled pid is never hit.
    fn kill(&mut self, i: usize) {
        let child = &mut self.children[i];
        let _ = child.kill();
        (child.stdin, child.stdout, child.stderr) = (None, None, None);
    }

    /// Closes the stdin of every replica the core no longer feeds, so it
    /// sees EOF.
    fn close_retired_stdins(&mut self) {
        for (i, child) in self.children.iter_mut().enumerate() {
            if self.core.pending_input(i).is_none() {
                child.stdin = None;
            }
        }
    }

    /// Resolves the barriers that are already satisfied (see
    /// [`VoteCore::pump`]) and SIGKILLs the replicas they outvoted — or,
    /// at a divergence, every replica. The transport applies backpressure
    /// through the budget, or by *not* calling this while its own output
    /// buffer is full: unvoted bytes fill the buffers, full buffers stop
    /// being polled, and the kernel pipes throttle the replicas.
    ///
    /// Also closes the stdins of replicas that have consumed all input.
    pub fn pump(&mut self, out: &mut Vec<u8>, budget: usize) -> Phase {
        let (killed, diverged) = (self.core.killed().len(), self.core.has_diverged());
        let phase = self.core.pump(out, budget);
        for k in killed..self.core.killed().len() {
            self.kill(self.core.killed()[k]);
        }
        if self.core.has_diverged() && !diverged {
            for i in 0..self.children.len() {
                self.kill(i);
            }
        }
        self.close_retired_stdins();
        phase
    }

    /// Whether [`pump`](Self::pump) has reported [`Phase::Drained`].
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.core.is_drained()
    }

    /// Whether the stream vote hit an unresolvable divergence.
    #[must_use]
    pub fn has_diverged(&self) -> bool {
        self.core.has_diverged()
    }

    /// The endgame after [`Phase::Drained`]: closes the remaining stream
    /// pipes, reaps every replica (stderr drained throughout so a replica
    /// blocked on diagnostics can exit), then hands the exit statuses to
    /// the core's closing ballots ([`VoteCore::finalize`]; signal deaths
    /// are crashes). Blocks until every replica is reaped — on the
    /// agreement path they have already ended their streams, and on the
    /// divergence/abort path they were SIGKILLed.
    pub fn finalize(&mut self) -> StreamOutcome {
        // Close stdin/stdout first so replicas blocked on either see
        // EOF/EPIPE, then reap everyone — draining stderr throughout.
        // Stderr must stay open and drained until each replica exits:
        // closing it would SIGPIPE a chatty replica into a spurious
        // "crash", and merely ignoring it would let a >pipe-capacity burst
        // of diagnostics block the replica's exit forever. (A replica that
        // closed stdout but never exits still stalls the run — by design:
        // its exit status is its final ballot.)
        for child in &mut self.children {
            (child.stdin, child.stdout) = (None, None);
        }
        self.reap_draining_stderr();
        let codes: Vec<Option<i32>> = self
            .children
            .iter_mut()
            .map(|c| {
                let status = c.try_wait().ok().flatten();
                status
                    .filter(|s| s.signal().is_none())
                    .map(|s| s.code().unwrap_or(0))
            })
            .collect();
        self.core.finalize(&codes)
    }

    /// Abandons the session (the transport's client vanished): SIGKILLs and
    /// reaps every replica without running the closing ballots. Fast by
    /// construction — nothing survives the SIGKILL.
    pub fn abort(&mut self) {
        self.core.abort();
        self.shutdown();
    }

    /// Reaps every replica while keeping its stderr drained, so a replica
    /// blocked writing diagnostics can make progress and exit. Leaves every
    /// replica reaped and every stderr handle closed.
    fn reap_draining_stderr(&mut self) {
        let mut reactor: Reactor<()> = Reactor::new();
        loop {
            let unreaped: Vec<bool> = self
                .children
                .iter_mut()
                .map(|c| matches!(c.try_wait(), Ok(None)))
                .collect();
            for i in 0..self.children.len() {
                self.read_stderr(i);
            }
            if !unreaped.contains(&true) {
                break;
            }
            reactor.clear();
            for (child, _) in self.children.iter().zip(&unreaped).filter(|(_, &u)| u) {
                if let Some(pipe) = &child.stderr {
                    reactor.register(pipe.as_raw_fd(), libc::POLLIN, ());
                }
            }
            if reactor.is_empty() {
                // Nothing left to drain for the stragglers: block on them
                // directly.
                for child in &mut self.children {
                    let _ = child.wait();
                }
            } else {
                // Sleep until a straggler writes or exits (its stderr EOF
                // wakes us); the timeout is a backstop for a grandchild
                // inheriting the pipe and outliving the replica.
                let _ = reactor.wait(200);
            }
        }
        // Final drain: the pipes may still hold bytes written before exit.
        for i in 0..self.children.len() {
            self.read_stderr(i);
            self.children[i].stderr = None;
        }
    }

    /// Final teardown: kill and reap anything still unreaped (the error
    /// path — the success path has already waited on every replica).
    pub fn shutdown(&mut self) {
        for i in 0..self.children.len() {
            self.kill(i);
            let _ = self.children[i].wait();
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
    match config.seeds.len() {
        0 => {
            let master = entropy_seed();
            Ok((0..config.replicas as u64)
                .map(|i| replica_seed(master, i))
                .collect())
        }
        n if n == config.replicas => Ok(config.seeds.clone()),
        n => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{n} seeds for {} replicas (provide one per replica or none)",
                config.replicas
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spawned_session_holds_no_buffers_and_a_one_chunk_echo_grows_none_past_need() {
        let mut config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
        config.seeds = vec![1, 2, 3];
        let mut session =
            Session::spawn(&config, &config.seeds, SessionInput::Streamed).expect("spawn cat");
        // What a parked pool set is: processes and pipes, no memory.
        let (window, lanes) = session.core.storage();
        assert_eq!(window.capacity(), 0);
        for (out, err) in lanes {
            assert_eq!(out.capacity() + err.capacity(), 0);
        }

        // One chunk in, one chunk voted out, input ended.
        let request = vec![b'q'; config.chunk];
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
        let (window, lanes) = session.core.storage();
        assert_eq!(window.len(), 2 * config.chunk);
        for (out, _) in lanes {
            assert_eq!(out.len(), 2 * config.chunk);
        }
        let outcome = session.finalize();
        assert_eq!(outcome.exit_code, Some(0));
        assert!(outcome.peak_buffered <= 4 * request.len());
    }
}
