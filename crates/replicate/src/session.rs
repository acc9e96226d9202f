//! The process edge of the replication stack: one voted replica session.
//!
//! A [`Session`] runs a [`VoteCore`] — the §5.2 vote of one client stream,
//! see [`crate::voter`] — over real processes. It spawns the
//! `config.replicas` differently-seeded children with non-blocking
//! stdin/stdout/stderr pipes, moves bytes between those pipes and the core
//! (stdout is read straight into the core's buffers, the core's window is
//! written straight from), `SIGKILL`s the replicas the core outvotes, and at
//! the end reaps every child as it exits, stderr drained throughout, and
//! hands the core their exit statuses for the closing ballots. It does not
//! know whether its input arrives from a launcher's stdin, an in-memory
//! buffer, or a TCP socket, and it never writes to the outside world: voted
//! bytes are appended to a caller-supplied buffer and the transport decides
//! when (and whether) to ship them.
//!
//! Transports drive a session through a narrow pull/push protocol each
//! reactor round: [`Session::pump`] resolves satisfied barriers into the
//! caller's output buffer (backpressure = a byte budget, or simply not
//! calling it), [`Session::register_interest`] names the descriptors that
//! can make progress, [`Session::service`] dispatches one readiness event,
//! and [`Session::wants_input`]/[`Session::fill_input`] gate the bounded
//! window. A transport must not sleep in `poll` while
//! [`Session::barrier_ready`] and its sink has room: full buffers are not
//! polled, so nothing would wake it. Once [`Session::pump`] reports
//! [`Phase::Drained`], reaping is one more event of the round: the
//! transport calls [`Session::finalize`] each round — it reaps what has
//! exited and never waits on a running replica — until it runs the
//! closing ballots and yields the [`StreamOutcome`]; a replica's exit
//! wakes the transport's `poll` through its registered stderr, and a
//! transport's tick is the backstop for a grandchild holding that stderr
//! open past the exit.
//!
//! **One copy per input window.** §5.2 feeds every replica "its standard
//! input from DieHard via a pipe". A window two or more replicas take is
//! put into the kernel once: written into the first feeding replica's
//! *staging pipe*, `tee(2)`d from there into every other feeding replica's
//! staging pipe (the kernel shares the pages), and moved into each stdin by
//! `splice(2)` whenever the stdin is writable. The window in the core stays
//! the source of truth: a replica first splices what was staged for it,
//! then takes whatever the staging did not (a short write or `tee`, a
//! staging pipe that could not be made) by a direct write, so staging is
//! only a prefix of the one feeding path. A one-replica window and a
//! [`SessionInput::Buffer`] are written directly: there is nothing to
//! duplicate. Staging pipes are made at a session's first staged window, so
//! a parked pool set and a one-replica session hold none.
//!
//! The core's memory bound, `(2 × replicas + 1) × TRANSFER` retained bytes,
//! is unchanged by staging and is the same order as the kernel pipe buffers
//! the session owns: `3 × replicas` pipes (stdin, stdout, stderr), and
//! `4 × replicas` once a window has been staged.

use crate::reactor;
use crate::voter::{VoteCore, Voter};
use crate::LaunchConfig;
use std::io::{self, PipeReader, PipeWriter, Read, Write};
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
    /// Each replica's staging pipe; empty until the first staged window,
    /// and `None` for a replica whose input is closed or whose pipe could
    /// not be made.
    stages: Vec<Option<Stage>>,
    seeds: Vec<u64>,
    core: VoteCore,
}

/// A replica's staging pipe (see the module docs): holds the first `held`
/// bytes of the replica's pending input, put there once for every replica
/// by one write and a `tee` each.
#[derive(Debug)]
struct Stage {
    reader: PipeReader,
    writer: PipeWriter,
    /// Bytes in the pipe: always a prefix of the replica's pending input.
    held: usize,
}

impl Stage {
    /// A fresh staging pipe (`std::io::pipe` makes it close-on-exec, so no
    /// replica inherits it). Its write end is non-blocking, since nothing
    /// drains the pipe while the window is written into it; its read end is
    /// only ever read by `tee` and `splice`, which never block.
    fn new() -> io::Result<Self> {
        let (reader, writer) = io::pipe()?;
        reactor::set_nonblocking(writer.as_raw_fd())?;
        Ok(Self {
            reader,
            writer,
            held: 0,
        })
    }
}

impl Session {
    /// Spawns `config.replicas` replicas of `config.command`, replica `i`
    /// seeded with `seeds[i]` via `DIEHARD_SEED` (stdio piped and
    /// non-blocking), and readies the barrier machinery. `config.input` is
    /// ignored — the input source is the explicit `input` argument.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] when
    /// [`LaunchConfig::validated`] refuses `config` or `seeds` does not hold
    /// one seed per replica; propagates spawn and `fcntl(2)` failures, and
    /// anything spawned before the failure is killed and reaped.
    pub fn spawn(config: &LaunchConfig, seeds: &[u64], input: SessionInput) -> io::Result<Self> {
        config.validated()?;
        if seeds.len() != config.replicas {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} seeds for {} replicas", seeds.len(), config.replicas),
            ));
        }
        // On an error below, Drop kills and reaps what was spawned.
        let mut session = Self {
            children: Vec::with_capacity(seeds.len()),
            stages: Vec::new(),
            seeds: seeds.to_vec(),
            core: VoteCore::new(Voter::new(seeds.len()), input),
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
    /// [`VoteCore::fill_input`]) and stages it once in the kernel when two
    /// or more replicas take it (module docs).
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns, `WouldBlock` and `Interrupted`
    /// included; the window is then empty and still wants input.
    pub fn fill_input(&mut self, src: &mut impl Read) -> io::Result<usize> {
        let n = self.core.fill_input(src)?;
        self.stage_window();
        Ok(n)
    }

    /// Puts a fresh window into the kernel once for every replica that
    /// takes it: one write into the first feeder's staging pipe, then a
    /// `tee` from it into each other feeder's. Whatever does not fit — a
    /// short write, a short `tee`, a missing pipe — is left to the direct
    /// write in [`write_stdin`](Self::write_stdin).
    fn stage_window(&mut self) {
        let Self {
            children,
            stages,
            core,
            ..
        } = self;
        let feeding = |i: usize| {
            children[i].stdin.is_some() && core.pending_input(i).is_some_and(|p| !p.is_empty())
        };
        if (0..children.len()).filter(|&i| feeding(i)).nth(1).is_none() {
            return; // one replica or none: nothing to duplicate
        }
        if stages.is_empty() {
            stages.resize_with(children.len(), || None);
        }
        // The first stage that took any of the window, and how much.
        let mut source: Option<(&PipeReader, usize)> = None;
        for (i, slot) in stages.iter_mut().enumerate() {
            if !feeding(i) {
                continue;
            }
            if slot.is_none() {
                *slot = Stage::new().ok();
            }
            let Some(stage) = slot else { continue };
            debug_assert_eq!(stage.held, 0, "a fresh window finds every stage empty");
            stage.held = match source {
                None => stage.writer.write(core.pending_input(i).expect("a feeder")),
                Some((reader, len)) => reactor::tee(reader, &stage.writer, len),
            }
            .unwrap_or(0);
            if source.is_none() && stage.held > 0 {
                source = Some((&stage.reader, stage.held));
            }
        }
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
    /// After [`finalize`](Self::finalize) has closed the stream pipes, what
    /// is left is the stderr of each replica not yet reaped.
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

    /// Pushes pending window bytes into replica `i`'s stdin: what its
    /// staging pipe holds by `splice`, then the rest of the window by direct
    /// write.
    fn write_stdin(&mut self, i: usize) {
        let Some(pipe) = self.children[i].stdin.as_mut() else {
            return;
        };
        let mut stage = self.stages.get_mut(i).and_then(Option::as_mut);
        // Until the core retires it, or the pipe breaks.
        while let Some(pending) = self.core.pending_input(i) {
            if pending.is_empty() {
                return;
            }
            let moved = match stage.as_deref_mut().filter(|s| s.held > 0) {
                Some(stage) => {
                    reactor::splice(&stage.reader, &*pipe, stage.held).inspect(|&n| stage.held -= n)
                }
                None => pipe.write(pending),
            };
            match moved {
                Ok(n) if n > 0 => self.core.input_written(i, n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // No progress possible, or EPIPE from a dead/closed
                // replica: its fate is the stream vote's business, not the
                // broadcaster's.
                _ => break,
            }
        }
        self.close_stdin(i);
        self.core.input_closed(i);
    }

    /// Closes replica `i`'s stdin, so it sees EOF, with its staging pipe:
    /// nobody reads what that still holds.
    fn close_stdin(&mut self, i: usize) {
        self.children[i].stdin = None;
        if let Some(stage) = self.stages.get_mut(i) {
            *stage = None;
        }
    }

    /// SIGKILLs replica `i` and closes its pipes. `Child::kill` sends
    /// nothing to a child already reaped, so a recycled pid is never hit.
    fn kill(&mut self, i: usize) {
        let _ = self.children[i].kill();
        self.close_stdin(i);
        let child = &mut self.children[i];
        (child.stdout, child.stderr) = (None, None);
    }

    /// Closes the stdin of every replica the core no longer feeds, so it
    /// sees EOF.
    fn close_retired_stdins(&mut self) {
        for i in 0..self.children.len() {
            if self.core.pending_input(i).is_none() {
                self.close_stdin(i);
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

    /// The endgame after [`Phase::Drained`], one non-blocking step per
    /// transport round: closes the remaining stream pipes and reaps every
    /// replica that has exited. Returns `None` while any replica runs; once
    /// all are reaped, drains stderr a last time and hands the exit
    /// statuses to the core's closing ballots ([`VoteCore::finalize`];
    /// signal deaths are crashes). Until then
    /// [`register_interest`](Self::register_interest) keeps each running
    /// replica's stderr registered, so its end of file at the exit wakes
    /// the transport's `poll`. The one blocking wait is on a replica whose
    /// pipes are all closed: it is exiting or was SIGKILLed — or it closed
    /// every descriptor and runs on, which stalls the caller, its exit
    /// status being its final ballot.
    pub fn finalize(&mut self) -> Option<StreamOutcome> {
        let mut running = false;
        for i in 0..self.children.len() {
            // Stdin and stdout close first, so a replica blocked on either
            // sees EOF/EPIPE. Stderr stays open and drained until the exit:
            // closing it would SIGPIPE a chatty replica into a spurious
            // "crash", and leaving it unread would let a burst of
            // diagnostics block the exit forever.
            self.close_stdin(i);
            self.children[i].stdout = None;
            self.core.input_closed(i);
            if matches!(self.children[i].try_wait(), Ok(None)) {
                self.read_stderr(i);
                let child = &mut self.children[i];
                if child.stderr.is_some() {
                    running = true;
                } else {
                    let _ = child.wait();
                }
            }
        }
        if running {
            return None;
        }
        let mut codes = Vec::with_capacity(self.children.len());
        for i in 0..self.children.len() {
            // The pipe may still hold bytes written before the exit, or be
            // held open by a grandchild: one last non-blocking drain.
            self.read_stderr(i);
            let child = &mut self.children[i];
            child.stderr = None;
            let status = child.try_wait().ok().flatten();
            codes.push(
                status
                    .filter(|s| s.signal().is_none())
                    .map(|s| s.code().unwrap_or(0)),
            );
        }
        Some(self.core.finalize(&codes))
    }

    /// Abandons the session (the transport's client vanished): SIGKILLs and
    /// reaps every replica without running the closing ballots. Fast by
    /// construction — nothing survives the SIGKILL.
    pub fn abort(&mut self) {
        self.core.abort();
        self.shutdown();
    }

    /// Final teardown: kill and reap anything still unreaped (the error
    /// path — a finalize that returned the outcome has reaped every
    /// replica).
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
    use crate::{CHUNK, TRANSFER};
    use std::time::{Duration, Instant};

    fn spawn(replicas: usize, command: &[&str]) -> Session {
        let mut config = LaunchConfig::new(
            replicas,
            command.iter().map(|&arg| arg.into()).collect(),
            Vec::new(),
        );
        config.seeds = (1..=replicas as u64).collect();
        Session::spawn(&config, &config.seeds, SessionInput::Streamed).expect("spawn")
    }

    /// One reactor round over the session's descriptors.
    fn service_round(session: &mut Session) {
        let mut reactor: reactor::Reactor<SessionIo> = reactor::Reactor::new();
        session.register_interest(|fd, events, io| reactor.register(fd, events, io));
        reactor.wait(100).expect("poll");
        for (io, _) in reactor.ready() {
            session.service(io);
        }
    }

    /// Streams `input` through the session to the closing ballots, as a
    /// transport does; panics if the session stalls.
    fn drive(session: &mut Session, mut input: &[u8]) -> (Vec<u8>, StreamOutcome) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut out = Vec::new();
        loop {
            while session.wants_input() {
                session.fill_input(&mut input).expect("a slice reads");
                session.flush_input();
            }
            if session.pump(&mut out, usize::MAX) == Phase::Drained {
                if let Some(outcome) = session.finalize() {
                    return (out, outcome);
                }
            }
            assert!(Instant::now() < deadline, "the session stalled");
            service_round(session);
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Staging is only a prefix of the feeding path: a replica whose `tee`
    /// comes up short (its staging pipe has one free slot) splices what it
    /// got and takes the rest of the window by direct write, and every
    /// replica still echoes the input byte for byte.
    #[test]
    fn a_short_tee_is_finished_by_direct_writes() {
        let mut session = spawn(3, &["/bin/cat"]);
        let input = pattern(4 * TRANSFER + 123);
        let mut rest = &input[..];
        session.fill_input(&mut rest).expect("a slice reads");
        assert!(session.stages.iter().all(Option::is_some), "one stage each");
        session.flush_input();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !session.wants_input() {
            assert!(Instant::now() < deadline, "the first window stalled");
            service_round(&mut session);
        }

        // Fill replica 1's staging pipe page by page, then free one page.
        let junk = [0xA5u8; 4096];
        let stage = session.stages[1].as_mut().expect("a stage");
        let mut filled = 0;
        while let Ok(n) = stage.writer.write(&junk) {
            filled += n;
        }
        let mut page = [0u8; 4096];
        stage.reader.read_exact(&mut page).expect("a page of junk");
        filled -= page.len();

        session.fill_input(&mut rest).expect("a slice reads");
        let held = |i: usize| session.stages[i].as_ref().expect("a stage").held;
        assert!(held(0) > 0, "the window is staged");
        assert_eq!(held(2), held(0), "a free staging pipe takes all of it");
        assert!(
            (0..held(0)).contains(&held(1)),
            "replica 1's tee must come up short: {} of {}",
            held(1),
            held(0)
        );
        // The junk goes; what is left in the pipe is what was staged.
        let stage = session.stages[1].as_mut().expect("a stage");
        let mut junk_back = vec![0u8; filled];
        stage.reader.read_exact(&mut junk_back).expect("the junk");
        session.flush_input();

        let (out, outcome) = drive(&mut session, rest);
        assert_eq!(outcome.killed, Vec::<usize>::new(), "every replica agrees");
        assert_eq!((outcome.diverged, outcome.exit_code), (false, Some(0)));
        assert_eq!(out.len(), input.len());
        assert!(out == input, "the voted echo is the input");
    }

    /// A replica that stops reading mid-stream breaks its own stdin: the
    /// `splice` into it fails with `EPIPE`, and only that replica's input
    /// is retired — the others take the whole stream.
    #[test]
    fn a_replica_that_stops_reading_retires_only_its_own_input() {
        let len = 16 * TRANSFER;
        let script = format!(
            "if [ \"$DIEHARD_SEED\" = 2 ]; then head -c 100000 >/dev/null; echo {len}; \
             else wc -c | tr -d ' '; fi"
        );
        let mut session = spawn(3, &["/bin/sh", "-c", &script]);
        let (out, outcome) = drive(&mut session, &pattern(len));
        assert_eq!(
            out,
            format!("{len}\n").as_bytes(),
            "both readers took it all"
        );
        assert_eq!(outcome.killed, Vec::<usize>::new());
        assert_eq!((outcome.diverged, outcome.exit_code), (false, Some(0)));
    }

    /// One replica has nothing to duplicate: its windows are written
    /// directly, and the session never makes a staging pipe.
    #[test]
    fn a_one_replica_session_stages_nothing() {
        let mut session = spawn(1, &["/bin/cat"]);
        let input = pattern(3 * TRANSFER);
        let (out, outcome) = drive(&mut session, &input);
        assert_eq!(out.len(), input.len());
        assert!(out == input);
        assert_eq!(outcome.exit_code, Some(0));
        assert!(session.stages.is_empty());
    }

    /// A seed slice that does not match `config.replicas` is refused, not
    /// run with as many replicas as it has seeds: an empty one would spawn
    /// nothing and drain at once to what looks like a clean run.
    #[test]
    fn a_seed_slice_of_the_wrong_length_is_invalid_input() {
        let config = LaunchConfig::new(3, vec!["cat".into()], Vec::new());
        for seeds in [&[][..], &[1, 2], &[1, 2, 3, 4]] {
            let err = Session::spawn(&config, seeds, SessionInput::Streamed)
                .expect_err("a seed per replica or nothing");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{seeds:?}");
        }
    }

    #[test]
    fn a_spawned_session_holds_no_buffers_and_a_one_chunk_echo_grows_none_past_need() {
        let mut session = spawn(3, &["/bin/cat"]);
        // What a parked pool set is: processes and pipes, no memory and no
        // staging pipe.
        let (window, lanes) = session.core.storage();
        assert_eq!(window.capacity(), 0);
        for (out, err) in lanes {
            assert_eq!(out.capacity() + err.capacity(), 0);
        }
        assert!(session.stages.is_empty());

        // One chunk in, one chunk voted out, input ended.
        let request = vec![b'q'; CHUNK];
        assert_eq!(
            session.fill_input(&mut &request[..]).unwrap(),
            request.len()
        );
        session.flush_input();
        assert_eq!(session.fill_input(&mut io::empty()).unwrap(), 0);
        let mut out = Vec::new();
        while session.pump(&mut out, usize::MAX) == Phase::Streaming {
            service_round(&mut session);
        }
        assert_eq!(out, request);
        // A brim-full read is a buffer's only sign that more may follow, so
        // the reads that found the ends of the streams had two chunks each.
        let (window, lanes) = session.core.storage();
        assert_eq!(window.len(), 2 * CHUNK);
        for (out, _) in lanes {
            assert_eq!(out.len(), 2 * CHUNK);
        }
        let outcome = loop {
            match session.finalize() {
                Some(outcome) => break outcome,
                None => service_round(&mut session),
            }
        };
        assert_eq!(outcome.exit_code, Some(0));
        assert!(outcome.peak_buffered <= 4 * request.len());
    }
}
