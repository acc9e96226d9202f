//! The TCP transport: a replicated network front end (§5.2's squid
//! scenario, served for real).
//!
//! [`Proxy::run`] accepts client connections on a loopback listener and
//! gives **each connection its own N-replica set**: the client's request
//! bytes are broadcast to the replicas' stdins through the session's
//! bounded window, the replicas' stdouts are voted at the same per-chunk
//! barriers as the pipe path, and only quorum bytes are written back to
//! the client. A replica corrupted by a memory error is outvoted and
//! SIGKILLed mid-connection while the response keeps streaming; an
//! unresolvable divergence (no strict plurality) closes the connection
//! early — the client sees the committed prefix, then EOF — and is logged
//! and counted in the [`ProxySummary`].
//!
//! Many sessions are multiplexed over **one** [`Reactor`]: each round the
//! proxy re-registers the listener, every session's replica pipes (via
//! [`Session::register_interest`]), each client socket's read side when
//! that session's window wants input, and each client socket's write side
//! while voted bytes are queued. Per-connection memory is bounded end to
//! end: the session retains at most `(2 × replicas + 1) × TRANSFER` bytes
//! (window + stdout buffers + stderr captures; [`crate::TRANSFER`] is the
//! 64 KiB *transfer* unit the buffers may run ahead of the vote by,
//! [`crate::CHUNK`] the 4 KiB *barrier* unit every ballot is cut to — the
//! same order as the kernel pipe buffers the connection owns: `3 ×
//! replicas` pipes, `4 × replicas` once it streams a window to several
//! replicas, which the session stages once in the kernel and `tee`s to the
//! rest; the user-space bound is reached only by a connection that
//! actually streams: buffers grow on demand from one chunk), and the
//! proxy's outbound queue holds at most [`OUT_CAP`] + one chunk — once a
//! slow reader fills it, the proxy stops pumping that session, its stdout
//! buffers fill and stop being polled, and the kernel pipes throttle the
//! replicas themselves. While the socket does take
//! bytes, a round alternates pump and flush until the queue stays full or
//! no barrier is satisfiable, so it never sleeps on bytes it could vote.
//! Backpressure propagates to the client's *input* too: the window is
//! refilled only when every replica has consumed it, so a fast sender just
//! fills the kernel's TCP receive buffer.
//!
//! Accept-time cost is optional: with a warm [`Pool`] configured
//! ([`Proxy::with_pool`]), complete replica sets are pre-spawned in the
//! background — at most one per reactor round, in rounds with no live
//! connection — and an accepted connection takes a
//! ready set in O(1) instead of paying the ~3.5 ms fork/exec
//! (`proxy_conn_latency` vs `proxy_conn_latency_warm` in the perf
//! trajectory). Parked sets stay registered with the same reactor so a
//! replica that dies while idle is reaped and replaced, never handed out,
//! and the pool's seed discipline keeps vote outcomes bit-identical to
//! the cold path.
//!
//! Clients speak write-then-read: send the whole request, half-close with
//! `shutdown(SHUT_WR)` ([`crate::net::shutdown_write`]), then read the
//! voted response to EOF. (Responses flush at chunk barriers, so
//! request/response lockstep would deadlock on partial chunks — the same
//! §5.2 full-pipe-buffer rule the pipe path inherits.) A client that
//! disconnects mid-stream costs only its own session: the write error
//! aborts it, SIGKILLing and reaping that connection's replicas, while
//! every other connection keeps streaming. Reaping is a reactor event like
//! any other: a connection whose voted output is complete half-closes
//! toward its client at once, and retires with its outcome when
//! [`Session::finalize`] has reaped the last replica — a set that lingers
//! after closing its output holds up only its own report. A stopping proxy
//! accepts nothing more, aborts every connection still streaming, and
//! gives those that are only waiting for their replicas' exits one more
//! tick of rounds before it aborts what is left.

use crate::net::Listener;
use crate::pool::{Pool, PoolStats};
use crate::reactor::Reactor;
use crate::session::{Phase, Session, SessionIo, StreamOutcome};
use crate::{LaunchConfig, CHUNK};
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest a reactor round sleeps, in milliseconds: the stop flag is
/// read at least this often, and a stopping proxy gives drained connections
/// this long.
const TICK_MS: libc::c_int = 100;

/// The per-connection outbound-queue cap, in bytes: the proxy stops
/// pumping a connection's session once this much voted output waits for
/// its client, so the queue holds at most `OUT_CAP` + one chunk (a pump
/// checks the room between chunks).
pub const OUT_CAP: usize = 4 * CHUNK;

/// What a proxy `pollfd` entry refers to.
#[derive(Debug, Clone, Copy)]
enum Token {
    /// The accept socket.
    Listener,
    /// Connection `slot`'s client socket, read side (request bytes).
    ClientIn(usize),
    /// Connection `slot`'s client socket, write side (voted response).
    ClientOut(usize),
    /// Connection `slot`'s replica pipe.
    Replica(usize, SessionIo),
    /// A *parked* warm-pool replica set's stdout (liveness watch), keyed
    /// by the set's stable id — queue positions go stale within a round.
    Pool(u64),
}

/// One client connection and its replica session.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// The per-replica seeds this connection's set runs with (surfaced in
    /// the report so tests can pin pool-vs-cold seed discipline).
    seeds: Vec<u64>,
    session: Session,
    /// The outbound queue: `out[out_head..]` is voted and not yet written
    /// to the client (≤ [`OUT_CAP`] + one chunk). A partial write moves the
    /// head, not the bytes.
    out: Vec<u8>,
    out_head: usize,
    /// Response bytes written to the client so far.
    sent: u64,
    /// Highest queue fill observed (test hook for the backpressure bound).
    out_peak: usize,
    /// The client half-closed its write side: the request is complete.
    request_done: bool,
    /// The voted output is complete and the client half-closed (its EOF).
    eof_sent: bool,
    /// The closing ballots, once the drained session's replicas are all
    /// reaped; the connection retires with it.
    outcome: Option<StreamOutcome>,
    /// The connection died early (client disconnect / socket error).
    aborted: bool,
}

/// How one voted connection ended.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Monotonic connection id (accept order, from 0).
    pub conn_id: u64,
    /// The session's outcome — `None` when the connection was aborted
    /// before its streams resolved (client disconnect).
    pub outcome: Option<StreamOutcome>,
    /// Response bytes actually written to the client.
    pub sent: u64,
    /// Highest proxy-side outbound-queue fill observed (≤ [`OUT_CAP`] +
    /// one chunk).
    pub out_peak: usize,
    /// The client vanished mid-stream and the session was SIGKILL-reaped.
    pub aborted: bool,
    /// The per-replica seeds this connection's set ran with, in replica
    /// order (empty when the spawn itself failed). Identical whether the
    /// set came warm from the pool or was cold-spawned — the determinism
    /// pin for `--pool 0` vs `--pool N`.
    pub seeds: Vec<u64>,
}

/// Totals for one [`Proxy::run`] (or [`Proxy::serve`]) lifetime.
#[derive(Debug, Clone, Default)]
pub struct ProxySummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections whose vote hit an unresolvable divergence.
    pub diverged: u64,
    /// Connections aborted by client disconnect or socket error.
    pub aborted: u64,
    /// Warm-pool lifetime counters (all zero when `--pool 0`, except
    /// [`PoolStats::cold_spawns`] counting every connection).
    pub pool: PoolStats,
    /// Per-connection reports, in completion order: every one from
    /// [`Proxy::run`], none from [`Proxy::serve`], which hands each to its
    /// caller instead.
    pub reports: Vec<SessionReport>,
}

/// A replicated TCP front end: one listener, one reactor, many voted
/// sessions.
#[derive(Debug)]
pub struct Proxy {
    listener: Listener,
    next_id: u64,
    /// The warm replica-set pool (depth 0 = cold spawns only, the
    /// byte-identical legacy path).
    pool: Pool,
    /// Print the pool stats line on every retired connection.
    log_pool_stats: bool,
}

impl Proxy {
    /// Wraps a bound [`Listener`]. `config` describes the replica set
    /// spawned per connection (`config.input` is ignored; explicit
    /// `config.seeds` are reused for every connection — deterministic
    /// test/bench mode — while empty seeds draw fresh entropy per
    /// connection, the paper's production mode).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] for a replica count that
    /// cannot vote ([`LaunchConfig::validated`], checked here by
    /// [`Pool::new`] so `run` can't fail per-connection).
    pub fn new(listener: Listener, config: LaunchConfig) -> io::Result<Self> {
        let pool = Pool::new(config, 0)?;
        Ok(Self {
            listener,
            next_id: 0,
            pool,
            log_pool_stats: false,
        })
    }

    /// Sets the warm-pool depth target: up to `depth` complete replica
    /// sets are pre-spawned in the background and handed to accepted
    /// connections in O(1), refilling asynchronously. Depth 0 (the
    /// default) keeps today's cold-spawn path byte-identical. Memory-wise
    /// the pool adds `depth × replicas` parked processes and their pipes;
    /// a parked set has no buffers.
    #[must_use]
    pub fn with_pool(mut self, depth: usize) -> Self {
        self.pool.set_target(depth);
        self
    }

    /// Enables the per-retired-connection pool stats line on stderr
    /// (`diehard-proxy --pool` turns this on).
    #[must_use]
    pub fn with_pool_stats_log(mut self, on: bool) -> Self {
        self.log_pool_stats = on;
        self
    }

    /// Shared handle on the pool's parked-set count — observers (the perf
    /// kernels, the pool tests) spin on it to guarantee a warm hit before a
    /// connection.
    #[must_use]
    pub fn pool_gauge(&self) -> Arc<std::sync::atomic::AtomicUsize> {
        self.pool.fill_gauge()
    }

    /// The bound local port (for clients of an ephemeral-port listener).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failures.
    pub fn local_port(&self) -> io::Result<u16> {
        self.listener.local_port()
    }

    /// [`serve`](Self::serve), keeping every connection's report in the
    /// summary's [`reports`](ProxySummary::reports) — for tests and
    /// harnesses that serve a bounded number of connections.
    ///
    /// # Errors
    ///
    /// As [`serve`](Self::serve).
    pub fn run(&mut self, stop: &AtomicBool) -> io::Result<ProxySummary> {
        let mut reports = Vec::new();
        let mut summary = self.serve(stop, |report| reports.push(report))?;
        summary.reports = reports;
        Ok(summary)
    }

    /// Serves connections until `stop` becomes true, handing each retired
    /// connection's report to `on_retire` and keeping none, so a proxy that
    /// serves forever holds memory for its live connections only. Then it
    /// winds down and returns the totals (with no
    /// [`reports`](ProxySummary::reports)): it accepts nothing more and
    /// aborts (SIGKILL + reap) every connection still streaming, gives
    /// those whose client already has its EOF one more tick of reactor
    /// rounds to cast their closing ballots, and aborts whatever is still
    /// running after that. Runs on the calling thread; the `diehard-proxy`
    /// binary gives it its main thread.
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures; per-connection I/O errors are folded
    /// into that connection's report instead. A failed accept (at the
    /// descriptor limit, say) is logged once per streak and retried a tick
    /// later: the client waits in the backlog, and every live connection
    /// keeps being served.
    pub fn serve(
        &mut self,
        stop: &AtomicBool,
        mut on_retire: impl FnMut(SessionReport),
    ) -> io::Result<ProxySummary> {
        let mut reactor: Reactor<Token> = Reactor::new();
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut summary = ProxySummary::default();
        // Accepts are failing (logged once until one succeeds), and the
        // listener sits out the next round: its pending connection keeps it
        // readable, so polling it for input would spin.
        let (mut accept_failing, mut listener_rests) = (false, false);
        // Set once `stop` is seen: the end of the one tick the drained
        // connections get to finish their closing ballots.
        let mut wind_down: Option<Instant> = None;
        loop {
            // Pump: resolve satisfied barriers into each connection's
            // outbound queue and flush what the socket will take, until
            // the queue stays at its cap (the slow-reader backpressure) or
            // no barrier is satisfiable; a drained session reaps what has
            // exited, and its connection retires with the outcome.
            for slot in conns.iter_mut() {
                let Some(conn) = slot else { continue };
                conn.advance();
                if conn.finished() {
                    on_retire(summary.note(slot.take().expect("conn is Some")));
                    if self.log_pool_stats {
                        eprintln!("diehard-proxy: {}", self.pool.stats_line());
                    }
                }
            }
            // Stopping: a connection whose client has no EOF yet is still
            // streaming and goes now; one whose client has it is only
            // waiting for its replicas' exits, and gets the tick.
            if wind_down.is_none() && stop.load(Ordering::Acquire) {
                wind_down = Some(Instant::now() + Duration::from_millis(TICK_MS as u64));
                for slot in conns.iter_mut() {
                    if let Some(mut conn) = slot.take_if(|conn| !conn.eof_sent) {
                        conn.disconnect();
                        on_retire(summary.note(conn));
                    }
                }
            }

            // Refill the warm pool toward its target — at most one spawn
            // per round (the crash-loop/fork-bomb cap), with the pool's own
            // backoff after bad events, and only when no connection is
            // live: a set spawn is milliseconds of fork/exec on this
            // (single) reactor thread, and paying it while a connection is
            // in flight would hand the cold-path latency right back to the
            // client the pool just saved it from. Decided after the pump
            // has retired this round's finished connections: the round
            // that retires the last one must refill, as the next client
            // may arrive within its tick and make the proxy busy again. A
            // drained pool under sustained load degrades to cold spawns
            // (pinned by tests/pool.rs), not to head-of-line blocking. A
            // zero-timeout probe of the listener closes the remaining race:
            // a client that has already connected wins over topping up the
            // pool.
            let left = wind_down.map(|end| end.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero() || conns.iter().all(Option::is_none)) {
                break;
            }
            let refill_ok = left.is_none() && conns.iter().all(Option::is_none) && {
                reactor.clear();
                reactor.register(self.listener.as_raw_fd(), libc::POLLIN, Token::Listener);
                !matches!(reactor.wait(0), Ok(ready) if ready > 0)
            };
            if refill_ok {
                self.pool.refill_step();
            }

            // Re-register the world as it now stands, parked pool sets
            // included (their stdouts are the idle liveness watch).
            reactor.clear();
            // Winding down, the listener is left out: nothing new is accepted.
            if left.is_none() {
                let listen = if std::mem::take(&mut listener_rests) {
                    0 // polled for errors only, so the round still sleeps its tick
                } else {
                    libc::POLLIN
                };
                reactor.register(self.listener.as_raw_fd(), listen, Token::Listener);
            }
            self.pool
                .register_interest(|fd, events, id| reactor.register(fd, events, Token::Pool(id)));
            for (slot, conn) in conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let fd = conn.stream.as_raw_fd();
                if conn.outcome.is_none() && !conn.aborted {
                    conn.session.register_interest(|fd, events, io| {
                        reactor.register(fd, events, Token::Replica(slot, io));
                    });
                    if !conn.request_done && conn.session.wants_input() {
                        reactor.register(fd, libc::POLLIN, Token::ClientIn(slot));
                    }
                }
                if conn.queued() > 0 {
                    reactor.register(fd, libc::POLLOUT, Token::ClientOut(slot));
                }
            }

            // A finite timeout so the stop flag is honored even when idle;
            // zero while the pool still wants to spawn toward its target
            // (and is allowed to — see `refill_ok` above), so refilling is
            // not throttled to one set per idle tick.
            let timeout = if refill_ok && self.pool.wants_spawn() {
                0
            } else {
                // Rounded up, so a wind-down's last wait ends past its tick.
                left.map_or(TICK_MS, |left| left.as_millis() as libc::c_int + 1)
            };
            reactor.wait(timeout)?;
            // Parked-set liveness first: a set condemned in this round must
            // be reaped before the accept below can hand anything out.
            for (token, revents) in reactor.ready() {
                if let Token::Pool(id) = token {
                    self.pool.service(id, revents);
                }
            }
            for (token, _revents) in reactor.ready() {
                match token {
                    Token::Pool(_) => {} // handled above
                    Token::Listener => loop {
                        let stream = match self.listener.accept() {
                            Ok(Some(stream)) => stream,
                            Ok(None) => break,
                            Err(e) => {
                                if !accept_failing {
                                    eprintln!("diehard-proxy: accept failed: {e}; retrying");
                                }
                                (accept_failing, listener_rests) = (true, true);
                                break;
                            }
                        };
                        accept_failing = false;
                        summary.accepted += 1;
                        match self.open(stream) {
                            Ok(mut conn) => {
                                // Eager first read: on loopback the
                                // request often lands before the accept
                                // is even dispatched, and picking it up
                                // now saves the fast path a poll round.
                                conn.read_request();
                                match conns.iter_mut().find(|s| s.is_none()) {
                                    Some(free) => *free = Some(conn),
                                    None => conns.push(Some(conn)),
                                }
                            }
                            // Spawn failure is this connection's
                            // problem, not the proxy's: the dropped
                            // stream closes the client, and the report
                            // records an aborted session.
                            Err((id, e)) => {
                                eprintln!(
                                    "diehard-proxy: connection {id}: replica spawn failed: {e}"
                                );
                                summary.aborted += 1;
                                on_retire(SessionReport {
                                    conn_id: id,
                                    outcome: None,
                                    sent: 0,
                                    out_peak: 0,
                                    aborted: true,
                                    seeds: Vec::new(),
                                });
                            }
                        }
                    },
                    Token::ClientIn(slot) => {
                        if let Some(conn) = conns[slot].as_mut() {
                            conn.read_request();
                        }
                    }
                    Token::ClientOut(slot) => {
                        if let Some(conn) = conns[slot].as_mut() {
                            conn.flush_response();
                        }
                    }
                    Token::Replica(slot, io) => {
                        if let Some(conn) = conns[slot].as_mut() {
                            conn.session.service(io);
                        }
                    }
                }
            }
        }
        // The tick is up: whatever is still running is torn down hard.
        for mut conn in conns.into_iter().flatten() {
            if conn.outcome.is_none() {
                conn.disconnect();
            }
            on_retire(summary.note(conn));
        }
        summary.pool = self.pool.stats().clone();
        Ok(summary)
    }

    /// Readies a replica session for an accepted client — warm from the
    /// pool in O(1) when one is parked, cold-spawned otherwise (both paths
    /// draw seeds from the same stream). On failure the stream has already
    /// been dropped (closing the client).
    fn open(&mut self, stream: TcpStream) -> Result<Conn, (u64, io::Error)> {
        let id = self.next_id;
        self.next_id += 1;
        match self.pool.acquire() {
            Ok(session) => Ok(Conn {
                id,
                stream,
                seeds: session.seeds().to_vec(),
                session,
                out: Vec::new(),
                out_head: 0,
                sent: 0,
                out_peak: 0,
                request_done: false,
                eof_sent: false,
                outcome: None,
                aborted: false,
            }),
            Err(e) => Err((id, e)),
        }
    }
}

impl Conn {
    /// Voted bytes queued for the client.
    fn queued(&self) -> usize {
        self.out.len() - self.out_head
    }

    /// Pump-then-flush, repeated while it makes progress: barriers into
    /// the queue (up to the cap), the queue into the socket, and again if
    /// the socket took enough to reopen the queue while a barrier is still
    /// satisfiable — those buffers are full and unpolled, so nothing but
    /// the tick would wake the reactor for them. Once the session drains,
    /// the client is half-closed as soon as the queue is empty, and each
    /// round reaps what has exited until [`Session::finalize`] yields the
    /// outcome.
    fn advance(&mut self) {
        let mut flushed = false;
        while !self.aborted && !self.session.is_drained() && self.queued() < OUT_CAP {
            // The written prefix goes once it outweighs the queue behind
            // it, so the vector stays within twice the queue's bound and
            // a byte is moved at most once.
            if self.out_head > self.queued() {
                self.out.drain(..self.out_head);
                self.out_head = 0;
            }
            let room = OUT_CAP - self.queued();
            let phase = self.session.pump(&mut self.out, room);
            self.out_peak = self.out_peak.max(self.queued());
            self.flush_response();
            flushed = true;
            if phase == Phase::Drained || !self.session.barrier_ready() {
                break;
            }
        }
        // Nothing to pump (queue at its cap, or the session drained): the
        // round still owes the socket what is queued.
        if !flushed {
            self.flush_response();
        }
        // A disconnect during the flush has already reaped the session;
        // there is nothing left to ballot.
        if self.aborted || !self.session.is_drained() || self.outcome.is_some() {
            return;
        }
        // The voted output is complete: the client's EOF waits on the
        // queue, never on a replica's exit.
        if self.queued() == 0 && !self.eof_sent {
            let _ = crate::net::shutdown_write(&self.stream);
            self.eof_sent = true;
        }
        self.outcome = self.session.finalize();
        if let Some(outcome) = self.outcome.as_ref().filter(|o| o.diverged) {
            eprintln!(
                "diehard-proxy: connection {}: vote diverged after {} committed bytes; closing",
                self.id, outcome.committed
            );
        }
    }

    /// Complete and fully flushed (or dead): the slot can be retired. The
    /// socket closes on drop, which is also the client's EOF.
    fn finished(&self) -> bool {
        self.aborted || (self.outcome.is_some() && self.queued() == 0)
    }

    /// Reads request bytes straight into the session's input window, one
    /// window at a time. EOF is the client's half-close: the request is
    /// complete. A hard error is a disconnect: the session is aborted and
    /// its replicas reaped.
    fn read_request(&mut self) {
        // Reads run in a loop with an eager stdin flush after each window:
        // a small request plus its FIN often arrive together, and the
        // empty replica pipes always take the first window — so the whole
        // request is broadcast in the round that received it instead of
        // burning a poll round each on the FIN and on `POLLOUT` reports.
        while !self.request_done && self.session.wants_input() {
            match self.session.fill_input(&mut self.stream) {
                Ok(0) => self.request_done = true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect();
                    return;
                }
            }
            self.session.flush_input();
        }
    }

    /// Writes queued voted bytes to the client. A write error is a
    /// disconnect: this session dies (SIGKILL + reap), nobody else's does.
    fn flush_response(&mut self) {
        while self.queued() > 0 {
            match self.stream.write(&self.out[self.out_head..]) {
                Ok(0) => {
                    self.disconnect();
                    return;
                }
                Ok(n) => {
                    self.out_head += n;
                    self.sent += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect();
                    return;
                }
            }
        }
        // Empty: the next commit starts at the front again.
        self.out.clear();
        self.out_head = 0;
    }

    /// The client is gone: reap this connection's replicas, drop the
    /// queue, and mark the slot for retirement.
    fn disconnect(&mut self) {
        if self.outcome.is_none() {
            self.session.abort();
        }
        self.out.clear();
        self.out_head = 0;
        self.aborted = true;
    }
}

impl ProxySummary {
    /// Folds a retired connection into the totals and returns its report.
    fn note(&mut self, conn: Conn) -> SessionReport {
        if conn.aborted {
            self.aborted += 1;
        }
        if conn.outcome.as_ref().is_some_and(|o| o.diverged) {
            self.diverged += 1;
        }
        SessionReport {
            conn_id: conn.id,
            outcome: conn.outcome,
            sent: conn.sent,
            out_peak: conn.out_peak,
            aborted: conn.aborted,
            seeds: conn.seeds,
        }
    }
}
