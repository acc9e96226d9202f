//! Warm replica-set pool: pre-spawned, pre-seeded replica sets.
//!
//! `BENCH_9.json` put the TCP front end's per-connection cost at ~3.5 ms
//! (`proxy_conn_latency`), dominated by the fork/exec of N replicas at
//! accept time. A [`Pool`] moves that work off the accept path: complete
//! N-replica [`Session`]s — each member with its own distinct
//! `DIEHARD_SEED`, the `--preload` env applied, and non-blocking pipes
//! already set up — are spawned *ahead of demand* and parked. A parked set
//! is processes and pipes only: a session allocates its first buffer at
//! its first read, so pool depth costs no buffer memory. An accepted
//! connection then takes a ready set in O(1) ([`Pool::take`]) and the pool
//! refills asynchronously toward its depth target, at most one spawn per
//! reactor round ([`Pool::refill_step`]); the proxy refills only in rounds
//! with no live connection, decided after the round's finished connections
//! have retired.
//!
//! Three invariants make pooling invisible to everything above it:
//!
//! * **Seed discipline** — a pooled set draws its seeds from *exactly* the
//!   stream the cold path would have used (the same
//!   `resolve_seeds(config)` call, one per set, in spawn order, FIFO
//!   handout), so for a fixed master seed the vote outcomes and
//!   per-replica seed assignment are bit-identical with and without the
//!   pool. Pinned by `tests/pool.rs`.
//! * **Never hand out the dead** — a replica that exits while parked makes
//!   its whole set worthless (the vote would start a member down). Parked
//!   stdouts are registered with the transport's reactor
//!   ([`Pool::register_interest`]); a `POLLHUP` or an exited member
//!   condemns the set ([`Pool::service`]), which is reaped and counted in
//!   [`PoolStats::reaped_idle`] — and [`Pool::take`] re-probes at handoff
//!   time as a last line of defense.
//! * **No spin on a broken command** — a missing or crash-looping target
//!   binary must not turn the refill loop into a 100%-CPU fork bomb.
//!   Spawns are capped at one per round, and every bad event (spawn
//!   failure *or* a set dying while parked) doubles an exponential
//!   tick backoff (capped), logged once per bad streak. A successful
//!   handoff resets the streak.
//!
//! Depth 0 (the default) disables pre-spawning entirely:
//! [`Pool::acquire`] then always cold-spawns through the byte-identical
//! legacy path.

use crate::reactor::Reactor;
use crate::session::{resolve_seeds, Session, SessionInput};
use crate::LaunchConfig;
use std::collections::VecDeque;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Backoff ceiling, in reactor ticks (idle ticks are ~100 ms in the proxy,
/// so the worst-case retry interval is a handful of seconds).
const MAX_BACKOFF_TICKS: u32 = 64;

/// Lifetime counters for one pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Replica sets pre-spawned into the pool (warm spawns only).
    pub spawned: u64,
    /// Warm sets handed to connections — pool hits.
    pub handed_out: u64,
    /// Parked sets reaped because a member died before handoff.
    pub reaped_idle: u64,
    /// Sessions spawned on demand because the pool was empty or disabled —
    /// pool misses (`--pool 0` makes every connection one of these).
    pub cold_spawns: u64,
    /// Warm spawn attempts that failed outright (missing binary, fd
    /// limits); each failure feeds the backoff.
    pub spawn_failures: u64,
}

/// One parked, ready-to-hand-out replica set.
#[derive(Debug)]
struct Parked {
    /// Stable identity for reactor tokens — indices into the queue would go
    /// stale the moment a take/reap reshuffles it mid-round.
    id: u64,
    session: Session,
    /// Idle-liveness polling enabled. Cleared when the parked set shows
    /// stdout activity while every member is still alive (a startup
    /// banner): the bytes stay queued in the kernel pipe for the eventual
    /// owner, and deregistering stops the level-triggered `POLLIN` from
    /// spinning the reactor.
    watch: bool,
}

/// A warm pool of pre-spawned replica [`Session`]s (see module docs).
#[derive(Debug)]
pub struct Pool {
    config: LaunchConfig,
    target: usize,
    idle: VecDeque<Parked>,
    next_set_id: u64,
    stats: PoolStats,
    /// Published copy of `idle.len()` for observers on other threads
    /// (benches spin on it to guarantee a warm hit before timing).
    gauge: Arc<AtomicUsize>,
    /// Ticks to skip before the next spawn attempt.
    backoff_ticks: u32,
    /// Bad events (spawn failure or parked death) since the last handoff.
    consecutive_bad: u32,
    /// The current bad streak has been logged; reset on handoff.
    streak_logged: bool,
}

impl Pool {
    /// A pool that pre-spawns up to `target` replica sets of
    /// `config.command`. Depth 0 never pre-spawns —
    /// [`acquire`](Self::acquire) then always takes the cold path.
    ///
    /// # Errors
    ///
    /// Rejects an invalid replica count up front
    /// ([`LaunchConfig::validated`], the same validation a cold spawn would
    /// apply later).
    pub fn new(config: LaunchConfig, target: usize) -> io::Result<Self> {
        config.validated()?;
        Ok(Self {
            config,
            target,
            idle: VecDeque::new(),
            next_set_id: 0,
            stats: PoolStats::default(),
            gauge: Arc::new(AtomicUsize::new(0)),
            backoff_ticks: 0,
            consecutive_bad: 0,
            streak_logged: false,
        })
    }

    /// Changes the depth target. Shrinking does not reap already-parked
    /// sets — they drain through normal handoffs.
    pub fn set_target(&mut self, target: usize) {
        self.target = target;
    }

    /// The configured depth target.
    #[must_use]
    pub fn target(&self) -> usize {
        self.target
    }

    /// How many warm sets are parked right now.
    #[must_use]
    pub fn idle_len(&self) -> usize {
        self.idle.len()
    }

    /// The lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// A shared handle on the parked-set count, updated on every change.
    /// Lets another thread (a perf kernel, a pool test) wait for warmth
    /// without locking the pool.
    #[must_use]
    pub fn fill_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.gauge)
    }

    /// Whether the next reactor wait should return immediately so
    /// [`refill_step`](Self::refill_step) can run again: below target and
    /// not backing off. Transports use this to pick their poll timeout.
    #[must_use]
    pub fn wants_spawn(&self) -> bool {
        self.idle.len() < self.target && self.backoff_ticks == 0
    }

    fn sync_gauge(&self) {
        self.gauge.store(self.idle.len(), Ordering::Release);
    }

    /// One bad event (spawn failure or parked death): grow the backoff and
    /// log the streak once.
    fn note_bad(&mut self, what: &str) {
        self.consecutive_bad = self.consecutive_bad.saturating_add(1);
        self.backoff_ticks = (1u32 << self.consecutive_bad.min(6)).min(MAX_BACKOFF_TICKS);
        if !self.streak_logged {
            self.streak_logged = true;
            eprintln!(
                "diehard pool: {what}; backing off (command: {:?})",
                self.config.command.first().map_or("", |s| s.as_str())
            );
        }
    }

    /// Spawns one complete replica set exactly as the cold path would:
    /// same seed stream, same env, same non-blocking pipe setup.
    fn spawn_set(&mut self) -> io::Result<Session> {
        let seeds = resolve_seeds(&self.config)?;
        Session::spawn(&self.config, &seeds, SessionInput::Streamed)
    }

    /// One refill tick: spawn at most one set toward the target. Returns
    /// whether a set was spawned. A tick spent below target in backoff
    /// counts the backoff down instead of spawning; a failed spawn is
    /// recorded ([`PoolStats::spawn_failures`]) and grows the backoff.
    pub fn refill_step(&mut self) -> bool {
        if self.idle.len() >= self.target {
            return false;
        }
        if self.backoff_ticks > 0 {
            self.backoff_ticks -= 1;
            return false;
        }
        match self.spawn_set() {
            Ok(session) => {
                let id = self.next_set_id;
                self.next_set_id += 1;
                self.idle.push_back(Parked {
                    id,
                    session,
                    watch: true,
                });
                self.stats.spawned += 1;
                self.sync_gauge();
                true
            }
            Err(e) => {
                self.stats.spawn_failures += 1;
                self.note_bad(&format!("warm spawn failed ({e})"));
                false
            }
        }
    }

    /// Fills the pool synchronously: refill until the target is reached or
    /// a spawn fails (the failure is recorded and backs off as usual — the
    /// caller's next [`acquire`](Self::acquire) surfaces the error on the
    /// cold path). The refill timings (`pool_refill`, the benchmark ledger)
    /// use this.
    pub fn prime(&mut self) {
        while self.refill_step() {}
    }

    /// Registers every *watched* parked set's stdout descriptors with the
    /// transport's reactor (`POLLIN`), keyed by the set's stable id for
    /// [`service`](Self::service).
    pub fn register_interest(&self, mut register: impl FnMut(RawFd, libc::c_short, u64)) {
        for p in &self.idle {
            if p.watch {
                p.session
                    .park_interest(|fd| register(fd, libc::POLLIN, p.id));
            }
        }
    }

    /// Dispatches a readiness event on a parked set. `POLLHUP`/`POLLERR`
    /// or an exited member condemns the whole set — it is aborted, counted
    /// in [`PoolStats::reaped_idle`], and never handed out. Plain `POLLIN`
    /// from a set whose members are all alive is early output (a startup
    /// banner): the set stays parked (bytes wait in the kernel pipe for
    /// its eventual owner) but stops being idle-polled so the
    /// level-triggered readiness cannot spin the reactor. Unknown ids
    /// (set already taken or reaped this round) are ignored.
    pub fn service(&mut self, set_id: u64, revents: libc::c_short) {
        let Some(pos) = self.idle.iter().position(|p| p.id == set_id) else {
            return;
        };
        let dead = revents & (libc::POLLHUP | libc::POLLERR) != 0
            || self.idle[pos].session.any_member_exited();
        if dead {
            let mut parked = self.idle.remove(pos).expect("position just found");
            parked.session.abort();
            self.stats.reaped_idle += 1;
            self.sync_gauge();
            self.note_bad("parked replica exited before handoff; set reaped");
        } else {
            self.idle[pos].watch = false;
        }
    }

    /// Last-instant liveness probe at handoff: any exited member, or
    /// `POLLHUP`/`POLLERR` already pending on a parked stdout.
    fn set_is_dead(session: &mut Session) -> bool {
        if session.any_member_exited() {
            return true;
        }
        let mut probe: Reactor<()> = Reactor::new();
        session.park_interest(|fd| probe.register(fd, libc::POLLIN, ()));
        probe.wait(0).is_ok()
            && probe
                .ready()
                .any(|((), rev)| rev & (libc::POLLHUP | libc::POLLERR) != 0)
    }

    /// Takes the oldest warm set, or `None` when the pool is empty (the
    /// caller falls back to a cold spawn). Sets found dead at handoff are
    /// reaped here — a dead set is *never* handed out — and the next one
    /// is tried. A successful handoff resets the bad-event backoff.
    pub fn take(&mut self) -> Option<Session> {
        while let Some(mut parked) = self.idle.pop_front() {
            if Self::set_is_dead(&mut parked.session) {
                parked.session.abort();
                self.stats.reaped_idle += 1;
                self.sync_gauge();
                self.note_bad("parked replica exited before handoff; set reaped");
                continue;
            }
            self.stats.handed_out += 1;
            self.consecutive_bad = 0;
            self.backoff_ticks = 0;
            self.streak_logged = false;
            self.sync_gauge();
            return Some(parked.session);
        }
        None
    }

    /// A ready session, warm if possible: [`take`](Self::take) on a hit,
    /// otherwise a cold spawn through the exact legacy path (counted in
    /// [`PoolStats::cold_spawns`]). With depth 0 this *is* the legacy
    /// path plus one counter.
    ///
    /// # Errors
    ///
    /// Cold-spawn failures propagate exactly as they always have
    /// (seed-count validation, process spawn, `fcntl`).
    pub fn acquire(&mut self) -> io::Result<Session> {
        if let Some(session) = self.take() {
            return Ok(session);
        }
        self.stats.cold_spawns += 1;
        let seeds = resolve_seeds(&self.config)?;
        Session::spawn(&self.config, &seeds, SessionInput::Streamed)
    }

    /// The one-line stats summary transports print (`--pool` enables it):
    /// warm hits are `handed_out`, misses are `cold`.
    #[must_use]
    pub fn stats_line(&self) -> String {
        format!(
            "pool depth={} idle={} spawned={} handed_out={} reaped_idle={} spawn_failures={} cold={}",
            self.target,
            self.idle.len(),
            self.stats.spawned,
            self.stats.handed_out,
            self.stats.reaped_idle,
            self.stats.spawn_failures,
            self.stats.cold_spawns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat_config(depth_seeds: &[u64]) -> LaunchConfig {
        let mut cfg = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
        cfg.seeds = depth_seeds.to_vec();
        cfg
    }

    #[test]
    fn depth_zero_acquire_is_always_cold() {
        let mut pool = Pool::new(cat_config(&[1, 2, 3]), 0).unwrap();
        assert!(!pool.wants_spawn());
        assert!(!pool.refill_step());
        let mut s = pool.acquire().unwrap();
        assert_eq!(s.seeds(), &[1, 2, 3]);
        s.abort();
        assert_eq!(pool.stats().cold_spawns, 1);
        assert_eq!(pool.stats().spawned, 0);
        assert_eq!(pool.stats().handed_out, 0);
    }

    #[test]
    fn refill_parks_up_to_target_and_take_is_fifo_warm() {
        let mut pool = Pool::new(cat_config(&[7, 8, 9]), 2).unwrap();
        let gauge = pool.fill_gauge();
        assert!(pool.wants_spawn());
        assert!(pool.refill_step());
        assert!(pool.refill_step());
        assert!(!pool.refill_step(), "at target: no further spawns");
        assert_eq!(pool.idle_len(), 2);
        assert_eq!(gauge.load(Ordering::Acquire), 2);
        let mut s = pool.take().expect("warm set parked");
        assert_eq!(
            s.seeds(),
            &[7, 8, 9],
            "pooled seeds match the config stream"
        );
        s.abort();
        assert_eq!(gauge.load(Ordering::Acquire), 1);
        assert_eq!(pool.stats().handed_out, 1);
        assert_eq!(pool.stats().spawned, 2);
        assert_eq!(pool.stats().cold_spawns, 0);
    }

    #[test]
    fn spawn_failure_backs_off_and_logs_not_spins() {
        let cfg = LaunchConfig::new(3, vec!["/nonexistent/diehard-target".into()], Vec::new());
        let mut pool = Pool::new(cfg, 2).unwrap();
        let mut spawned = 0;
        // Many ticks: without backoff every tick would attempt a spawn.
        for _ in 0..100 {
            if pool.refill_step() {
                spawned += 1;
            }
        }
        assert_eq!(spawned, 0);
        assert_eq!(pool.idle_len(), 0);
        let failures = pool.stats().spawn_failures;
        assert!(failures >= 1, "the failure must be counted");
        assert!(
            failures <= 8,
            "backoff must cap attempts (got {failures} in 100 ticks)"
        );
    }

    #[test]
    fn dead_parked_set_is_reaped_not_handed_out() {
        // Replicas that exit immediately: the set dies while parked.
        let cfg = LaunchConfig::new(
            3,
            vec!["/bin/sh".into(), "-c".into(), "exit 0".into()],
            Vec::new(),
        );
        let mut pool = Pool::new(cfg, 1).unwrap();
        assert!(pool.refill_step());
        // Wait for the members to actually exit.
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert!(pool.take().is_none(), "a dead set must never be handed out");
        assert_eq!(pool.stats().reaped_idle, 1);
        assert_eq!(pool.stats().handed_out, 0);
    }

    #[test]
    fn service_reaps_on_hup_and_unwatches_on_banner() {
        let mut pool = Pool::new(cat_config(&[1, 2, 3]), 1).unwrap();
        assert!(pool.refill_step());
        let mut ids = Vec::new();
        pool.register_interest(|_fd, ev, id| {
            assert_eq!(ev, libc::POLLIN);
            ids.push(id);
        });
        assert_eq!(ids.len(), 3, "one stdout per replica, all watched");
        let id = ids[0];
        // Plain POLLIN with everyone alive = startup banner: stays parked,
        // stops being watched.
        pool.service(id, libc::POLLIN);
        assert_eq!(pool.idle_len(), 1);
        let mut watched = 0;
        pool.register_interest(|_, _, _| watched += 1);
        assert_eq!(watched, 0, "banner set must drop out of idle polling");
        // POLLHUP condemns the set.
        pool.service(id, libc::POLLHUP);
        assert_eq!(pool.idle_len(), 0);
        assert_eq!(pool.stats().reaped_idle, 1);
        // Unknown id after the reap: no-op.
        pool.service(id, libc::POLLHUP);
        assert_eq!(pool.stats().reaped_idle, 1);
    }
}
