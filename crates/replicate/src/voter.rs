//! The §5.2 vote, with no process in it: the chunk [`Voter`], and the
//! [`VoteCore`] that runs one whole voted stream on top of it.
//!
//! "If all agree, then the contents of one of the buffers are sent to
//! standard output ... if not all of the buffers agree ... The voter then
//! chooses an output buffer agreed upon by at least two replicas and sends
//! that to standard out. Two replicas suffice, because the odds are slim
//! that two randomized replicas with memory errors would return the same
//! result."
//!
//! A vote allocates nothing: the verdict *names* the winning replica
//! instead of copying its bytes (the caller already holds them), and the
//! grouping scratch lives in the [`Voter`] across rounds — a voted stream
//! resolves one barrier per ≤ [`CHUNK`] bytes, so anything allocated here
//! is allocated a quarter of a million times per gigabyte.
//!
//! **The core.** A [`VoteCore`] is the barrier machine of one stream over
//! `n` replicas, whatever they are: child processes behind pipes (the
//! [`Session`](crate::Session) edge), finished in-process outputs
//! (`diehard_runtime::ReplicaSet`), or a scripted schedule in a test. Its
//! inputs are events: stdout bytes (read straight into
//! [`VoteCore::out_spare`]), a stdout's end, stderr bytes, input bytes a
//! replica took, and at the end each replica's exit status. Its outputs are
//! the committed bytes ([`VoteCore::pump`]), the replicas it killed
//! ([`VoteCore::killed`], each with the barrier it died at), whether it
//! wants input, and the [`StreamOutcome`]. It owns no descriptor and no
//! process: the caller carries out the kills.
//!
//! **Transfer unit vs barrier unit.** §5.2 votes "when the buffer fills
//! (4K, the unit of transfer of a pipe)"; on today's kernels a pipe holds
//! 64 KiB, and a 4 KiB `read` from a full pipe wakes the blocked writer for
//! one page. So the two sizes are separate here, and both are constants.
//! The *barrier* is [`CHUNK`], the paper's 4 KiB: every ballot is ≤ one
//! chunk, a replica is outvoted and killed at the first chunk that differs,
//! and a one-chunk response commits the moment every live replica has
//! produced it. The *transfer* is [`TRANSFER`], a pipe's 64 KiB: each stdout
//! buffer and the input window may run ahead of the vote by up to that
//! much, and [`VoteCore::pump`] votes chunk-sized slices of the buffers
//! until one of them runs short. Buffers start empty, begin at one chunk
//! and double only after a read has filled them to the brim (the one sign
//! that the pipe may hold more), so a connection that never has more than a
//! chunk in flight touches two chunks per buffer, not sixteen, and a parked
//! pool set holds nothing. Peak memory per stream is
//! `(2 × replicas + 1) × TRANSFER` retained bytes by construction —
//! `replicas` stdout buffers, `replicas` stderr captures (≤ one chunk each)
//! and the window — reported via [`StreamOutcome::peak_buffered`].

use crate::{CHUNK, TRANSFER};
use std::io::{self, Read};

/// Result of voting on one round of chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkVote {
    /// A quorum (≥ 2, or the lone survivor) agreed; commit the ballot of
    /// this replica — the lowest-indexed member of the winning group.
    Commit(usize),
    /// No quorum: terminate (detected divergence).
    Divergence,
    /// Every live replica has ended its stream.
    AllDone,
}

/// What a vote does when the largest groups of agreeing replicas are
/// equally large (four replicas split 2–2, five 2–2–1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ties {
    /// A tie is a divergence and kills nobody: a quorum is a *strict*
    /// plurality of at least two. The launcher and the proxy vote this way
    /// ([`Voter::new`]): a 2–2 split cannot tell which pair is right, so
    /// committing either would be a guess.
    Diverge,
    /// The first (lowest-indexed) of the equal groups commits and the rest
    /// are outvoted. The in-process `diehard_runtime::ReplicaSet` votes this
    /// way: it is Theorem 3's model, where only "no two replicas agree" is
    /// a detection, and the `uninit` bin's k = 4 column checks the
    /// theorem's analytic value against it.
    First,
}

/// Tracks live replicas across voting rounds and kills disagreeing ones.
#[derive(Debug, Clone)]
pub struct Voter {
    alive: Vec<bool>,
    killed: Vec<usize>,
    /// Scratch for one round: `(first member, size)` of each group of equal
    /// live ballots, in first-appearance order.
    groups: Vec<(usize, usize)>,
    ties: Ties,
}

impl Voter {
    /// A voter over `n` replicas, all initially live, for which a tie is a
    /// divergence ([`Ties::Diverge`]).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_ties(n, Ties::Diverge)
    }

    /// A voter over `n` replicas, all initially live, breaking ties by
    /// `ties`.
    #[must_use]
    pub fn with_ties(n: usize, ties: Ties) -> Self {
        Self {
            alive: vec![true; n],
            killed: Vec::new(),
            groups: Vec::with_capacity(n),
            ties,
        }
    }

    /// Marks a replica dead (crashed before voting).
    pub fn kill(&mut self, idx: usize) {
        if idx < self.alive.len() && self.alive[idx] {
            self.alive[idx] = false;
            self.killed.push(idx);
        }
    }

    /// Number of currently live replicas.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Whether replica `idx` is still live.
    #[must_use]
    pub fn is_alive(&self, idx: usize) -> bool {
        idx < self.alive.len() && self.alive[idx]
    }

    /// Indices of the live replicas, ascending.
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(i, &alive)| alive.then_some(i))
    }

    /// Indices of replicas killed so far, in kill order.
    #[must_use]
    pub fn killed(&self) -> &[usize] {
        &self.killed
    }

    /// Votes on one chunk round. `ballots[i]` is replica `i`'s chunk, or
    /// `None` when its stream has ended. Dead replicas' ballots are
    /// ignored. Replicas that lose the vote are killed ("A replica that
    /// has generated anomalous output is no longer useful").
    pub fn vote(&mut self, ballots: &[Option<&[u8]>]) -> ChunkVote {
        self.vote_by(|i| ballots[i])
    }

    /// [`vote`](Self::vote) over ballots the caller computes on demand —
    /// slices of buffers it already holds — so a round needs no ballot
    /// vector. `ballot(i)` is asked only for live `i` and must answer the
    /// same every time within the call.
    pub fn vote_by<'a>(&mut self, ballot: impl Fn(usize) -> Option<&'a [u8]>) -> ChunkVote {
        // Group live ballots (None = "ended" is its own group).
        self.groups.clear();
        let mut live = 0;
        for i in (0..self.alive.len()).filter(|&i| self.alive[i]) {
            live += 1;
            let b = ballot(i);
            match self
                .groups
                .iter_mut()
                .find(|(first, _)| ballot(*first) == b)
            {
                Some((_, size)) => *size += 1,
                None => self.groups.push((i, 1)),
            }
        }
        if live == 0 {
            return ChunkVote::AllDone;
        }
        // The largest group wins, the earliest among equals. A lone
        // survivor is a group of one that passes through (stand-alone
        // degenerate case).
        let mut winner = self.groups[0];
        for &group in &self.groups[1..] {
            if group.1 > winner.1 {
                winner = group;
            }
        }
        let (first, size) = winner;
        let tied = || self.groups.iter().filter(|g| g.1 == size).count() > 1;
        if live > 1 && (size < 2 || (self.ties == Ties::Diverge && tied())) {
            return ChunkVote::Divergence;
        }
        // Kill the losers (none when the vote was unanimous, which is the
        // round that must stay cheap).
        let winning = ballot(first);
        if size < live {
            for i in 0..self.alive.len() {
                if self.alive[i] && ballot(i) != winning {
                    self.kill(i);
                }
            }
        }
        match winning {
            Some(_) => ChunkVote::Commit(first),
            // The quorum agreed the stream is over.
            None => ChunkVote::AllDone,
        }
    }
}

/// What [`VoteCore::pump`] left the stream in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Barriers remain; keep feeding events.
    Streaming,
    /// Every live stream has resolved (agreement, divergence, or total
    /// crash); the closing ballots ([`VoteCore::finalize`]) remain.
    Drained,
}

/// How a stream's broadcast input arrives. There is one way: the caller
/// refills the window (≤ one transfer unit) by
/// [`VoteCore::fill_input`] whenever [`VoteCore::wants_input`] allows, and
/// the window counts toward the stream's bound. The type survives only
/// because `benchmark/src/ledger.rs`, which is not edited (ROADMAP open
/// question 2), passes it to [`Session::spawn`](crate::Session::spawn).
#[derive(Debug)]
pub enum SessionInput {
    /// The one input path.
    Streamed,
}

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
    /// stdout buffers and stderr captures plus the input window, whatever
    /// the input's source) — bounded by `(2 × replicas + 1) × TRANSFER` by
    /// construction. How far below the bound it reads depends on how far
    /// the replicas ran ahead of each other, so it is timing-dependent once
    /// a stream is longer than one chunk.
    pub peak_buffered: usize,
    /// The quorum-agreed standard error (first ≤ [`CHUNK`] bytes — the same
    /// chunk discipline as stdout voting). After the streams end the
    /// replicas' captures are voted as a ballot: a minority stderr loses
    /// its replica its vote, and no strict plurality means the run
    /// [`diverged`](Self::diverged). Empty when the run diverged or no
    /// replica survived.
    pub stderr: Vec<u8>,
    /// Bytes of the winning replica's stderr beyond the one-chunk capture
    /// cap. They were read and discarded — never left in the pipe, so a
    /// chatty replica cannot block on stderr backpressure.
    pub stderr_dropped: u64,
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
    /// leave a prefix at all (`limit` is a multiple of two chunks, see
    /// [`VoteCore`]), so it never withholds a ballot.
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
#[derive(Default)]
struct Window {
    /// Initialised storage; grows by doubling, on demand, up to one
    /// transfer unit.
    buf: Vec<u8>,
    len: usize,
    base: u64,
    eof: bool,
}

impl Window {
    /// Absolute offset one past the last byte currently available.
    fn end(&self) -> u64 {
        self.base + self.len as u64
    }
}

/// One replica's share of the stream.
#[derive(Default)]
struct Lane {
    /// Stdout not yet voted (≤ one transfer unit); the next ballot is its
    /// first ≤ chunk bytes.
    out: RunAhead,
    /// Captured stderr: the first ≤ chunk bytes this replica wrote.
    err: Vec<u8>,
    /// Stderr bytes beyond the capture cap, drained and discarded.
    err_dropped: u64,
    /// The output stream has ended; what is left of `out` is voted chunk
    /// by chunk, a partial last one included.
    eof: bool,
    /// Absolute input offset this replica has taken up to.
    in_pos: u64,
    /// Takes no more input: it took all of an ended input, its stdin
    /// broke, or it was killed.
    input_done: bool,
}

impl Lane {
    /// The next ballot: the first ≤ [`CHUNK`] bytes not yet voted, `None`
    /// once the stream has nothing left.
    fn ballot(&self) -> Option<&[u8]> {
        let unvoted = self.out.as_slice();
        (!unvoted.is_empty()).then(|| &unvoted[..unvoted.len().min(CHUNK)])
    }
}

// A full run-ahead buffer must hold a ballot (`RunAhead::has_room`): its
// limit, the transfer unit, has to be a whole number of chunk pairs.
const _: () = assert!(TRANSFER.is_multiple_of(2 * CHUNK));

/// The §5.2 barrier machine for one voted stream (see the module docs).
pub struct VoteCore {
    lanes: Vec<Lane>,
    input: Window,
    voter: Voter,
    committed: u64,
    peak_buffered: usize,
    diverged: bool,
    drained: bool,
    /// Barriers committed so far.
    barriers: usize,
    /// The barrier count at each of the voter's kills, in kill order.
    killed_at: Vec<usize>,
}

impl std::fmt::Debug for VoteCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoteCore")
            .field("replicas", &self.lanes.len())
            .field("committed", &self.committed)
            .field("drained", &self.drained)
            .field("diverged", &self.diverged)
            .finish_non_exhaustive()
    }
}

impl VoteCore {
    /// A stream over `voter`'s replicas (the voter's tie rule is the
    /// stream's), voting ballots of ≤ [`CHUNK`] bytes, its input window
    /// empty until the first [`fill_input`](Self::fill_input).
    #[must_use]
    pub fn new(voter: Voter) -> Self {
        Self {
            lanes: voter.alive.iter().map(|_| Lane::default()).collect(),
            input: Window::default(),
            voter,
            committed: 0,
            peak_buffered: 0,
            diverged: false,
            drained: false,
            barriers: 0,
            killed_at: Vec::new(),
        }
    }

    /// Bytes committed so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Replica indices killed so far, in kill order.
    #[must_use]
    pub fn killed(&self) -> &[usize] {
        self.voter.killed()
    }

    /// The barrier at which each of [`killed`](Self::killed) was killed,
    /// in the same order: how many barriers had committed by then.
    #[must_use]
    pub fn killed_at(&self) -> &[usize] {
        &self.killed_at
    }

    /// Barriers committed so far; after a divergence, the index of the
    /// barrier no quorum agreed on.
    #[must_use]
    pub fn barriers(&self) -> usize {
        self.barriers
    }

    /// Whether [`pump`](Self::pump) has reported [`Phase::Drained`].
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Whether the vote hit an unresolvable divergence.
    #[must_use]
    pub fn has_diverged(&self) -> bool {
        self.diverged
    }

    /// Whether a barrier can be resolved right now: some replica is live
    /// and every live one has a full chunk unvoted or has ended its stream
    /// (a partial or empty final chunk is still a ballot). More stdout
    /// cannot change that.
    #[must_use]
    pub fn barrier_ready(&self) -> bool {
        let ready = |l: &Lane| l.eof || l.out.len() >= CHUNK;
        self.voter.live_count() > 0 && self.voter.live().all(|i| ready(&self.lanes[i]))
    }

    /// Updates the buffered-bytes high-water mark.
    fn note_buffered(&mut self) {
        let win = self.input.len;
        // Each buffer within its own cap, not only their sum.
        debug_assert!(win <= TRANSFER);
        debug_assert!(self
            .lanes
            .iter()
            .all(|l| l.out.len() <= TRANSFER && l.err.len() <= CHUNK));
        let lanes: usize = self.lanes.iter().map(|l| l.out.len() + l.err.len()).sum();
        self.peak_buffered = self.peak_buffered.max(lanes + win);
        debug_assert!(self.peak_buffered <= (2 * self.lanes.len() + 1) * TRANSFER);
    }

    /// Whether the caller should supply the next input window: not yet
    /// EOF, and every replica still taking input has caught up with the
    /// current window (keeping the window, and thus memory, bounded).
    #[must_use]
    pub fn wants_input(&self) -> bool {
        if self.input.eof {
            return false;
        }
        let end = self.input.end();
        let mut feeding = self.lanes.iter().filter(|l| !l.input_done).peekable();
        feeding.peek().is_some() && feeding.all(|l| l.in_pos >= end)
    }

    /// Slides the input window forward by one `read` from `src`, straight
    /// into the window's storage (≤ one transfer unit — the window is the
    /// per-stream input memory bound; it starts at one chunk and doubles
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
        if consumed == win.buf.len() && consumed < TRANSFER {
            let grown = (consumed * 2).clamp(CHUNK, TRANSFER);
            win.buf.resize(grown, 0);
        }
        let n = src.read(&mut win.buf)?;
        win.len = n;
        win.eof = n == 0;
        self.note_buffered();
        Ok(n)
    }

    /// Marks the broadcast input as ended; replicas see EOF on their stdin
    /// once they drain what remains.
    pub fn accept_input_eof(&mut self) {
        self.input.base += self.input.len as u64;
        self.input.len = 0;
        self.input.eof = true;
    }

    /// The window bytes replica `i` has not taken yet; `None` once it takes
    /// no more input (the caller closes its stdin, so it sees EOF).
    #[must_use]
    pub fn pending_input(&self, i: usize) -> Option<&[u8]> {
        let lane = &self.lanes[i];
        let window = &self.input.buf[..self.input.len];
        (!lane.input_done).then(|| &window[(lane.in_pos - self.input.base) as usize..])
    }

    /// Records that replica `i` took the first `n` bytes of its
    /// [`pending_input`](Self::pending_input).
    pub fn input_written(&mut self, i: usize, n: usize) {
        self.lanes[i].in_pos += n as u64;
    }

    /// Replica `i` takes no more input (its stdin broke).
    pub fn input_closed(&mut self, i: usize) {
        self.lanes[i].input_done = true;
    }

    /// Retires the replicas that have taken all of an ended input.
    pub fn close_finished_inputs(&mut self) {
        if self.input.eof {
            let end = self.input.end();
            for lane in self.lanes.iter_mut().filter(|l| l.in_pos >= end) {
                lane.input_done = true;
            }
        }
    }

    /// Whether replica `i`'s stdout is worth reading: it is live and its
    /// buffer has room. A full buffer is the barrier's backpressure: left
    /// unread, the kernel pipe throttles the replica while slower siblings
    /// catch up or the caller is not pumping.
    #[must_use]
    pub fn out_room(&self, i: usize) -> bool {
        self.voter.is_alive(i) && self.lanes[i].out.has_room(TRANSFER)
    }

    /// Storage for the next read of replica `i`'s stdout, as far ahead of
    /// the vote as one transfer unit; empty while
    /// [`out_room`](Self::out_room) is false.
    pub fn out_spare(&mut self, i: usize) -> &mut [u8] {
        self.lanes[i].out.spare(CHUNK, TRANSFER)
    }

    /// Records that a read put `n` bytes into
    /// [`out_spare`](Self::out_spare)`(i)`.
    pub fn out_filled(&mut self, i: usize, n: usize) {
        self.lanes[i].out.filled(n);
        self.note_buffered();
    }

    /// Replica `i`'s stdout ended (EOF or a read error).
    pub fn out_ended(&mut self, i: usize) {
        self.lanes[i].eof = true;
    }

    /// Takes bytes replica `i` wrote to stderr: the first ≤ chunk are its
    /// stderr ballot (the same chunk discipline as stdout voting), the rest
    /// are counted and dropped.
    pub fn err_read(&mut self, i: usize, bytes: &[u8]) {
        let lane = &mut self.lanes[i];
        let keep = CHUNK.saturating_sub(lane.err.len()).min(bytes.len());
        lane.err.extend_from_slice(&bytes[..keep]);
        lane.err_dropped += (bytes.len() - keep) as u64;
        self.note_buffered();
    }

    /// Removes replica `i` from the vote: it died before voting.
    pub fn kill(&mut self, i: usize) {
        self.voter.kill(i);
        self.settle_kills();
    }

    /// Frees what the voter's new victims had buffered and records the
    /// barrier of each kill.
    fn settle_kills(&mut self) {
        for &i in &self.voter.killed()[self.killed_at.len()..] {
            let lane = &mut self.lanes[i];
            (lane.out, lane.eof, lane.input_done) = (RunAhead::default(), true, true);
            self.killed_at.push(self.barriers);
        }
    }

    /// Ends the stream where it stands: a divergence, or the caller
    /// abandoned it. No replica takes input any more.
    pub fn abort(&mut self) {
        self.drained = true;
        for lane in &mut self.lanes {
            lane.input_done = true;
        }
    }

    /// Resolves barriers that are already satisfied — one ≤ chunk ballot
    /// at a time over the replicas' buffers, several in a row when they ran
    /// ahead or all streams have ended — appending quorum bytes to `out`
    /// and killing outvoted replicas (read them from
    /// [`killed`](Self::killed)), until no barrier is satisfied or `budget`
    /// bytes have been appended (so at most `budget − 1 + chunk` are: the
    /// caller's room, checked between chunks). The caller applies
    /// backpressure through the budget, or by *not* calling this while its
    /// own output buffer is full — unvoted bytes fill the buffers and full
    /// buffers stop being read.
    ///
    /// Also retires the input of replicas that have taken all of it.
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
            let lanes = &self.lanes;
            match self.voter.vote_by(|i| lanes[i].ballot()) {
                ChunkVote::Commit(winner) => {
                    let bytes = lanes[winner].ballot().expect("a committed ballot");
                    out.extend_from_slice(bytes);
                    let n = bytes.len();
                    self.committed += n as u64;
                    appended += n;
                    self.settle_kills();
                    // Every survivor cast exactly these bytes.
                    for i in self.voter.live() {
                        self.lanes[i].out.consume(n);
                    }
                    self.barriers += 1;
                }
                ChunkVote::Divergence => {
                    self.diverged = true;
                    self.abort();
                }
                ChunkVote::AllDone => {
                    self.settle_kills();
                    self.drained = true;
                }
            }
        }
        self.close_finished_inputs();
        if self.drained {
            Phase::Drained
        } else {
            Phase::Streaming
        }
    }

    /// The closing ballots, once every replica has exited. `codes[i]` is
    /// replica `i`'s exit status, `None` when a signal ended it: signal
    /// deaths are crashes and leave the live set (§5.2 "when a replica
    /// dies, DieHard decrements the number of currently live replicas").
    /// Then the stderr captures are voted, then the exit statuses.
    pub fn finalize(&mut self, codes: &[Option<i32>]) -> StreamOutcome {
        for (i, code) in codes.iter().enumerate() {
            if code.is_none() {
                self.voter.kill(i);
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
            let lanes = &self.lanes;
            let vote = self.voter.vote_by(|i| Some(lanes[i].err.as_slice()));
            diverged = vote == ChunkVote::Divergence;
        }
        // Final ballot: the exit status itself. A command that legitimately
        // exits nonzero in every replica (grep with no matches) agrees with
        // itself and its status is forwarded, not treated as a crash.
        let mut exit_code = None;
        if !diverged && self.voter.live_count() > 0 {
            let ballots: Vec<[u8; 4]> =
                codes.iter().map(|c| c.unwrap_or(0).to_le_bytes()).collect();
            match self.voter.vote_by(|i| Some(&ballots[i][..])) {
                ChunkVote::Commit(winner) => exit_code = codes[winner],
                ChunkVote::Divergence => diverged = true,
                ChunkVote::AllDone => {}
            }
        }
        self.settle_kills();
        // Forward the winning replica's captured stderr: after the stderr
        // ballot, every member of the surviving quorum carries the *agreed*
        // diagnostics (the lowest live index is deterministic). A diverged
        // or fully-crashed run has no winner and forwards nothing.
        let (stderr, stderr_dropped) = match self.voter.live().next() {
            Some(i) if !diverged => {
                let lane = &mut self.lanes[i];
                (std::mem::take(&mut lane.err), lane.err_dropped)
            }
            _ => (Vec::new(), 0),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_commit() {
        let mut v = Voter::new(3);
        let out = v.vote(&[Some(b"abc"), Some(b"abc"), Some(b"abc")]);
        assert_eq!(out, ChunkVote::Commit(0));
        assert_eq!(v.live_count(), 3);
    }

    #[test]
    fn majority_kills_minority() {
        let mut v = Voter::new(3);
        let out = v.vote(&[Some(b"abc"), Some(b"xyz"), Some(b"abc")]);
        assert_eq!(out, ChunkVote::Commit(0));
        assert_eq!(v.live_count(), 2);
        assert_eq!(v.killed(), [1]);
    }

    #[test]
    fn all_disagree_is_divergence() {
        let mut v = Voter::new(3);
        let out = v.vote(&[Some(b"a"), Some(b"b"), Some(b"c")]);
        assert_eq!(out, ChunkVote::Divergence);
    }

    #[test]
    fn killed_replicas_do_not_vote() {
        let mut v = Voter::new(3);
        v.kill(0);
        // Remaining two agree: commit. (Two replicas suffice, §5.2.)
        let out = v.vote(&[Some(b"junk"), Some(b"ok"), Some(b"ok")]);
        assert_eq!(out, ChunkVote::Commit(1));
    }

    #[test]
    fn two_survivors_disagreeing_is_divergence() {
        let mut v = Voter::new(3);
        v.kill(2);
        let out = v.vote(&[Some(b"a"), Some(b"b"), Some(b"ignored")]);
        assert_eq!(out, ChunkVote::Divergence);
    }

    #[test]
    fn lone_survivor_passes_through() {
        let mut v = Voter::new(3);
        v.kill(0);
        v.kill(1);
        let out = v.vote(&[None, None, Some(b"solo")]);
        assert_eq!(out, ChunkVote::Commit(2));
    }

    #[test]
    fn ended_streams_terminate_cleanly() {
        let mut v = Voter::new(3);
        assert_eq!(v.vote(&[None, None, None]), ChunkVote::AllDone);
    }

    #[test]
    fn short_stream_outvoted_by_longer_majority() {
        // Two replicas still produce data; one ended early: the enders
        // lose 2-1 and are killed.
        let mut v = Voter::new(3);
        let out = v.vote(&[Some(b"more"), Some(b"more"), None]);
        assert_eq!(out, ChunkVote::Commit(0));
        assert_eq!(v.killed(), [2]);
    }

    #[test]
    fn two_two_tie_is_divergence() {
        // Four replicas split 2-2: no strict plurality, so committing
        // either group would be arbitrary. Nobody is killed — the run
        // terminates on the reported divergence.
        let mut v = Voter::new(4);
        let out = v.vote(&[Some(b"aa"), Some(b"bb"), Some(b"aa"), Some(b"bb")]);
        assert_eq!(out, ChunkVote::Divergence);
        assert_eq!(v.live_count(), 4);
    }

    #[test]
    fn two_two_one_tie_is_divergence() {
        let mut v = Voter::new(5);
        let out = v.vote(&[
            Some(b"aa"),
            Some(b"bb"),
            Some(b"aa"),
            Some(b"bb"),
            Some(b"cc"),
        ]);
        assert_eq!(out, ChunkVote::Divergence);
        assert_eq!(v.live_count(), 5);
    }

    #[test]
    fn three_two_strict_plurality_commits() {
        let mut v = Voter::new(5);
        let out = v.vote(&[
            Some(b"aa"),
            Some(b"bb"),
            Some(b"aa"),
            Some(b"bb"),
            Some(b"aa"),
        ]);
        assert_eq!(out, ChunkVote::Commit(0));
        assert_eq!(v.killed(), [1, 3]);
    }

    #[test]
    fn first_of_equal_groups_commits_under_ties_first() {
        let mut v = Voter::with_ties(5, Ties::First);
        let out = v.vote(&[
            Some(b"bb"),
            Some(b"aa"),
            Some(b"aa"),
            Some(b"bb"),
            Some(b"cc"),
        ]);
        assert_eq!(out, ChunkVote::Commit(0));
        assert_eq!(v.killed(), [1, 2, 4]);
        // No two agree is a divergence under either rule.
        let mut v = Voter::with_ties(3, Ties::First);
        assert_eq!(
            v.vote(&[Some(b"a"), Some(b"b"), Some(b"c")]),
            ChunkVote::Divergence
        );
    }

    #[test]
    fn double_kill_is_idempotent() {
        let mut v = Voter::new(3);
        v.kill(1);
        v.kill(1);
        assert_eq!(v.killed(), [1]);
        assert_eq!(v.live_count(), 2);
    }

    use diehard_core::rng::Mwc;

    impl VoteCore {
        /// The window's storage, then each replica's stdout storage and
        /// stderr capture.
        pub(crate) fn storage(&self) -> (&Vec<u8>, impl Iterator<Item = (&Vec<u8>, &Vec<u8>)>) {
            (
                &self.input.buf,
                self.lanes.iter().map(|l| (&l.out.buf, &l.err)),
            )
        }
    }

    /// Drives a [`RunAhead`] the way a session does — reads of arbitrary
    /// length into `spare`, whole-chunk consumes while a chunk is there —
    /// against a plain queue, for small chunk/limit shapes that keep the
    /// invariant the core's `(CHUNK, TRANSFER)` is asserted to keep (limit
    /// = chunk, or a multiple of two chunks), the last at its 1 : 16 ratio.
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

    /// How a scripted replica ends.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum End {
        /// Its stdout ends and it exits with this status.
        Exit(i32),
        /// A signal kills it once its stdout is out: a crash.
        Crash,
        /// It writes its stdout and then neither ends it nor exits.
        Hang,
    }

    /// What one replica will do, whatever the schedule.
    #[derive(Debug, Clone)]
    struct Script {
        out: Vec<u8>,
        err: Vec<u8>,
        end: End,
    }

    /// What a vote decided: committed bytes, `(replica, barrier)` per kill
    /// in kill order, divergence, the agreed exit status and stderr.
    type Verdict = (Vec<u8>, Vec<(usize, usize)>, bool, Option<i32>, Vec<u8>);

    /// The reference: `ReplicaSet`'s whole-output vote as it stood before
    /// both voters shared [`VoteCore`] — finished outputs cut into chunks,
    /// each chunk index voted over the live replicas by grouping equal
    /// chunks and committing the largest group — with the tie rule made a
    /// parameter, then the closing ballots: crashes leave the live set,
    /// stderr captures (the first ≤ [`CHUNK`] bytes) and exit statuses are
    /// voted by the same grouping. A divergence SIGKILLs every live
    /// replica, so each of them then counts as a crash.
    fn reference(scripts: &[Script], ties: Ties) -> Verdict {
        let mut live: Vec<usize> = (0..scripts.len()).collect();
        let mut killed = Vec::new();
        let mut committed = Vec::new();
        // Groups `live` by `key` and returns the winning key, or `None` on
        // a divergence; losers are killed at barrier `at`.
        let vote = |live: &mut Vec<usize>,
                    killed: &mut Vec<(usize, usize)>,
                    key: &dyn Fn(usize) -> Option<Vec<u8>>,
                    at: usize| {
            let mut groups: Vec<(Vec<usize>, Option<Vec<u8>>)> = Vec::new();
            for &i in live.iter() {
                let k = key(i);
                match groups.iter_mut().find(|(_, g)| *g == k) {
                    Some((members, _)) => members.push(i),
                    None => groups.push((vec![i], k)),
                }
            }
            groups.sort_by_key(|(members, _)| core::cmp::Reverse(members.len()));
            let tied = groups.len() > 1 && groups[1].0.len() == groups[0].0.len();
            if live.len() > 1 && (groups[0].0.len() < 2 || (tied && ties == Ties::Diverge)) {
                return None;
            }
            let (winners, key) = groups.swap_remove(0);
            for &i in live.iter().filter(|i| !winners.contains(i)) {
                killed.push((i, at));
            }
            *live = winners;
            Some(key)
        };
        let mut diverged = false;
        for k in 0.. {
            if live.is_empty() {
                break;
            }
            let chunk_of = |i: usize| scripts[i].out.chunks(CHUNK).nth(k).map(<[u8]>::to_vec);
            match vote(&mut live, &mut killed, &chunk_of, k) {
                Some(Some(bytes)) => committed.extend_from_slice(&bytes),
                Some(None) => break,
                None => {
                    diverged = true;
                    break;
                }
            }
        }
        let barriers = committed.len().div_ceil(CHUNK);
        let codes: Vec<Option<i32>> = scripts
            .iter()
            .map(|s| match s.end {
                End::Exit(code) if !diverged => Some(code),
                _ => None,
            })
            .collect();
        for &i in live.iter().filter(|&&i| codes[i].is_none()) {
            killed.push((i, barriers));
        }
        live.retain(|&i| codes[i].is_some());
        let mut exit_code = None;
        let mut stderr = Vec::new();
        if !diverged && !live.is_empty() {
            let capture =
                |i: usize| Some(scripts[i].err[..scripts[i].err.len().min(CHUNK)].to_vec());
            diverged = vote(&mut live, &mut killed, &capture, barriers).is_none();
        }
        if !diverged && !live.is_empty() {
            let status = |i: usize| codes[i].map(|c| c.to_le_bytes().to_vec());
            match vote(&mut live, &mut killed, &status, barriers) {
                Some(_) => {
                    exit_code = codes[live[0]];
                    let err = &scripts[live[0]].err;
                    stderr = err[..err.len().min(CHUNK)].to_vec();
                }
                None => diverged = true,
            }
        }
        (committed, killed, diverged, exit_code, stderr)
    }

    /// A `Read` that hands out at most `step` bytes a call.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A read size: mostly up to two chunks, now and then up to a transfer.
    fn read_size(rng: &mut Mwc) -> usize {
        let cap = if rng.chance(0.2) { TRANSFER } else { 2 * CHUNK };
        1 + rng.below(cap)
    }

    /// Drives a [`VoteCore`] through `scripts` under a seeded schedule the
    /// way an edge would — stdout and stderr reads of random sizes in any
    /// replica order, input refills and partial writes, pumps with random
    /// budgets — and checks the invariants each step. Returns the verdict,
    /// or `None` when a replica hangs (after checking that the stream
    /// stopped at the hung replica's last full barrier).
    fn drive(scripts: &[Script], input: &[u8], ties: Ties, seed: u64) -> Option<Verdict> {
        let n = scripts.len();
        let mut rng = Mwc::seeded(seed);
        let mut core = VoteCore::new(Voter::with_ties(n, ties));
        let mut source = Trickle {
            data: input,
            step: 0,
        };
        let (mut out_pos, mut err_pos) = (vec![0; n], vec![0; n]);
        let mut committed = Vec::new();
        let total: usize = scripts
            .iter()
            .map(|s| s.out.len() + s.err.len())
            .sum::<usize>()
            + input.len();
        let bound = 8 * (total + 8 * n + 8);
        for step in 0.. {
            assert!(step < bound, "no progress after {step} steps");
            // What an edge could do now; a pump is always possible.
            let mut moves = vec![None];
            for i in (0..n).filter(|&i| core.voter.is_alive(i)) {
                let s = &scripts[i];
                if (core.out_room(i) && out_pos[i] < s.out.len())
                    || (out_pos[i] == s.out.len() && s.end != End::Hang && !core.lanes[i].eof)
                {
                    moves.push(Some((0, i)));
                }
                if err_pos[i] < s.err.len() {
                    moves.push(Some((1, i)));
                }
                if core.pending_input(i).is_some_and(|p| !p.is_empty()) {
                    moves.push(Some((2, i)));
                }
            }
            if core.wants_input() {
                moves.push(Some((3, 0)));
            }
            match moves[rng.below(moves.len())] {
                None => {
                    let alone = moves.len() == 1;
                    let budget = if alone || rng.chance(0.5) {
                        usize::MAX
                    } else {
                        1 + rng.below(3 * CHUNK)
                    };
                    let before = committed.len();
                    if core.pump(&mut committed, budget) == Phase::Drained {
                        break;
                    }
                    assert!(
                        !core.barrier_ready() || committed.len() - before >= budget,
                        "a satisfied barrier was left"
                    );
                    if alone && committed.len() == before {
                        // Nothing else can happen: only a hung replica
                        // leaves a stream here.
                        let hung =
                            (0..n).find(|&i| scripts[i].end == End::Hang && core.voter.is_alive(i));
                        let hung = hung.expect("a stuck stream has a hung replica");
                        let full = scripts[hung].out.len() / CHUNK * CHUNK;
                        assert!(
                            committed.len() <= full,
                            "committed past the hung replica's last full barrier"
                        );
                        assert!(!core.barrier_ready());
                        return None;
                    }
                }
                Some((0, i)) => {
                    let s = &scripts[i].out[out_pos[i]..];
                    if s.is_empty() {
                        core.out_ended(i);
                        core.input_closed(i); // it exits: its stdin breaks
                        continue;
                    }
                    let spare = core.out_spare(i);
                    let k = spare.len().min(s.len()).min(read_size(&mut rng));
                    spare[..k].copy_from_slice(&s[..k]);
                    core.out_filled(i, k);
                    out_pos[i] += k;
                }
                Some((1, i)) => {
                    let s = &scripts[i].err[err_pos[i]..];
                    let k = s.len().min(read_size(&mut rng));
                    core.err_read(i, &s[..k]);
                    err_pos[i] += k;
                }
                Some((2, i)) => {
                    let k = 1 + rng.below(core.pending_input(i).map_or(0, <[u8]>::len));
                    core.input_written(i, k);
                }
                Some((_, _)) => {
                    source.step = read_size(&mut rng);
                    core.fill_input(&mut source).expect("in-memory read");
                }
            }
            assert!(core.peak_buffered <= (2 * n + 1) * TRANSFER);
        }
        // The edge reaps: what stderr is left arrives first; the losers
        // and, after a divergence, everyone were SIGKILLed.
        let live: Vec<usize> = core.voter.live().collect();
        for i in live {
            core.err_read(i, &scripts[i].err[err_pos[i]..]);
        }
        let codes: Vec<Option<i32>> = (0..n)
            .map(|i| match scripts[i].end {
                End::Exit(code) if core.voter.is_alive(i) && !core.diverged => Some(code),
                _ => None,
            })
            .collect();
        let outcome = core.finalize(&codes);
        assert_eq!(outcome.committed, committed.len() as u64);
        assert!(outcome.peak_buffered <= (2 * n + 1) * TRANSFER);
        let kills = core
            .killed()
            .iter()
            .copied()
            .zip(core.killed_at().iter().copied());
        Some((
            committed,
            kills.collect(),
            outcome.diverged,
            outcome.exit_code,
            outcome.stderr,
        ))
    }

    /// A random script set: a shared output, each replica perhaps
    /// corrupting one byte of it, cutting it short (a crash at any barrier
    /// or mid-chunk), hanging, flooding stderr past the cap or exiting with
    /// its own status.
    fn scripts(rng: &mut Mwc, n: usize) -> Vec<Script> {
        let len = match rng.below(4) {
            0 => rng.below(3 * CHUNK),
            1 => rng.below(3 * TRANSFER),
            _ => rng.below(12) * CHUNK, // on a barrier
        };
        let mut truth = vec![0u8; len];
        rng.fill_bytes(&mut truth);
        let err: Vec<u8> = if rng.chance(0.3) {
            vec![b'!'; CHUNK + rng.below(3 * CHUNK)]
        } else {
            b"warn\n".to_vec()
        };
        let hung = if rng.chance(0.2) {
            Some(rng.below(n))
        } else {
            None
        };
        (0..n)
            .map(|i| {
                let mut s = Script {
                    out: truth.clone(),
                    err: err.clone(),
                    end: End::Exit(0),
                };
                if hung == Some(i) {
                    // Half of them never write a byte.
                    s.out.truncate(if rng.chance(0.5) {
                        0
                    } else {
                        rng.below(len + 1)
                    });
                    s.end = End::Hang;
                    return s;
                }
                if hung.is_some() {
                    return s;
                }
                if rng.chance(0.3) && len > 0 {
                    s.out[rng.below(len)] ^= 1 + rng.below(255) as u8;
                }
                if rng.chance(0.2) {
                    let barriers = len.div_ceil(CHUNK);
                    let cut = if rng.chance(0.5) {
                        rng.below(barriers + 1) * CHUNK
                    } else {
                        rng.below(len + 1)
                    };
                    s.out.truncate(cut);
                    s.end = End::Crash;
                }
                if rng.chance(0.15) {
                    s.end = End::Exit(rng.below(2) as i32);
                }
                if rng.chance(0.1) {
                    s.err.push(b'?');
                }
                s
            })
            .collect()
    }

    /// The core under every schedule agrees with the whole-output vote it
    /// replaced, under both tie rules, for 1, 3, 4 and 5 replicas; hung
    /// replicas stall it at their last full barrier and nothing else does.
    #[test]
    fn core_matches_the_whole_output_vote_under_any_schedule() {
        let mut rng = Mwc::seeded(0x5EED_C0DE);
        let mut hung = 0;
        for n in [1, 3, 4, 5] {
            for case in 0..24 {
                let scripts = scripts(&mut rng, n);
                let mut input = vec![0u8; rng.below(3 * TRANSFER)];
                rng.fill_bytes(&mut input);
                for ties in [Ties::Diverge, Ties::First] {
                    let seed = rng.next_u64();
                    match drive(&scripts, &input, ties, seed) {
                        Some(got) => assert_eq!(
                            got,
                            reference(&scripts, ties),
                            "{n} replicas, case {case}, {ties:?}"
                        ),
                        None => hung += 1,
                    }
                }
            }
        }
        assert!(hung > 0, "some script must hang");
    }

    /// Every barrier index a crash can land on, for three replicas with one
    /// crashing: the crash is outvoted at that barrier, or at the end when
    /// it falls on the last one.
    #[test]
    fn a_crash_at_every_barrier_is_outvoted_there() {
        let truth: Vec<u8> = (0..6 * CHUNK).map(|b| b as u8).collect();
        for barrier in 0..=6 {
            let mut scripts = vec![
                Script {
                    out: truth.clone(),
                    err: Vec::new(),
                    end: End::Exit(0)
                };
                3
            ];
            scripts[1].out.truncate(barrier * CHUNK);
            scripts[1].end = End::Crash;
            for seed in 0..4 {
                let got = drive(&scripts, b"", Ties::Diverge, seed).expect("terminates");
                assert_eq!(got, reference(&scripts, Ties::Diverge));
                assert_eq!(got.0, truth);
                assert_eq!(got.1, [(1, barrier)]);
            }
        }
    }
}
