//! The chunk voter (§5.2), isolated from process plumbing for testability.
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
//! resolves one barrier per ≤ chunk bytes, so anything allocated here is
//! allocated a quarter of a million times per gigabyte.

/// Result of voting on one round of chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkVote {
    /// A quorum (≥ 2, or the lone survivor) agreed; commit the ballot of
    /// this replica — the lowest-indexed member of the winning group.
    Commit(usize),
    /// No two live replicas agreed: terminate (detected divergence).
    Divergence,
    /// Every live replica has ended its stream.
    AllDone,
}

/// Tracks live replicas across voting rounds and kills disagreeing ones.
///
/// **Ties.** A quorum is a *strict* plurality of at least two: four
/// replicas split 2–2 (or five 2–2–1) are a [`ChunkVote::Divergence`], and
/// nobody is killed. The in-process voter (`diehard_runtime::replicas::
/// ReplicaSet`) commits the first of two equal groups instead — Theorem 3's
/// model, where only "no two agree" is a detection — so the two voters
/// disagree on ties (ROADMAP B(v)).
#[derive(Debug, Clone)]
pub struct Voter {
    alive: Vec<bool>,
    killed: Vec<usize>,
    /// Scratch for one round: `(first member, size)` of each group of equal
    /// live ballots, in first-appearance order.
    groups: Vec<(usize, usize)>,
}

impl Voter {
    /// A voter over `n` replicas, all initially live.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            alive: vec![true; n],
            killed: Vec::new(),
            groups: Vec::with_capacity(n),
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
        // The largest group wins, the earliest among equals (which then
        // ties and diverges below). A lone survivor is a group of one that
        // passes through (stand-alone degenerate case).
        let mut winner = self.groups[0];
        for &group in &self.groups[1..] {
            if group.1 > winner.1 {
                winner = group;
            }
        }
        let (first, size) = winner;
        if live > 1 {
            // A quorum must be a *strict* plurality: on a tie (2-2 with
            // four replicas, 2-2-1 with five) no group is distinguishable
            // from the others, so committing either would be arbitrary —
            // report the divergence instead of guessing.
            let tied = self.groups.iter().filter(|g| g.1 == size).count() > 1;
            if size < 2 || tied {
                return ChunkVote::Divergence;
            }
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
    fn double_kill_is_idempotent() {
        let mut v = Voter::new(3);
        v.kill(1);
        v.kill(1);
        assert_eq!(v.killed(), [1]);
        assert_eq!(v.live_count(), 2);
    }
}
