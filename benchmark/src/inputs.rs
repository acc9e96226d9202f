//! Seeded inputs. Everything a host, a pipeline or a proxy is fed comes
//! from here and is a pure function of `--seed`: the same seed gives the
//! same bytes (pinned by `tests/inputs.rs`), so two runs of the benchmark
//! measure the same work, and a run on a new seed is a genuinely different
//! instance of the same workload.
//!
//! The generator is the benchmark's own (SplitMix64), not
//! `diehard_core::rng`: inputs must not change when a later PR touches the
//! allocator's random stream.

use std::io::{self, Write};

/// SplitMix64: small, fast, and good enough to draw sizes, words and gaps.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; distinct `stream` tags give independent
    /// streams from one benchmark seed (corpus, payload, schedule …).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0) by multiply-shift; the bias is below
    /// `n / 2^64`, irrelevant for workload shaping.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// FNV-1a, 64 bit: the hash that pins inputs and compares job outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hash of one byte string.
    #[must_use]
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.update(bytes);
        h.0
    }
}

/// Stream tags: one per kind of input, so they never share random bits.
pub mod stream {
    /// The text corpus.
    pub const CORPUS: u64 = 1;
    /// Proxy request payloads.
    pub const PAYLOAD: u64 = 2;
    /// The open-loop arrival schedule.
    pub const SCHEDULE: u64 = 3;
    /// Per-round `DIEHARD_SEED`s.
    pub const HEAP_SEED: u64 = 4;
    /// The `churn-host` allocation trace.
    pub const CHURN: u64 = 5;
    /// The ledger's 64 ring sizes.
    pub const LEDGER_RING: u64 = 6;
}

/// What the coreutils jobs must print for a generated corpus, computed
/// while the corpus is written — so every job is checked against ground
/// truth, not only against the glibc run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusFacts {
    /// Bytes written.
    pub bytes: u64,
    /// Lines written.
    pub lines: u64,
    /// FNV-1a of the whole corpus (the input pin).
    pub hash: u64,
    /// Wrapping sum of every line's FNV-1a: order-independent, so a
    /// correct `sort` output has the same sum.
    pub line_hash_sum: u64,
    /// Lines containing `x` — what `tr a-z A-Z | grep -c X` prints.
    pub lines_with_x: u64,
    /// Lines in the head file (the first `head_lines` of the corpus).
    pub head_lines: u64,
    /// Distinct first words in the head file — what
    /// `awk '{a[$1]=$2} END{print length(a)}'` prints for it.
    pub head_first_words: u64,
}

const VOCABULARY: usize = 60_000;

/// Writes a seeded text corpus of at least `min_bytes` to `out`, and its
/// first `head_lines` lines to `head` as well: lines of 3–12 lowercase
/// words drawn from a vocabulary of 60 000 distinct words (so `awk`'s
/// first-field table has tens of thousands of keys and `sort` sees many
/// shared prefixes).
///
/// # Errors
///
/// Propagates write failures.
pub fn write_corpus(
    seed: u64,
    min_bytes: u64,
    head_lines: u64,
    out: &mut dyn Write,
    head: &mut dyn Write,
) -> io::Result<CorpusFacts> {
    let mut rng = Rng::new(seed, stream::CORPUS);
    // Word `i` is a 4-letter code unique to `i` plus 0–6 random letters:
    // distinct by construction, so "distinct first words" is a count of
    // indices, and the vocabulary packs into one small buffer.
    let mut letters: Vec<u8> = Vec::with_capacity(VOCABULARY * 7);
    let mut starts: Vec<u32> = Vec::with_capacity(VOCABULARY + 1);
    let scatter = rng.below(26u64.pow(4));
    for i in 0..VOCABULARY as u64 {
        starts.push(letters.len() as u32);
        // 100 003 is coprime to 26^4, so this is a bijection on codes.
        let mut code = (i * 100_003 + scatter) % 26u64.pow(4);
        for _ in 0..4 {
            letters.push(b'a' + (code % 26) as u8);
            code /= 26;
        }
        for _ in 0..rng.below(7) {
            letters.push(b'a' + rng.below(26) as u8);
        }
    }
    starts.push(letters.len() as u32);
    let word = |i: usize| &letters[starts[i] as usize..starts[i + 1] as usize];
    let mut first_word_seen = vec![false; VOCABULARY];
    let mut facts = CorpusFacts {
        bytes: 0,
        lines: 0,
        hash: 0,
        line_hash_sum: 0,
        lines_with_x: 0,
        head_lines: 0,
        head_first_words: 0,
    };
    let mut whole = Fnv::default();
    let mut line: Vec<u8> = Vec::with_capacity(160);
    while facts.bytes < min_bytes {
        line.clear();
        for i in 0..rng.range(3, 12) {
            let index = rng.below(VOCABULARY as u64) as usize;
            if i > 0 {
                line.push(b' ');
            } else if facts.lines < head_lines && !first_word_seen[index] {
                first_word_seen[index] = true;
                facts.head_first_words += 1;
            }
            line.extend_from_slice(word(index));
        }
        facts.line_hash_sum = facts.line_hash_sum.wrapping_add(Fnv::of(&line));
        facts.lines_with_x += u64::from(line.contains(&b'x'));
        line.push(b'\n');
        whole.update(&line);
        out.write_all(&line)?;
        if facts.lines < head_lines {
            head.write_all(&line)?;
            facts.head_lines += 1;
        }
        facts.bytes += line.len() as u64;
        facts.lines += 1;
    }
    facts.hash = whole.0;
    Ok(facts)
}

/// `len` seeded pseudo-random bytes (proxy payloads and stream blocks).
#[must_use]
pub fn payload(seed: u64, index: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(
        seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        stream::PAYLOAD,
    );
    let mut bytes = Vec::with_capacity(len + 8);
    while bytes.len() < len {
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    bytes.truncate(len);
    bytes
}

/// Due times, in seconds from the start of the phase, of `count` arrivals
/// of a Poisson process at `rate_per_s`: independent users, so the gaps are
/// exponential and do not depend on how fast the system answers.
#[must_use]
pub fn open_loop_schedule(seed: u64, count: usize, rate_per_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, stream::SCHEDULE);
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += -rng.unit().ln() / rate_per_s;
            at
        })
        .collect()
}

/// The `DIEHARD_SEED` for one round: derived from the benchmark seed, never
/// zero, different every round so placement varies as it would in service.
#[must_use]
pub fn heap_seed(seed: u64, round: u64) -> u64 {
    Rng::new(
        seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F),
        stream::HEAP_SEED,
    )
    .next_u64()
        | 1
}
