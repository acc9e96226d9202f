//! Program output streams.
//!
//! Replicated DieHard votes on program output in 4 KB chunks ("the unit of
//! transfer of a pipe", §5.2). [`Output`] models a program's standard
//! output: executors append the bytes that reads produce, and the voter
//! compares outputs chunk by chunk, at the launcher's barrier
//! ([`diehard_replicate::CHUNK`]).

use diehard_replicate::CHUNK;

/// FNV-1a 64-bit hash, used to fingerprint long reads compactly.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A program's observable output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Output {
    bytes: Vec<u8>,
}

impl Output {
    /// An empty output stream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes (something the program printed).
    pub fn push(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends the observable result of reading `data`: a short raw prefix
    /// (so uninitialized garbage propagates verbatim, as §3.2 requires)
    /// plus a hash covering the whole read.
    pub fn push_read(&mut self, data: &[u8]) {
        let prefix = data.len().min(32);
        self.bytes.extend_from_slice(&data[..prefix]);
        self.bytes.extend_from_slice(&fnv1a(data).to_le_bytes());
    }

    /// Total output length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when the program produced no output.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw output bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A stable fingerprint of the whole stream.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }

    /// The output split into voting chunks; the final chunk may be short.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.bytes.chunks(CHUNK)
    }

    /// Number of voting chunks.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.bytes.len().div_ceil(CHUNK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn push_read_includes_prefix_and_hash() {
        let mut o = Output::new();
        o.push_read(b"hello");
        assert_eq!(o.len(), 5 + 8);
        assert_eq!(&o.as_bytes()[..5], b"hello");
    }

    #[test]
    fn long_reads_capped_prefix() {
        let mut o = Output::new();
        let data = vec![7u8; 1000];
        o.push_read(&data);
        assert_eq!(o.len(), 32 + 8);
    }

    #[test]
    fn different_data_different_output() {
        let mut a = Output::new();
        let mut b = Output::new();
        // Same 32-byte prefix, difference beyond it: the hash still catches it.
        let mut da = vec![1u8; 64];
        let db = vec![1u8; 64];
        da[50] = 2;
        a.push_read(&da);
        b.push_read(&db);
        assert_ne!(a, b);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn chunking() {
        let mut o = Output::new();
        o.push(&vec![0u8; CHUNK + 100]);
        assert_eq!(o.chunk_count(), 2);
        let chunks: Vec<&[u8]> = o.chunks().collect();
        assert_eq!(chunks[0].len(), CHUNK);
        assert_eq!(chunks[1].len(), 100);
    }

    #[test]
    fn empty_output() {
        let o = Output::new();
        assert!(o.is_empty());
        assert_eq!(o.chunk_count(), 0);
    }
}
