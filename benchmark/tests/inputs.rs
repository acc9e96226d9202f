//! The same `--seed` reproduces byte-identical inputs, pinned on two seeds.

use diehard_benchmark::churn::{replay, Model, Params};
use diehard_benchmark::inputs::{heap_seed, open_loop_schedule, payload, write_corpus, Fnv};

fn corpus(seed: u64) -> (Vec<u8>, Vec<u8>, diehard_benchmark::inputs::CorpusFacts) {
    let (mut whole, mut head) = (Vec::new(), Vec::new());
    let facts = write_corpus(seed, 200_000, 1_000, &mut whole, &mut head).unwrap();
    (whole, head, facts)
}

#[test]
fn corpus_is_a_pure_function_of_the_seed() {
    for seed in [1, 2] {
        let (a, a_head, a_facts) = corpus(seed);
        let (b, b_head, b_facts) = corpus(seed);
        assert_eq!(a, b);
        assert_eq!(a_head, b_head);
        assert_eq!(a_facts, b_facts);
    }
    assert_ne!(corpus(1).0, corpus(2).0);
}

#[test]
fn corpus_facts_are_true_of_the_corpus() {
    let (whole, head, facts) = corpus(7);
    assert_eq!(facts.bytes, whole.len() as u64);
    assert_eq!(facts.hash, Fnv::of(&whole));
    let lines: Vec<&[u8]> = whole
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(facts.lines, lines.len() as u64);
    assert_eq!(
        facts.lines_with_x,
        lines.iter().filter(|l| l.contains(&b'x')).count() as u64
    );
    assert_eq!(
        facts.line_hash_sum,
        lines
            .iter()
            .fold(0u64, |sum, l| sum.wrapping_add(Fnv::of(l)))
    );
    assert_eq!(facts.head_lines, 1_000);
    assert!(whole.starts_with(&head));
    let first_words: std::collections::BTreeSet<&[u8]> = head
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| l.split(|&b| b == b' ').next().unwrap())
        .collect();
    assert_eq!(facts.head_first_words, first_words.len() as u64);
}

#[test]
fn pinned_hashes_for_two_seeds() {
    // Any change to a generator changes what every workload measures;
    // these pins make that a deliberate act.
    let pins: [(u64, u64, u64, u64, u64, u64); 2] = [
        (
            1,
            PIN_CORPUS_1,
            PIN_PAYLOAD_1,
            PIN_SCHEDULE_1,
            PIN_HEAP_SEED_1,
            PIN_CHURN_1,
        ),
        (
            2,
            PIN_CORPUS_2,
            PIN_PAYLOAD_2,
            PIN_SCHEDULE_2,
            PIN_HEAP_SEED_2,
            PIN_CHURN_2,
        ),
    ];
    for (seed, corpus_hash, payload_hash, schedule_hash, heap, churn) in pins {
        assert_eq!(corpus(seed).2.hash, corpus_hash, "corpus, seed {seed}");
        assert_eq!(
            Fnv::of(&payload(seed, 3, 4096)),
            payload_hash,
            "payload, seed {seed}"
        );
        let schedule = open_loop_schedule(seed, 100, 25.0);
        let bits: Vec<u8> = schedule
            .iter()
            .flat_map(|t| t.to_bits().to_le_bytes())
            .collect();
        assert_eq!(Fnv::of(&bits), schedule_hash, "schedule, seed {seed}");
        assert_eq!(heap_seed(seed, 5), heap, "heap seed, seed {seed}");
        let summary = replay(
            Params {
                seed,
                ops: 10_000,
                live: 1_000,
            },
            &mut Model,
        )
        .unwrap();
        assert_eq!(summary.checksum, churn, "churn trace, seed {seed}");
    }
}

const PIN_CORPUS_1: u64 = 0xfd6a3d00cf5a544b;
const PIN_PAYLOAD_1: u64 = 0xc96ae32d7a9cd0a3;
const PIN_SCHEDULE_1: u64 = 0x1640b4fa22650656;
const PIN_HEAP_SEED_1: u64 = 0xf81bd4bb1aff126b;
const PIN_CHURN_1: u64 = 0x37449ead0379b402;
const PIN_CORPUS_2: u64 = 0x654148e30f5ec594;
const PIN_PAYLOAD_2: u64 = 0x82a0365da8849a4e;
const PIN_SCHEDULE_2: u64 = 0xe008fc22990e9e78;
const PIN_HEAP_SEED_2: u64 = 0x37cd81d8134461f7;
const PIN_CHURN_2: u64 = 0xabfdf1edb2c1ade4;

#[test]
fn schedule_is_increasing_at_about_the_asked_rate() {
    let due = open_loop_schedule(9, 5_000, 25.0);
    assert!(due.windows(2).all(|w| w[0] < w[1]));
    let rate = due.len() as f64 / due.last().unwrap();
    assert!((rate - 25.0).abs() < 1.5, "empirical rate {rate}");
}
