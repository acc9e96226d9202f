//! §4.2 / §3.1 expectations: allocation probe counts and object separation.
//!
//! * "The fact that the heap can only become 1/M full bounds the expected
//!   time to search for an unused slot to 1/(1 − 1/M). For example, for
//!   M = 2, the expected number of probes is two."
//! * "By placing objects uniformly at random across the heap, we get a
//!   minimum expected separation of E[minimum separation] = M − 1 objects."
//!
//! Run: `cargo run --release -p diehard-bench --bin probes`

use diehard_bench::TextTable;
use diehard_core::analysis::{expected_min_separation, expected_probes_at_cap};
use diehard_core::partition::Partition;
use diehard_core::rng::{splitmix, Mwc};
use diehard_core::size_class::SizeClass;

const CAPACITY: usize = 1 << 14;
const STEADY_OPS: usize = 200_000;

/// Measures steady-state probes/alloc with the region held at its cap, and
/// the mean free gap between live neighbours.
fn measure(m: f64, rng: &mut Mwc) -> (f64, f64) {
    let threshold = (CAPACITY as f64 / m) as usize;
    let part = Partition::new(
        SizeClass::from_index(0),
        CAPACITY,
        threshold,
        splitmix(rng.next_u64()),
    );
    let mut victim_rng = rng.split();
    let mut live = Vec::with_capacity(threshold);
    while let Some(idx) = part.alloc() {
        live.push(idx);
    }
    // Steady state at the cap: free one, allocate one.
    let (a0, p0) = part.probe_stats();
    for _ in 0..diehard_bench::smoke_scaled(STEADY_OPS, 20_000) {
        let victim = live.swap_remove(victim_rng.below(live.len()));
        part.free(victim);
        live.push(part.alloc().expect("slot just freed"));
    }
    let (a1, p1) = part.probe_stats();
    let probes = (p1 - p0) as f64 / (a1 - a0) as f64;
    let gap = part.mean_live_gap().expect("many live objects");
    (probes, gap)
}

fn main() {
    println!("§4.2 / §3.1 — Expected probes per allocation and object separation\n");
    let mut table = TextTable::new(vec![
        "M",
        "E[probes] = 1/(1-1/M)",
        "measured probes",
        "E[min separation] = M-1",
        "measured mean gap",
    ]);
    let mut rng = Mwc::seeded(0x9806E5);
    for &m in &[4.0 / 3.0, 2.0, 4.0, 8.0] {
        let (probes, gap) = measure(m, &mut rng);
        table.row(vec![
            format!("{m:.2}"),
            format!("{:.3}", expected_probes_at_cap(m)),
            format!("{probes:.3}"),
            format!("{:.3}", expected_min_separation(m)),
            format!("{gap:.3}"),
        ]);
    }
    println!("{}", table.render());
    println!("Paper anchor: M = 2 ⇒ expected probes = 2; expected separation = 1 object.");
}
