//! Allocation-profile-driven workload generation.
//!
//! The paper evaluates on real C programs; what the evaluation *measures*,
//! though, is allocator behaviour, which is a function of each program's
//! allocation profile: how often it allocates, what sizes, how long objects
//! live, and how much non-allocation work dilutes the allocator's cost.
//! [`Profile`] captures those dimensions and [`Profile::generate`] expands
//! one deterministically into a [`Program`].
//!
//! The two benchmark families:
//!
//! * **Allocation-intensive** (cfrac, espresso, lindsay, p2c, roboop) —
//!   "perform between 100,000 and 1,700,000 memory operations per second"
//!   (§7.1): tiny compute per memory op.
//! * **General-purpose** (SPECint2000-like) — allocator cost diluted by
//!   application work; `253.perlbmk` "spend\[s\] around 12.5% of its
//!   execution doing memory operations" and `300.twolf` "uses a wide range
//!   of object sizes" (§7.2.1).

use diehard_core::rng::Mwc;
use diehard_runtime::ops::{Op, Program};

/// An object-size distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Uniform over `[lo, hi]`.
    Uniform(usize, usize),
    /// Weighted choice among `(size, weight)` pairs.
    Choice(Vec<(usize, f64)>),
    /// Geometric-ish spread over powers of two in `[lo, hi]` — the
    /// "wide range of object sizes" shape (twolf).
    PowersOfTwo(usize, usize),
}

impl SizeDist {
    fn sample(&self, rng: &mut Mwc) -> usize {
        match self {
            SizeDist::Uniform(lo, hi) => lo + rng.below(hi - lo + 1),
            SizeDist::Choice(pairs) => {
                let total: f64 = pairs.iter().map(|(_, w)| w).sum();
                let mut x = rng.next_f64() * total;
                for (size, w) in pairs {
                    if x < *w {
                        return *size;
                    }
                    x -= w;
                }
                pairs.last().expect("non-empty choice").0
            }
            SizeDist::PowersOfTwo(lo, hi) => {
                let lo_log = lo.next_power_of_two().trailing_zeros();
                let hi_log = hi.next_power_of_two().trailing_zeros();
                let exp = lo_log + rng.below((hi_log - lo_log + 1) as usize) as u32;
                // Scatter within the class to avoid perfectly uniform sizes.
                let base = 1usize << exp;
                (base / 2 + 1 + rng.below(base / 2)).max(*lo)
            }
        }
    }
}

/// A benchmark's allocation profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name (matches the paper's figures).
    pub name: &'static str,
    /// Number of allocations at scale 1.0.
    pub allocations: usize,
    /// Object-size distribution.
    pub sizes: SizeDist,
    /// Mean object lifetime, in allocations. Lifetimes are sampled
    /// geometrically around this mean.
    pub mean_lifetime: usize,
    /// Compute units executed between memory operations: ~0 for the
    /// allocation-intensive suite, large for SPEC-style programs.
    pub compute_per_op: u32,
    /// Fraction of allocations that are also read back (producing output).
    pub read_fraction: f64,
    /// Whether the program contains a genuine uninitialized read (lindsay
    /// does, §7.2.3: "lindsay ... has an uninitialized read error that
    /// DieHard detects and terminates").
    pub uninit_read_bug: bool,
}

impl Profile {
    /// Expands the profile into a deterministic program.
    ///
    /// `scale` multiplies the allocation count (benches use small scales
    /// for iteration speed); `seed` fixes the op stream.
    #[must_use]
    pub fn generate(&self, scale: f64, seed: u64) -> Program {
        let n = ((self.allocations as f64 * scale) as usize).max(16);
        let mut rng = Mwc::seeded(seed ^ 0xB16_B00B5);
        let mut ops: Vec<Op> = Vec::with_capacity(n * 4);
        // (death_time, id) min-heap via sorted insertion into a Vec —
        // deterministic and fast enough for generation.
        let mut deaths: std::collections::BinaryHeap<core::cmp::Reverse<(usize, u32)>> =
            std::collections::BinaryHeap::new();
        let mut live: Vec<(u32, usize)> = Vec::new();

        // A handful of long-lived "global" structures, written once.
        for g in 0..4u32 {
            let id = u32::MAX - g;
            ops.push(Op::Alloc { id, size: 1024 });
            ops.push(Op::Write {
                id,
                offset: 0,
                len: 1024,
                seed: 0xEE,
            });
            live.push((id, 1024));
        }

        let mut uninit_done = !self.uninit_read_bug;
        for i in 0..n {
            let id = i as u32;
            let size = self.sizes.sample(&mut rng);
            ops.push(Op::Alloc { id, size });
            // Initialize most of the object (capped write cost).
            let init_len = size.min(256);
            ops.push(Op::Write {
                id,
                offset: 0,
                len: init_len,
                seed: (i % 251) as u8,
            });
            live.push((id, init_len));

            // lindsay's bug: one read of memory that was never written,
            // planted mid-run.
            if !uninit_done && i >= n / 2 && size >= 264 {
                ops.push(Op::Read {
                    id,
                    offset: 256,
                    len: 8,
                });
                uninit_done = true;
            }

            if self.compute_per_op > 0 {
                ops.push(Op::Compute {
                    units: self.compute_per_op,
                });
            }
            if rng.chance(self.read_fraction) && !live.is_empty() {
                // Read back initialized bytes only: clean workloads contain
                // no out-of-bounds or uninitialized reads by construction.
                let (target, written) = live[rng.below(live.len())];
                ops.push(Op::Read {
                    id: target,
                    offset: 0,
                    len: written.min(16),
                });
            }

            // Schedule this object's death: geometric around mean_lifetime.
            let lifetime = Self::geometric(&mut rng, self.mean_lifetime);
            deaths.push(core::cmp::Reverse((i + lifetime, id)));

            // Reap everything scheduled to die by now.
            while let Some(&core::cmp::Reverse((t, dead))) = deaths.peek() {
                if t > i {
                    break;
                }
                deaths.pop();
                ops.push(Op::Free { id: dead });
                ops.push(Op::Forget { id: dead });
                live.retain(|&(x, _)| x != dead);
            }
        }
        // Programs exit without freeing the stragglers (like real ones).
        Program::new(self.name, ops)
    }

    /// Geometric sample with the given mean (at least 1).
    fn geometric(rng: &mut Mwc, mean: usize) -> usize {
        if mean <= 1 {
            return 1;
        }
        let p = 1.0 / mean as f64;
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        ((u.ln() / (1.0 - p).ln()).ceil() as usize).clamp(1, mean * 20)
    }
}

/// The five allocation-intensive benchmarks of Figure 5 (§7.1).
#[must_use]
pub fn alloc_intensive_suite() -> Vec<Profile> {
    vec![
        // cfrac: continued-fraction factoring; tiny bignum limbs allocated
        // and freed at an extreme rate.
        Profile {
            name: "cfrac",
            allocations: 30_000,
            sizes: SizeDist::Choice(vec![(8, 0.3), (16, 0.4), (24, 0.2), (40, 0.1)]),
            mean_lifetime: 8,
            compute_per_op: 2,
            read_fraction: 0.4,
            uninit_read_bug: false,
        },
        // espresso: logic minimizer; varied small-to-medium cube sets with
        // phase-like lifetimes.
        Profile {
            name: "espresso",
            allocations: 24_000,
            sizes: SizeDist::Choice(vec![
                (16, 0.25),
                (40, 0.25),
                (112, 0.2),
                (280, 0.15),
                (512, 0.15),
            ]),
            mean_lifetime: 40,
            compute_per_op: 4,
            read_fraction: 0.35,
            uninit_read_bug: false,
        },
        // lindsay: hypercube simulator — carries a real uninitialized read.
        Profile {
            name: "lindsay",
            allocations: 20_000,
            sizes: SizeDist::Uniform(24, 600),
            mean_lifetime: 60,
            compute_per_op: 3,
            read_fraction: 0.3,
            uninit_read_bug: true,
        },
        // p2c: translator; strings and AST nodes, longer-lived.
        Profile {
            name: "p2c",
            allocations: 18_000,
            sizes: SizeDist::Choice(vec![(24, 0.3), (64, 0.3), (128, 0.2), (256, 0.2)]),
            mean_lifetime: 150,
            compute_per_op: 5,
            read_fraction: 0.3,
            uninit_read_bug: false,
        },
        // roboop: robotics matrices; rhythmic small-matrix churn.
        Profile {
            name: "roboop",
            allocations: 26_000,
            sizes: SizeDist::Choice(vec![(48, 0.4), (96, 0.3), (192, 0.3)]),
            mean_lifetime: 4,
            compute_per_op: 3,
            read_fraction: 0.45,
            uninit_read_bug: false,
        },
    ]
}

/// The SPECint2000-like general-purpose profiles (§7.2.1). Allocator cost
/// is diluted by heavy per-op compute; `253.perlbmk` is the
/// allocation-intensive outlier and `300.twolf` the wide-size-range one.
#[must_use]
pub fn spec_suite() -> Vec<Profile> {
    let mk = |name, allocations, sizes, mean_lifetime, compute_per_op, read_fraction| Profile {
        name,
        allocations,
        sizes,
        mean_lifetime,
        compute_per_op,
        read_fraction,
        uninit_read_bug: false,
    };
    vec![
        mk(
            "164.gzip",
            600,
            SizeDist::Choice(vec![(4096, 0.5), (16_384, 0.3), (65_536, 0.2)]),
            400,
            2000,
            0.2,
        ),
        mk("175.vpr", 3_000, SizeDist::Uniform(16, 512), 800, 400, 0.25),
        mk(
            "176.gcc",
            9_000,
            SizeDist::PowersOfTwo(16, 4096),
            300,
            150,
            0.25,
        ),
        mk(
            "181.mcf",
            400,
            SizeDist::Choice(vec![(40, 0.5), (16_384, 0.25), (131_072, 0.25)]),
            350,
            3000,
            0.2,
        ),
        mk(
            "186.crafty",
            300,
            SizeDist::Uniform(64, 2048),
            280,
            4000,
            0.2,
        ),
        mk(
            "197.parser",
            12_000,
            SizeDist::Choice(vec![(16, 0.5), (40, 0.3), (120, 0.2)]),
            60,
            120,
            0.3,
        ),
        mk("252.eon", 8_000, SizeDist::Uniform(24, 320), 100, 180, 0.3),
        mk(
            "253.perlbmk",
            20_000,
            SizeDist::Choice(vec![(16, 0.3), (32, 0.3), (64, 0.2), (520, 0.2)]),
            90,
            25,
            0.3,
        ),
        mk(
            "254.gap",
            700,
            SizeDist::Choice(vec![(32, 0.4), (8192, 0.3), (65_536, 0.3)]),
            500,
            2500,
            0.2,
        ),
        mk(
            "255.vortex",
            7_000,
            SizeDist::Uniform(40, 800),
            250,
            200,
            0.3,
        ),
        mk(
            "256.bzip2",
            350,
            SizeDist::Choice(vec![(16_384, 0.4), (65_536, 0.4), (262_144, 0.2)]),
            300,
            3500,
            0.2,
        ),
        // twolf: "uses a wide range of object sizes", spreading accesses
        // across many size-class partitions.
        mk(
            "300.twolf",
            10_000,
            SizeDist::PowersOfTwo(8, 16_384),
            200,
            80,
            0.3,
        ),
    ]
}

/// Looks up a profile by name across both suites.
#[must_use]
pub fn profile_by_name(name: &str) -> Option<Profile> {
    alloc_intensive_suite()
        .into_iter()
        .chain(spec_suite())
        .find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diehard_core::config::HeapConfig;
    use diehard_runtime::{oracle_output, run_program, verdict, ExecOptions, System, Verdict};
    use diehard_sim::DieHardSimHeap;

    #[test]
    fn generation_is_deterministic() {
        let p = &alloc_intensive_suite()[0];
        assert_eq!(p.generate(0.05, 1), p.generate(0.05, 1));
        assert_ne!(p.generate(0.05, 1), p.generate(0.05, 2));
    }

    #[test]
    fn scale_controls_alloc_count() {
        let p = &alloc_intensive_suite()[1];
        let small = p.generate(0.01, 1);
        let big = p.generate(0.1, 1);
        assert!(big.alloc_count() > small.alloc_count() * 5);
    }

    #[test]
    fn all_profiles_run_correctly_on_diehard_and_libc() {
        for p in alloc_intensive_suite().iter().chain(&spec_suite()) {
            if p.uninit_read_bug {
                continue; // lindsay handled separately
            }
            let prog = p.generate(0.01, 7);
            let oracle = oracle_output(&prog);
            let mut dh = DieHardSimHeap::new(HeapConfig::default(), 3).unwrap();
            let out = run_program(&mut dh, &prog, &ExecOptions::default());
            assert_eq!(
                verdict(&out, &oracle),
                Verdict::Correct,
                "{} on diehard",
                p.name
            );
            assert_eq!(
                System::Libc.evaluate(&prog),
                Verdict::Correct,
                "{} on libc",
                p.name
            );
        }
    }

    #[test]
    fn lifetimes_follow_the_profile() {
        // cfrac's objects die fast; p2c's live long.
        let suites = alloc_intensive_suite();
        let cfrac = suites[0].generate(0.05, 3);
        let p2c = suites[3].generate(0.05, 3);
        let mean_life = |prog: &Program| {
            let log = diehard_inject_stub::trace(prog);
            let (mut sum, mut n) = (0u64, 0u64);
            for r in log {
                if let Some(f) = r.1 {
                    sum += f - r.0;
                    n += 1;
                }
            }
            sum as f64 / n.max(1) as f64
        };
        assert!(mean_life(&cfrac) * 4.0 < mean_life(&p2c));
    }

    /// Minimal local tracer (the real one lives in diehard-inject; kept
    /// separate to avoid a dependency cycle).
    mod diehard_inject_stub {
        use diehard_runtime::ops::{Op, Program};
        pub fn trace(p: &Program) -> Vec<(u64, Option<u64>)> {
            let mut clock = 0u64;
            let mut at: std::collections::HashMap<u32, usize> = Default::default();
            let mut recs: Vec<(u64, Option<u64>)> = Vec::new();
            for op in &p.ops {
                match op {
                    Op::Alloc { id, .. } => {
                        at.insert(*id, recs.len());
                        recs.push((clock, None));
                        clock += 1;
                    }
                    Op::Free { id } => {
                        if let Some(&i) = at.get(id) {
                            if recs[i].1.is_none() {
                                recs[i].1 = Some(clock);
                            }
                        }
                    }
                    _ => {}
                }
            }
            recs
        }
    }

    #[test]
    fn alloc_intensity_contrast() {
        // The defining difference between the suites: memory ops per
        // compute unit.
        let cfrac = &alloc_intensive_suite()[0];
        let gzip = &spec_suite()[0];
        assert!(cfrac.compute_per_op * 100 < gzip.compute_per_op);
    }

    #[test]
    fn lindsay_has_the_uninit_bug_and_is_detected_by_replicas() {
        let lindsay = profile_by_name("lindsay").unwrap();
        let prog = lindsay.generate(0.02, 11);
        let set = diehard_runtime::ReplicaSet::new(3, 5, HeapConfig::default());
        let run = set.run(&prog);
        assert!(
            matches!(
                run.outcome,
                diehard_runtime::ReplicatedOutcome::Divergence { .. }
            ),
            "lindsay's uninit read must be detected, got {:?}",
            run.outcome
        );
    }

    #[test]
    fn profile_lookup() {
        assert!(profile_by_name("espresso").is_some());
        assert!(profile_by_name("300.twolf").is_some());
        assert!(profile_by_name("nope").is_none());
    }

    #[test]
    fn size_dists_sample_within_bounds() {
        let mut rng = Mwc::seeded(1);
        for _ in 0..1000 {
            let u = SizeDist::Uniform(10, 20).sample(&mut rng);
            assert!((10..=20).contains(&u));
            let p = SizeDist::PowersOfTwo(8, 1024).sample(&mut rng);
            assert!((8..=1024).contains(&p), "got {p}");
            let c = SizeDist::Choice(vec![(8, 1.0), (16, 1.0)]).sample(&mut rng);
            assert!(c == 8 || c == 16);
        }
    }
}
