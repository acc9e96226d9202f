//! The C ABI held to glibc's contract. `abi/driver.c` runs one seeded
//! script over all 15 exports and prints one line per op of facts that do
//! not depend on the allocator (the driver's header lists them). glibc's
//! own answers are the oracle: its transcript must equal `libdiehard.so`'s
//! under every knob setting and every `DIEHARD_SEED`. The ops where §4.3
//! and §4.4 answer otherwise than glibc run under `libdiehard.so` only,
//! each checked by the driver against DieHard's answer.
//!
//! The driver is compiled with `cc` when the test runs (a skip line where
//! there is none), and the library is the release build [`library::path`]
//! makes.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

mod library;

/// Script seeds: each gives one transcript.
const SEEDS: [u32; 4] = [1, 2, 3, 4];

/// The knob settings each seed runs under: the default, the fixed heap, a
/// wider `M`, and five values the heap cannot be built with (a region that
/// is not a power of two, is zero or is past the largest; an `M` that
/// leaves no room for one 16 KiB object), which leave the knob at its
/// default.
const KNOBS: [&[(&str, &str)]; 8] = [
    &[],
    &[("DIEHARD_GROW", "0")],
    &[("DIEHARD_M", "4")],
    &[("DIEHARD_REGION_MB", "48")],
    &[("DIEHARD_REGION_MB", "0")],
    &[("DIEHARD_REGION_MB", "16384")],
    &[("DIEHARD_M", "100000")],
    &[("DIEHARD_M", "0")],
];

/// The compiled driver, or `None` after a skip line when there is no `cc`.
fn driver() -> Option<&'static PathBuf> {
    static BUILT: OnceLock<Option<PathBuf>> = OnceLock::new();
    BUILT
        .get_or_init(|| {
            let exe = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("abi_driver");
            let src = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/abi/driver.c");
            let flags = ["-O2", "-fno-builtin", "-pthread", "-w", "-o"];
            let Ok(built) = Command::new("cc").args(flags).arg(&exe).arg(src).status() else {
                eprintln!("skipping: no `cc` on this machine");
                return None;
            };
            assert!(built.success(), "cc {src}");
            Some(exe)
        })
        .as_ref()
}

/// What the driver prints for `args`: on glibc, or under the library with
/// `env` set. It must exit 0.
fn transcript(args: &[&str], env: Option<&[(&str, &str)]>) -> String {
    let mut cmd = Command::new(driver().expect("a compiled driver"));
    cmd.args(args).env_clear();
    if let Some(env) = env {
        cmd.env("LD_PRELOAD", library::path())
            .envs(env.iter().copied());
    }
    let out = cmd.output().expect("run the driver");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        out.status.success(),
        "{args:?} {env:?}: {} after {last:?}",
        out.status
    );
    stdout
}

/// Panics at the first line where `got` (libdiehard.so's, on the left)
/// leaves `want` (glibc's).
fn assert_same(want: &str, got: &str, what: &str) {
    let (mut want, mut got) = (want.lines(), got.lines());
    for line in 1.. {
        let (w, g) = (want.next(), got.next());
        assert_eq!(g, w, "{what}: line {line}");
        if w.is_none() {
            return;
        }
    }
}

/// Every seed under every knob setting, each run with a `DIEHARD_SEED` of
/// its own: the transcript is glibc's, so it does not move with the seed.
#[test]
fn the_script_reads_as_on_glibc() {
    if driver().is_none() {
        return;
    }
    for seed in SEEDS {
        let args = ["script", &seed.to_string()];
        let want = transcript(&args, None);
        for (i, knobs) in KNOBS.into_iter().enumerate() {
            let heap_seed = (seed * 10 + i as u32).to_string();
            let mut env = knobs.to_vec();
            env.push(("DIEHARD_SEED", &heap_seed));
            let what = format!("seed {seed}, {env:?}");
            assert_same(&want, &transcript(&args, Some(&env)), &what);
        }
    }
}

/// 110 000 large pairs beside 1 000 live blocks end within the driver's
/// deadline, with glibc's transcript: a large-object table that runs out
/// of empty slots spins instead.
#[test]
fn the_long_mode_meets_its_deadline() {
    if driver().is_none() {
        return;
    }
    let want = transcript(&["long", "1"], None);
    assert_same(&want, &transcript(&["long", "1"], Some(&[])), "long mode");
}

/// The ops glibc answers otherwise each get DieHard's answer (the driver
/// exits 1 on any other), whatever `DIEHARD_SEED` says.
#[test]
fn the_diehard_only_ops_answer_as_diehard_does() {
    if driver().is_none() {
        return;
    }
    let want = transcript(&["diehard"], Some(&[("DIEHARD_SEED", "1")]));
    assert!(want.contains("4 097th live large object is null, ENOMEM: ok"));
    let again = transcript(&["diehard"], Some(&[("DIEHARD_SEED", "2")]));
    assert_eq!(again, want, "the answers moved with DIEHARD_SEED");
}
