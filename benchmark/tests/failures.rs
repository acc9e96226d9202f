//! Failure accounting is tested, not assumed: each way an operation can go
//! wrong raises the failed count by exactly one attempt, and a failed
//! connection stays in the latency sample.
//!
//! These tests drive the shipped artifacts: run `cargo build --release` at
//! the repo root first (or `benchmark/run.sh`, which builds everything into
//! one target directory).

use diehard_benchmark::artifacts::{Artifacts, Heap};
use diehard_benchmark::churn::{self, Model, Params};
use diehard_benchmark::inputs::payload;
use diehard_benchmark::jobs::{Ctx, Pairs};
use diehard_benchmark::proxy::{
    echo_once, ConnError, HalfClose, ProxyChild, ProxyFlags, BLOCK, CONN_TIME_LIMIT,
};
use diehard_benchmark::report::Tally;
use diehard_benchmark::trace::Tracer;
use diehard_benchmark::workloads::churn_host::run_host;
use diehard_benchmark::workloads::proxy_bulk_stream::stream_side;
use std::path::{Path, PathBuf};

fn artifacts() -> Artifacts {
    // Beside this test binary (`<target>/release/deps/..`) when `run.sh`
    // built everything into one target directory; otherwise where the root
    // workspace's own release build puts them.
    let exe = std::env::current_exe().unwrap();
    let shared = exe.parent().and_then(Path::parent).map(Path::to_path_buf);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/release");
    let dir = shared
        .into_iter()
        .chain([root])
        .find(|dir| dir.join("libdiehard.so").is_file())
        .expect("libdiehard.so not built: run `cargo build --release` at the repo root")
        .canonicalize()
        .unwrap();
    Artifacts {
        preload: dir.join("libdiehard.so"),
        launcher: dir.join("diehard"),
        proxy: dir.join("diehard-proxy"),
        churn_host: PathBuf::from(env!("CARGO_BIN_EXE_churn-host")),
    }
}

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn an_exhausted_allocator_is_one_failed_job() {
    let art = artifacts();
    let tracer = Tracer::new(false);
    let out = out_dir("exhausted");
    let ctx = Ctx {
        art: &art,
        tracer: &tracer,
        out_dir: &out,
        seed: 1,
        seconds: 1.0,
    };
    let mut tally = Tally::default();

    // A sane job first: one attempt, no failure.
    let sane = Params {
        seed: 1,
        ops: 1_000,
        live: 1_000,
    };
    let expected = churn::replay(sane, &mut Model).unwrap();
    let (_, _, ok) = run_host(&ctx, sane, expected, Heap::DieHard { seed: 7 }, 0).unwrap();
    tally.record(ok);
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 0
        }
    );

    // Three million live objects outgrow the default 32 MB regions and then
    // the kernel's mapping limit: malloc returns null, the host exits 3.
    let oversized = Params {
        seed: 1,
        ops: 1,
        live: 3_000_000,
    };
    let expected = churn::replay(oversized, &mut Model).unwrap();
    let (wall, _, ok) = run_host(&ctx, oversized, expected, Heap::DieHard { seed: 7 }, 0).unwrap();
    tally.record(ok);
    assert!(!ok && wall > 0.0);
    assert_eq!(
        tally,
        Tally {
            attempted: 2,
            failed: 1
        }
    );

    // A wrong checksum is a failure too, even with exit status 0.
    let mut wrong = churn::replay(sane, &mut Model).unwrap();
    wrong.checksum ^= 1;
    let (_, _, ok) = run_host(&ctx, sane, wrong, Heap::Glibc, 0).unwrap();
    tally.record(ok);
    assert_eq!(
        tally,
        Tally {
            attempted: 3,
            failed: 2
        }
    );
}

/// One connection to a proxy replicating `command`; the verdict and how it
/// was classified.
fn one_connection(command: &[&str]) -> Result<(), ConnError> {
    let art = artifacts();
    let proxy = ProxyChild::start(
        &art,
        ProxyFlags {
            replicas: 3,
            pool: 0,
            preload: false,
            seed: 1,
            command,
        },
    )
    .unwrap();
    let verdict = echo_once(
        proxy.port,
        &payload(1, 0, 4096),
        HalfClose::WithRequest,
        &Tracer::new(false),
        0,
    );
    proxy.stop().unwrap();
    verdict.map(drop)
}

#[test]
fn a_target_that_exits_nonzero_is_one_failed_connection() {
    let mut tally = Tally::default();
    tally.record(one_connection(&["cat"]).is_ok());
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 0
        }
    );
    let verdict = one_connection(&["sh", "-c", "exit 3"]);
    tally.record(verdict.is_ok());
    assert!(
        matches!(
            verdict,
            Err(ConnError::WrongEcho {
                got: 0,
                wanted: 4096
            })
        ),
        "{verdict:?}"
    );
    assert_eq!(
        tally,
        Tally {
            attempted: 2,
            failed: 1
        }
    );
}

#[test]
fn a_corrupted_echo_is_one_failed_connection() {
    let mut tally = Tally::default();
    // Every replica agrees on the corrupted bytes, so the vote passes them
    // on: only the client's own comparison can catch it.
    let verdict = one_connection(&["tr", "\\000-\\377", "x"]);
    tally.record(verdict.is_ok());
    assert!(
        matches!(
            verdict,
            Err(ConnError::WrongEcho {
                got: 4096,
                wanted: 4096
            })
        ),
        "{verdict:?}"
    );
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 1
        }
    );
}

#[test]
fn a_stream_that_dies_before_its_midpoint_is_charged_the_limit_not_its_wall() {
    let art = artifacts();
    let tracer = Tracer::new(false);
    let out = out_dir("stream");
    let ctx = Ctx {
        art: &art,
        tracer: &tracer,
        out_dir: &out,
        seed: 1,
        seconds: 1.0,
    };
    let start = |command: &[&str]| {
        ProxyChild::start(
            &art,
            ProxyFlags {
                replicas: 3,
                pool: 0,
                preload: false,
                seed: 1,
                command,
            },
        )
        .unwrap()
    };
    // Three agreeing `head`s return the first MiB and exit: the voted
    // stream ends, cleanly and quickly, seven blocks short and before the
    // midpoint where memory is sampled.
    let truncating = start(&["head", "-c", "1048576"]);
    let healthy = start(&["cat"]);
    let base = payload(1, 0, BLOCK);
    let mut pairs = Pairs::new(CONN_TIME_LIMIT, Tally::default());
    for protected in [&truncating, &healthy] {
        stream_side(&ctx, protected, true, &base, 8, 0, &mut pairs);
        stream_side(&ctx, &healthy, false, &base, 8, 0, &mut pairs);
    }
    truncating.stop().unwrap();
    healthy.stop().unwrap();

    assert_eq!(
        pairs.tally,
        Tally {
            attempted: 4,
            failed: 1
        }
    );
    // Not dropped, and not at the few milliseconds it took to fail.
    assert_eq!(pairs.protected_s.len(), 2);
    assert_eq!(pairs.protected_s[0], CONN_TIME_LIMIT.as_secs_f64());
    assert!(pairs.protected_s[1] < CONN_TIME_LIMIT.as_secs_f64());
    // No memory sample from the failed stream; the ratio comes from the
    // round in which both sides succeeded and stays a finite number.
    assert_eq!(pairs.protected_rss[0], None);
    assert!(pairs.protected_rss[1].is_some_and(|kb| kb > 0.0));
    assert!(pairs.rss_ratio().is_finite() && pairs.rss_ratio() > 0.0);
    assert!(pairs.overhead_ratio() > 1.0 && pairs.overhead_ratio().is_finite());
}
