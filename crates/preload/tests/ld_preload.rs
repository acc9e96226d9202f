//! End-to-end `LD_PRELOAD` tests: run *real, unmodified system binaries*
//! with `libdiehard.so` interposed and check their output is untouched.
//!
//! The cdylib is not a Cargo test artifact, so there is no
//! `CARGO_BIN_EXE_*`-style env var for it; it is located relative to this
//! test binary (`target/<profile>/deps/ld_preload-*` → `target/<profile>/
//! libdiehard.so`). When the library has not been built in this profile
//! the tests skip with a notice instead of failing — CI builds it
//! explicitly first.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `target/<profile>/libdiehard.so`, if it has been built.
fn preload_path() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let profile_dir = exe.parent()?.parent()?; // strip deps/<test-bin>
    let so = profile_dir.join("libdiehard.so");
    so.exists().then_some(so)
}

/// Runs `cmd` with the interposer preloaded and `input` on stdin,
/// returning (stdout, success).
fn run_preloaded(so: &PathBuf, cmd: &[&str], input: &str, seed: Option<&str>) -> (String, bool) {
    let mut command = Command::new(cmd[0]);
    command
        .args(&cmd[1..])
        .env("LD_PRELOAD", so)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(seed) = seed {
        command.env("DIEHARD_SEED", seed);
    }
    let mut child = command.spawn().expect("spawn preloaded binary");
    use std::io::Write;
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("feed stdin");
    let out = child.wait_with_output().expect("collect output");
    assert!(
        out.stderr.is_empty(),
        "stderr from {:?}: {}",
        cmd,
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

macro_rules! require_so {
    () => {
        match preload_path() {
            Some(so) => so,
            None => {
                eprintln!("skipping: libdiehard.so not built in this profile");
                return;
            }
        }
    };
}

#[test]
fn cat_round_trips_bytes() {
    let so = require_so!();
    let input = "hello from the randomized heap\nsecond line\n";
    let (out, ok) = run_preloaded(&so, &["cat"], input, None);
    assert!(ok);
    assert_eq!(out, input);
}

#[test]
fn tr_transforms_text() {
    let so = require_so!();
    let (out, ok) = run_preloaded(&so, &["tr", "a-z", "A-Z"], "vote on me\n", Some("42"));
    assert!(ok);
    assert_eq!(out, "VOTE ON ME\n");
}

#[test]
fn shell_pipeline_survives_fork_and_exec() {
    let so = require_so!();
    // `sh -c` forks and execs children; LD_PRELOAD and the atfork hooks
    // ride along into every process of the pipeline.
    let (out, ok) = run_preloaded(
        &so,
        &["sh", "-c", "echo abc | tr a-z A-Z; echo done"],
        "",
        None,
    );
    assert!(ok);
    assert_eq!(out, "ABC\ndone\n");
}

#[test]
fn sort_handles_allocation_heavy_input() {
    let so = require_so!();
    // sort(1) slurps everything through malloc/realloc before sorting —
    // a denser allocation workload than cat/tr.
    let input: String = (0..3000).rev().map(|i| format!("{i}\n")).collect();
    let (out, ok) = run_preloaded(&so, &["sort", "-n"], &input, Some("1234"));
    assert!(ok);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3000);
    assert_eq!(lines[0], "0");
    assert_eq!(lines[2999], "2999");
}

#[test]
fn distinct_seeds_still_produce_identical_output() {
    let so = require_so!();
    // The whole point of replication: different randomized layouts, same
    // observable behavior for a correct program.
    let input = "determinism survives randomization\n";
    let (a, ok_a) = run_preloaded(&so, &["tr", "a-z", "A-Z"], input, Some("1"));
    let (b, ok_b) = run_preloaded(&so, &["tr", "a-z", "A-Z"], input, Some("99"));
    assert!(ok_a && ok_b);
    assert_eq!(a, b);
}

/// A preloaded host maps the interposer and nothing it would not have mapped
/// anyway: where the build found the static unwinder (`build.rs`), no
/// `libgcc_s` — which no coreutils host loads on its own, and which cost
/// every `exec` more than the interposer's own start-up did.
#[test]
fn preloaded_host_maps_no_libgcc_s() {
    let so = require_so!();
    let (maps, ok) = run_preloaded(&so, &["cat", "/proc/self/maps"], "", None);
    assert!(ok);
    assert!(maps.contains("libdiehard.so"), "the interposer is mapped");
    if option_env!("STATIC_UNWINDER").is_none() {
        eprintln!("skipping: this toolchain has no libgcc_eh.a to link statically");
        return;
    }
    assert!(!maps.contains("libgcc_s"), "libgcc_s is mapped:\n{maps}");
}

/// The library exports the C allocation ABI and nothing else. In particular
/// no `_Unwind_*`: with the unwinder linked statically, exporting it would
/// interpose every C++ host's exception handling with ours.
#[test]
fn exports_are_the_allocation_abi_only() {
    let so = require_so!();
    let Ok(nm) = Command::new("nm")
        .args(["-D", "--defined-only"])
        .arg(&so)
        .output()
    else {
        eprintln!("skipping: no `nm` on this machine");
        return;
    };
    assert!(nm.status.success(), "nm -D {so:?}");
    let listing = String::from_utf8_lossy(&nm.stdout);
    let mut exports: Vec<&str> = listing
        .lines()
        .filter_map(|line| line.split_whitespace().nth(2))
        .collect();
    exports.sort_unstable();
    assert_eq!(
        exports,
        [
            "aligned_alloc",
            "calloc",
            "free",
            "malloc",
            "malloc_usable_size",
            "memalign",
            "posix_memalign",
            "pvalloc",
            "realloc",
            "reallocarray",
            "strcpy",
            "strdup",
            "strncpy",
            "strndup",
            "valloc",
        ]
    );
}

/// A C host that keeps a string in a `pvalloc` block across the `realloc`
/// that moves it to a large object, and prints it.
const PVALLOC_HOST: &str = r#"
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int main(void) {
    char *p = pvalloc(100);
    if (p == NULL)
        return 1;
    strcpy(p, "kept");
    p = realloc(p, 100000);
    if (p == NULL)
        return 1;
    printf("%s\n", p);
    free(p);
    return 0;
}
"#;

/// A `pvalloc` block must be one the interposer's `realloc` knows: one from
/// the host's own allocator is foreign to it, and its contents are not
/// copied. The host is compiled with `cc` when the test runs (a skip line
/// where there is none).
#[test]
fn pvalloc_block_keeps_its_contents_through_realloc() {
    let so = require_so!();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (src, host) = (dir.join("pvalloc_host.c"), dir.join("pvalloc_host"));
    std::fs::write(&src, PVALLOC_HOST).expect("write the host's source");
    let Ok(built) = Command::new("cc").arg("-o").arg(&host).arg(&src).status() else {
        eprintln!("skipping: no `cc` on this machine");
        return;
    };
    assert!(built.success(), "cc {src:?}");
    let host = host.to_str().expect("a UTF-8 path");
    let (out, ok) = run_preloaded(&so, &[host], "", None);
    assert!(ok);
    assert_eq!(out, "kept\n");
}

/// `AnonHugePages` of process `pid` in kB, from `/proc/<pid>/smaps_rollup`;
/// `None` when the kernel does not report it.
fn anon_huge_kb(pid: u32) -> Option<u64> {
    let rollup = std::fs::read_to_string(format!("/proc/{pid}/smaps_rollup")).ok()?;
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A short preloaded process must not be handed huge pages: the arena
/// faults in 4 KB at a time until a growth step takes a size class to 2 MB,
/// and neither `cat` nor `sh` holds that much live in any class. Each child
/// is held open at a read — after it has started up, allocated, and answered one
/// line — while its `smaps_rollup` is inspected. (A span advised
/// `MADV_HUGEPAGE` up front puts the same `cat` on 4–6 MB of huge pages.)
/// Only THP mode `madvise` makes the question the allocator's: under
/// `always` the kernel backs first touches with huge pages unasked, under
/// `never` nobody gets any.
#[test]
fn short_processes_get_no_huge_pages() {
    let so = require_so!();
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    if !thp.is_ok_and(|mode| mode.contains("[madvise]")) {
        eprintln!("skipping: transparent huge pages are not in `madvise` mode");
        return;
    }
    use std::io::{BufRead, BufReader, Write};
    let commands: [&[&str]; 2] = [
        &["cat"],
        &["sh", "-c", "read line; echo \"$line\"; read rest; exit 0"],
    ];
    for cmd in commands {
        let mut child = Command::new(cmd[0])
            .args(&cmd[1..])
            .env("LD_PRELOAD", &so)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn preloaded binary");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(b"held open\n").expect("feed stdin");
        let mut echoed = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut echoed)
            .expect("read the echo");
        assert_eq!(echoed, "held open\n", "{cmd:?}");
        let huge = anon_huge_kb(child.id());
        drop(stdin);
        assert!(child.wait().expect("reap").success(), "{cmd:?}");
        match huge {
            Some(kb) => assert_eq!(kb, 0, "{cmd:?} holds {kb} kB of huge pages"),
            None => eprintln!("skipping {cmd:?}: no AnonHugePages in smaps_rollup"),
        }
    }
}
