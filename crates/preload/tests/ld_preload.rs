//! End-to-end `LD_PRELOAD` tests: run *real, unmodified system binaries*
//! with `libdiehard.so` interposed and check their output is untouched.
//!
//! The cdylib is not a Cargo test artifact, so there is no
//! `CARGO_BIN_EXE_*`-style env var for it; [`library::path`] builds it for
//! this test binary's profile and locates it beside the binary
//! (`target/<profile>/deps/ld_preload-*` → `target/<profile>/
//! libdiehard.so`).

use std::path::PathBuf;
use std::process::{Command, Stdio};

mod library;

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

#[test]
fn cat_round_trips_bytes() {
    let so = library::path();
    let input = "hello from the randomized heap\nsecond line\n";
    let (out, ok) = run_preloaded(&so, &["cat"], input, None);
    assert!(ok);
    assert_eq!(out, input);
}

/// A knob value the heap cannot be built with is the knob's default, not a
/// dead process: a region that is not a power of two (or is zero, or past
/// the largest), and an `M` whose `1/M` cap leaves a region no room for one
/// 16 KiB object. Each used to fail initialization for good, so `cat`
/// printed "memory exhausted".
#[test]
fn unbuildable_knob_values_fall_back_to_defaults() {
    let so = library::path();
    let input = "still here\n".repeat(1000);
    for (knob, value) in [
        ("DIEHARD_REGION_MB", "48"),
        ("DIEHARD_REGION_MB", "0"),
        ("DIEHARD_REGION_MB", "16384"),
        ("DIEHARD_M", "100000"),
        ("DIEHARD_M", "0"),
    ] {
        let mut child = Command::new("cat")
            .env("LD_PRELOAD", &so)
            .env(knob, value)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn preloaded cat");
        use std::io::Write;
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(input.as_bytes()).expect("feed stdin");
        drop(stdin);
        let out = child.wait_with_output().expect("collect output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{knob}={value}: {stderr}");
        assert!(out.stderr.is_empty(), "{knob}={value}: {stderr}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            input,
            "{knob}={value}"
        );
    }
}

#[test]
fn tr_transforms_text() {
    let so = library::path();
    let (out, ok) = run_preloaded(&so, &["tr", "a-z", "A-Z"], "vote on me\n", Some("42"));
    assert!(ok);
    assert_eq!(out, "VOTE ON ME\n");
}

#[test]
fn shell_pipeline_survives_fork_and_exec() {
    let so = library::path();
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
    let so = library::path();
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
    let so = library::path();
    // The whole point of replication: different randomized layouts, same
    // observable behavior for a correct program.
    let input = "determinism survives randomization\n";
    let (a, ok_a) = run_preloaded(&so, &["tr", "a-z", "A-Z"], input, Some("1"));
    let (b, ok_b) = run_preloaded(&so, &["tr", "a-z", "A-Z"], input, Some("99"));
    assert!(ok_a && ok_b);
    assert_eq!(a, b);
}

/// A preloaded host maps the interposer and nothing it would not have mapped
/// anyway: no `libgcc_s`, which no coreutils host loads on its own and which
/// cost every `exec` more than the interposer's own start-up did.
#[test]
fn preloaded_host_maps_no_libgcc_s() {
    let so = library::path();
    let (maps, ok) = run_preloaded(&so, &["cat", "/proc/self/maps"], "", None);
    assert!(ok);
    assert!(maps.contains("libdiehard.so"), "the interposer is mapped");
    assert!(!maps.contains("libgcc_s"), "libgcc_s is mapped:\n{maps}");
}

/// What `tool args so` prints, or `None` after a skip line when the tool
/// is not on this machine.
fn tool_output(tool: &str, args: &[&str], so: &PathBuf) -> Option<String> {
    let Ok(out) = Command::new(tool).args(args).arg(so).output() else {
        eprintln!("skipping: no `{tool}` on this machine");
        return None;
    };
    assert!(out.status.success(), "{tool} {args:?} {so:?}");
    Some(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Crates of `std`'s panic and backtrace runtime, which a library linking
/// `std` carries whatever it calls.
const STD_RUNTIME: [&str; 5] = ["std", "gimli", "addr2line", "rustc_demangle", "miniz_oxide"];

/// Most code `libdiehard.so` may hold: the allocator and the C exports are
/// about 18 KiB (27 KiB while it carried `core`'s panic and formatting
/// code), and `std`'s runtime alone was 224 KiB. The bound leaves a fifth
/// of headroom.
const TEXT_BOUND: u64 = 22 << 10;

/// The library links no `std`: it defines nothing of `std`'s runtime and no
/// unwinder (`_Unwind_*`), it is not NEEDED `libgcc_s`, and it has at most
/// [`TEXT_BOUND`] bytes of `.text`. Every preloaded `exec` maps, relocates
/// and faults in what the library carries, and `std`'s runtime was
/// five-sixths of it. Read with `nm` and `readelf`.
#[test]
fn links_no_std_runtime() {
    let so = library::path();
    let Some(symbols) = tool_output("nm", &["-C", "--defined-only"], &so) else {
        return;
    };
    let runtime: Vec<&str> = symbols
        .lines()
        .filter_map(|line| line.splitn(3, ' ').nth(2))
        .filter(|name| {
            name.starts_with("_Unwind_")
                || STD_RUNTIME.iter().any(|krate| {
                    let path = format!("{krate}::");
                    name.starts_with(&path) || name.contains(&format!("<{path}"))
                })
        })
        .collect();
    assert!(runtime.is_empty(), "std's runtime is linked: {runtime:?}");
    let Some(dynamic) = tool_output("readelf", &["-d"], &so) else {
        return;
    };
    assert!(!dynamic.contains("libgcc_s"), "NEEDED libgcc_s:\n{dynamic}");
    let Some(sections) = tool_output("readelf", &["-S", "-W"], &so) else {
        return;
    };
    let text = sections
        .lines()
        .find(|line| line.contains(" .text "))
        .and_then(|line| line.split(']').nth(1)?.split_whitespace().nth(4))
        .and_then(|size| u64::from_str_radix(size, 16).ok())
        .expect("readelf lists .text with its size");
    // The library is the release build whatever this test's profile
    // (`library`), so the bound holds in a debug run too.
    assert!(text <= TEXT_BOUND, "{text} B of .text > {TEXT_BOUND} B");
}

/// The library exports the C allocation ABI and nothing else: a symbol it
/// exported beyond that would interpose the host's own, and none of the
/// library's helpers is meant to.
#[test]
fn exports_are_the_allocation_abi_only() {
    let Some(listing) = tool_output("nm", &["-D", "--defined-only"], &library::path()) else {
        return;
    };
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
    let so = library::path();
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
    let so = library::path();
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
