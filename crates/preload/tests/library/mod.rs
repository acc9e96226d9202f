//! Locates `libdiehard.so` for a test binary, building it first.
//!
//! `cargo test` does not build a `cdylib`-only crate's library, so a test
//! that merely looked for `target/release/libdiehard.so` would run against
//! whatever an earlier build left there, or find nothing at all. [`path`]
//! runs `cargo build --release -p diehard-preload` in the test binary's
//! target directory once per test process, then returns the library it
//! built. Cargo does nothing when the library is current.
//!
//! The library is the release one whatever the test binary's profile: only
//! an LTO build leaves out `core`'s unwind-table entry naming
//! `rust_eh_personality` (the workspace `Cargo.toml` has why), so a debug
//! `libdiehard.so` does not load.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

/// `target/release/libdiehard.so`, freshly built.
///
/// # Panics
///
/// Panics with cargo's output when the build fails.
pub fn path() -> PathBuf {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    BUILT.get_or_init(build).clone()
}

fn build() -> PathBuf {
    let exe = std::env::current_exe().expect("the test binary's path");
    // target/<profile>/deps/<test binary>
    let target_dir = exe
        .ancestors()
        .nth(3)
        .expect("a test binary lives in target/<profile>/deps");
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .args(["build", "-q", "-p", "diehard-preload", "--release"])
        .arg("--target-dir")
        .arg(target_dir)
        .args([
            "--manifest-path",
            concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
        ]);
    let out = cargo.output().expect("run cargo");
    assert!(
        out.status.success(),
        "cargo build -p diehard-preload failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let so = target_dir.join("release").join("libdiehard.so");
    assert!(so.exists(), "cargo built no {}", so.display());
    so
}
