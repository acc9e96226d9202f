//! Locates `libdiehard.so` for a test binary, building it first.
//!
//! `cargo test` does not build a `cdylib`-only crate's library, so a test
//! that merely looked for `target/<profile>/libdiehard.so` would run
//! against whatever an earlier build left there, or find nothing at all.
//! [`path`] runs `cargo build -p diehard-preload` for the test binary's own
//! profile and target directory once per test process, then returns the
//! library it built. Cargo does nothing when the library is current.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

/// `target/<profile>/libdiehard.so`, freshly built for this test binary's
/// profile.
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
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("a test binary lives in target/<profile>/deps");
    let profile = match profile_dir.file_name().and_then(|name| name.to_str()) {
        Some("debug") => "dev", // the one profile named apart from its directory
        Some(name) => name,
        None => panic!("no profile directory above {}", exe.display()),
    };
    let target_dir = profile_dir.parent().expect("target/<profile>");
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .args(["build", "-q", "-p", "diehard-preload", "--profile", profile])
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
    let so = profile_dir.join("libdiehard.so");
    assert!(so.exists(), "cargo built no {}", so.display());
    so
}
