//! Byte-exact `--smoke` output of the evaluation binaries whose stdout is a
//! pure function of their fixed seeds (no timings): ROADMAP direction B's
//! "facade and eval-bin output unchanged", as a test. The files under
//! `golden/` were generated by the build of the commit *before* the one that
//! added this test (PR 22, which replaced the simulator's partition, bitmap
//! and adaptive heap with the shipped ones), and every later refactor of the
//! allocator stack is held to them: a diff here means placement, probe
//! accounting or growth changed for some seed.
//!
//! To regenerate after an *intended* change of behaviour, from the repo
//! root: `for b in fig4a fig4b probes ablation table1 uninit fault_injection
//! squid; do target/release/$b --smoke > crates/bench/tests/golden/$b.txt;
//! done` — and say in the change why the numbers moved.

use std::process::Command;

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            let path = env!(concat!("CARGO_BIN_EXE_", stringify!($bin)));
            let out = Command::new(path)
                .arg("--smoke")
                .output()
                .unwrap_or_else(|e| panic!("spawn {path}: {e}"));
            assert!(
                out.status.success(),
                "{path} --smoke failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let want = include_str!(concat!("golden/", stringify!($bin), ".txt"));
            let got = String::from_utf8_lossy(&out.stdout);
            assert!(
                got == want,
                "{} --smoke no longer prints its golden output.\n--- golden\n{want}\n--- got\n{got}",
                stringify!($bin)
            );
        }
    )*};
}

golden!(
    fig4a,
    fig4b,
    probes,
    ablation,
    table1,
    uninit,
    fault_injection,
    squid
);
