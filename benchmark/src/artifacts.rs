//! The shipped artifacts the benchmark drives — `libdiehard.so`,
//! `diehard`, `diehard-proxy` — plus its own `churn-host`, and the one
//! place child processes get their environment.
//!
//! `run.sh` builds the root packages and this package into the same target
//! directory, so all four sit next to the running `harness`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Absolute paths of everything the workloads execute.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// `libdiehard.so`, absolute (it goes into `LD_PRELOAD` verbatim).
    pub preload: PathBuf,
    /// The `diehard` launcher.
    pub launcher: PathBuf,
    /// The `diehard-proxy` front end.
    pub proxy: PathBuf,
    /// The benchmark's own allocation-churn host.
    pub churn_host: PathBuf,
}

/// Which allocator a child runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heap {
    /// The system allocator: the baseline arm.
    Glibc,
    /// `LD_PRELOAD=libdiehard.so` with this `DIEHARD_SEED` and no other
    /// `DIEHARD_*` knob: the default configuration a user gets.
    DieHard {
        /// Seed for the randomized heap.
        seed: u64,
    },
}

impl Heap {
    /// `glibc` or `diehard`: names the arm in scratch-file names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Heap::Glibc => "glibc",
            Heap::DieHard { .. } => "diehard",
        }
    }
}

impl Artifacts {
    /// Finds the artifacts in `dir` (normally the directory of the
    /// running executable).
    ///
    /// # Errors
    ///
    /// `NotFound`, naming the first missing file and how to build it.
    pub fn in_dir(dir: &Path) -> io::Result<Self> {
        let find = |name: &str| {
            let path = dir.join(name);
            if path.is_file() {
                path.canonicalize()
            } else {
                Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "{} not found — build through benchmark/run.sh, which runs \
                         `cargo build --release -p diehard-preload -p diehard-replicate` first",
                        path.display()
                    ),
                ))
            }
        };
        Ok(Self {
            preload: find("libdiehard.so")?,
            launcher: find("diehard")?,
            proxy: find("diehard-proxy")?,
            churn_host: find("churn-host")?,
        })
    }

    /// Finds the artifacts next to the running executable.
    ///
    /// # Errors
    ///
    /// As [`in_dir`](Self::in_dir).
    pub fn beside_current_exe() -> io::Result<Self> {
        let exe = std::env::current_exe()?;
        Self::in_dir(exe.parent().unwrap_or(Path::new(".")))
    }

    /// A command for `program` on `heap`: `LC_ALL=C`, no inherited
    /// `LD_PRELOAD` or `DIEHARD_*`, and for [`Heap::DieHard`] the absolute
    /// preload path and the seed. Children receive generated inputs only.
    #[must_use]
    pub fn command(&self, program: impl AsRef<std::ffi::OsStr>, heap: Heap) -> Command {
        let mut cmd = Command::new(program);
        scrub_env(&mut cmd);
        if let Heap::DieHard { seed } = heap {
            cmd.env("LD_PRELOAD", &self.preload)
                .env("DIEHARD_SEED", seed.to_string());
        }
        cmd
    }
}

/// Applies the environment every child gets.
fn scrub_env(cmd: &mut Command) {
    cmd.env("LC_ALL", "C").env_remove("LD_PRELOAD");
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DIEHARD_") {
            cmd.env_remove(key);
        }
    }
}
