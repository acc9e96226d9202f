//! The command line the `diehard` launcher and `diehard-proxy` share.
//!
//! Both binaries take `-n`/`--replicas`, `--chunk`, `--preload`, `--seed`
//! and a command, either after `--` or bare (the first argument that is not
//! an option starts it); the proxy also takes `--port`, `--cap` and
//! `--pool`. [`parse`] turns that into a [`LaunchConfig`] checked by
//! [`LaunchConfig::validated`], so the binaries refuse exactly what a
//! session, proxy or pool would refuse. `--seed S` gives replica `i` the
//! seed [`replica_seed`]`(S, i)`, the rule the sessions apply to their
//! entropy master, so runs with nearby masters share no replica heap.

use crate::LaunchConfig;
use diehard_core::rng::replica_seed;
use std::str::FromStr;

/// Which binary's command line is being parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `diehard`: the shared options only.
    Launcher,
    /// `diehard-proxy`: the shared options plus `--port`, `--cap`, `--pool`.
    Proxy,
}

/// A parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// The validated launch configuration.
    pub config: LaunchConfig,
    /// `--port` (0, the default, lets the kernel pick).
    pub port: u16,
    /// `--cap`: the proxy's per-connection outbound queue bound.
    pub cap: Option<usize>,
    /// `--pool`: warm replica sets kept parked (0, the default, spawns cold).
    pub pool: usize,
}

/// Parses `args` (without the program name) for `front`.
///
/// # Errors
///
/// Returns why the command line is refused: an unknown option, a missing
/// or unparsable value, no command, or a replica count or chunk that
/// [`LaunchConfig::validated`] refuses. `-h`/`--help` returns an empty
/// reason.
pub fn parse(args: impl IntoIterator<Item = String>, front: Front) -> Result<Cli, String> {
    let mut args = args.into_iter();
    let mut config = LaunchConfig {
        replicas: 3,
        command: Vec::new(),
        input: Vec::new(),
        seeds: Vec::new(),
        preload: None,
        chunk: crate::CHUNK,
    };
    let (mut port, mut cap, mut pool, mut seed) = (0, None, 0, None);
    let proxy = front == Front::Proxy;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-n" | "--replicas" => config.replicas = value(&mut args, &arg)?,
            "--chunk" => config.chunk = value(&mut args, &arg)?,
            "--preload" => config.preload = Some(value(&mut args, &arg)?),
            "--seed" => seed = Some(value(&mut args, &arg)?),
            "--port" if proxy => port = value(&mut args, &arg)?,
            "--cap" if proxy => cap = Some(value(&mut args, &arg)?),
            "--pool" if proxy => pool = value(&mut args, &arg)?,
            "-h" | "--help" => return Err(String::new()),
            "--" => config.command.extend(args.by_ref()),
            bare if !bare.starts_with('-') => {
                config.command = std::iter::once(arg).chain(args.by_ref()).collect();
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if config.command.is_empty() {
        return Err("no command given".into());
    }
    config.validated().map_err(|e| e.to_string())?;
    if let Some(master) = seed {
        config.seeds = (0..config.replicas as u64)
            .map(|i| replica_seed(master, i))
            .collect();
    }
    Ok(Cli {
        config,
        port,
        cap,
        pool,
    })
}

/// [`parse`]s this process's arguments, or prints the reason (if any) and
/// `usage` to stderr and exits 1.
#[must_use]
pub fn parse_env_or_exit(front: Front, usage: &str) -> Cli {
    parse(std::env::args().skip(1), front).unwrap_or_else(|why| {
        if !why.is_empty() {
            let name = match front {
                Front::Launcher => "diehard",
                Front::Proxy => "diehard-proxy",
            };
            eprintln!("{name}: {why}");
        }
        eprintln!("{usage}");
        std::process::exit(1)
    })
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: bad value {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str, front: Front) -> Result<Cli, String> {
        parse(line.split_whitespace().map(String::from), front)
    }

    /// The flags the benchmark passes the proxy, and the launcher's sort
    /// run, parse to the configurations they always did, seeds apart.
    #[test]
    fn the_benchmarks_command_lines_parse_as_before() {
        let cli = parse_str(
            "-n 3 --seed 4 --pool 2 --preload /lib/x.so -- cat -v",
            Front::Proxy,
        )
        .unwrap();
        assert_eq!(cli.config.replicas, 3);
        assert_eq!(cli.config.command, ["cat", "-v"]);
        assert_eq!(cli.config.preload.as_deref(), Some("/lib/x.so"));
        assert_eq!(cli.config.chunk, crate::CHUNK);
        assert!(cli.config.input.is_empty());
        assert_eq!((cli.port, cli.cap, cli.pool), (0, None, 2));

        let cli = parse_str(
            "-n 3 --seed 9 --preload /lib/x.so -- sort --parallel=1",
            Front::Launcher,
        )
        .unwrap();
        assert_eq!(cli.config.command, ["sort", "--parallel=1"]);
        assert_eq!(cli.config.seeds.len(), 3);

        let cli = parse_str("--port 7000 --cap 8192 --chunk 1024 -- cat", Front::Proxy).unwrap();
        assert_eq!(
            (cli.port, cli.cap, cli.config.chunk),
            (7000, Some(8192), 1024)
        );
        assert!(cli.config.seeds.is_empty(), "no --seed: fresh entropy");
    }

    #[test]
    fn seed_s_gives_replica_i_the_seed_replica_seed_s_i() {
        for replicas in [1u64, 3, 5] {
            let cli = parse_str(&format!("-n {replicas} --seed 77 cat"), Front::Proxy).unwrap();
            let want: Vec<u64> = (0..replicas).map(|i| replica_seed(77, i)).collect();
            assert_eq!(cli.config.seeds, want);
        }
    }

    /// Masters 1 to 10 are what the benchmark's proxy runs pass; an XOR of
    /// master and replica index would give `--seed 1` and `--seed 2` two
    /// replica heaps in common.
    #[test]
    fn no_replica_seed_repeats_across_masters() {
        for replicas in [3, 5] {
            let mut seen = std::collections::HashSet::new();
            for master in 0..=63u64 {
                let cli = parse_str(
                    &format!("-n {replicas} --seed {master} cat"),
                    Front::Launcher,
                )
                .unwrap();
                for seed in cli.config.seeds {
                    assert!(seen.insert(seed), "-n {replicas}: seed {seed:#x} repeats");
                }
            }
            assert_eq!(seen.len(), 64 * replicas);
        }
    }

    #[test]
    fn both_fronts_take_the_bare_command_form() {
        for front in [Front::Launcher, Front::Proxy] {
            let cli = parse_str("-n 3 tr a-z -- A-Z", front).unwrap();
            assert_eq!(cli.config.command, ["tr", "a-z", "--", "A-Z"]);
        }
    }

    #[test]
    fn refused_command_lines_give_a_reason() {
        for (line, front) in [
            ("-n 0 cat", Front::Launcher),
            ("-n 2 cat", Front::Proxy),
            ("-n x cat", Front::Launcher),
            ("--chunk 1000 cat", Front::Launcher),
            ("--chunk 131072 cat", Front::Proxy),
            ("--seed", Front::Launcher),
            ("-n 3", Front::Proxy),
            ("-n 3 --", Front::Launcher),
            ("--smoke", Front::Proxy),
            ("--pool-smoke", Front::Proxy),
            ("--pool 1 -- cat", Front::Launcher),
            ("--port 1 -- cat", Front::Launcher),
            ("--cap 4096 -- cat", Front::Launcher),
        ] {
            let why = parse_str(line, front).err();
            assert!(
                why.is_some_and(|w| !w.is_empty()),
                "{front:?} must refuse {line:?} with a reason"
            );
        }
        assert_eq!(
            parse_str("-h -- cat", Front::Proxy).err().as_deref(),
            Some("")
        );
    }
}
