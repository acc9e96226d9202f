//! Scaffolding the proxy and pool suites share: a fault-injectable server
//! script, an in-process proxy on its own thread, and a `diehard-proxy`
//! child process with its stderr read line by line.

#![allow(dead_code)] // each suite uses its own subset

use diehard_replicate::proxy::{Proxy, ProxySummary};
use diehard_workloads::server;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The server protocol with an injectable fault: when `bad_when` (a shell
/// condition over `$DIEHARD_SEED`) holds, `ECHO poison*` answers `KO ...`
/// instead of `OK ...` — a same-length corruption, so chunk alignment is
/// preserved and only the vote can tell the replicas apart. Every other
/// request, and every replica outside `bad_when`, is the byte-exact
/// [`server::SERVER_SCRIPT`] behavior.
pub fn poisonable_server(bad_when: &str) -> Vec<String> {
    let script = format!(
        r#"if {bad_when}; then
  while IFS= read -r line; do
    case "$line" in
      "ECHO poison"*) printf 'KO %s\n' "${{line#ECHO }}";;
      "ECHO "*) printf 'OK %s\n' "${{line#ECHO }}";;
      "PRODUCE "*) n="${{line#PRODUCE }}"; i=0
        while [ "$i" -lt "$n" ]; do printf 'DATA %08d\n' "$i"; i=$((i+1)); done;;
      "QUIT") exit 0;;
      *) printf 'ERR\n';;
    esac
  done
else
{server}
fi"#,
        server = server::SERVER_SCRIPT
    );
    vec!["/bin/sh".into(), "-c".into(), script]
}

/// A proxy's `run` on its own thread.
pub type ProxyHandle = JoinHandle<io::Result<ProxySummary>>;

/// Spawns `proxy.run` on its own thread; returns (port, stop flag, handle).
pub fn spawn_proxy(mut proxy: Proxy) -> (u16, Arc<AtomicBool>, ProxyHandle) {
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || proxy.run(&flag));
    (port, stop, handle)
}

/// Stops a [`spawn_proxy`] proxy and returns its summary.
pub fn stop_and_join(stop: &AtomicBool, handle: ProxyHandle) -> ProxySummary {
    stop.store(true, Ordering::Release);
    handle.join().expect("proxy thread").expect("reactor ran")
}

/// A `diehard-proxy` child process, killed and reaped however the test
/// ends; its stderr arrives on [`lines`](Self::lines).
pub struct ProxyProcess {
    /// The proxy process.
    pub child: Child,
    /// The proxy's stderr, a line at a time.
    pub lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl ProxyProcess {
    /// Starts the `diehard-proxy` binary with `args`.
    pub fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_diehard-proxy"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("proxy spawns");
        let (tx, lines) = std::sync::mpsc::channel();
        let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let reader = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        Self {
            child,
            lines,
            reader: Some(reader),
        }
    }

    /// The next stderr line, waiting up to 10 s for it.
    pub fn next_line(&self) -> String {
        self.lines
            .recv_timeout(Duration::from_secs(10))
            .expect("proxy stderr line")
    }

    /// The port from the proxy's `listening on 127.0.0.1:PORT` line, which
    /// must be its next stderr line.
    pub fn port(&self) -> u16 {
        let listening = self.next_line();
        listening
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("no port in {listening:?}"))
    }
}

impl Drop for ProxyProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Its stderr is closed now, so the reader ends.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
