//! One-shot operations: one `mjoin_cli` subprocess from TSVs on disk to the
//! whole answer drained from its stdout.

use crate::check::{verify, Expected};
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// An operation that takes longer than this is killed and counted failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// How one operation went.
pub struct OpOutcome {
    /// Spawn → stdout at EOF and the child reaped.
    pub ms: f64,
    /// `Err(reason)`: non-zero exit, timeout, or a wrong answer.
    pub verdict: Result<(), String>,
}

/// Run `child` to completion, draining its stdout; kills it at `timeout`.
/// Returns the bytes and whether it exited successfully.
pub fn drain(mut child: Child, timeout: Duration) -> (Vec<u8>, Result<(), String>) {
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let child = Mutex::new(child);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut bytes = Vec::new();
    let (status, timed_out) = std::thread::scope(|s| {
        // The watchdog sleeps on the channel, so a finished operation wakes
        // it at once and the scope adds no latency to the measurement.
        let child = &child;
        let watchdog = s.spawn(move || {
            if done_rx.recv_timeout(timeout).is_err() {
                let _ = child.lock().expect("child mutex").kill();
                return true;
            }
            false
        });
        let read = stdout.read_to_end(&mut bytes);
        // Reap before stopping the clock: the operation ends when the
        // process has, not when its pipe closes.
        let status = loop {
            // Poll `try_wait` (0.1 ms, against operations of 100+ ms) and
            // not a blocking `wait` under the lock: the watchdog must still
            // be able to kill a child that closed stdout but never exits.
            if let Some(st) = child.lock().expect("child mutex").try_wait().transpose() {
                break st;
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let _ = done_tx.send(());
        let timed_out = watchdog.join().expect("watchdog");
        (read.and(status), timed_out)
    });
    let verdict = match status {
        _ if timed_out => Err(format!("timed out after {} s", timeout.as_secs())),
        Ok(st) if st.success() => Ok(()),
        Ok(st) => Err(format!("exit status {st}")),
        Err(e) => Err(format!("i/o error: {e}")),
    };
    (bytes, verdict)
}

/// Run one operation and check its answer. `tmp` becomes the child's
/// `TMPDIR` so spill partitions land inside the benchmark's data directory.
pub fn run_op(cli: &Path, args: &[String], tmp: &Path, expected: Expected) -> OpOutcome {
    let t0 = Instant::now();
    let child = Command::new(cli)
        .args(args)
        .env("TMPDIR", tmp)
        .env_remove("MJOIN_TRACE")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let child = match child {
        Ok(c) => c,
        Err(e) => {
            return OpOutcome {
                ms: 0.0,
                verdict: Err(format!("cannot spawn {}: {e}", cli.display())),
            }
        }
    };
    let (bytes, status) = drain(child, OP_TIMEOUT);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let verdict = status.and_then(|()| verify(&bytes, expected));
    OpOutcome { ms, verdict }
}

/// Re-run a failed operation with stderr captured, for the error report.
pub fn stderr_of(cli: &Path, args: &[String], tmp: &Path) -> String {
    Command::new(cli)
        .args(args)
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .output()
        .map(|o| String::from_utf8_lossy(&o.stderr).into_owned())
        .unwrap_or_default()
}
