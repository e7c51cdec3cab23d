//! Child processes: the `gosh` binary under test, run with exactly the
//! commands a user types.
//!
//! Every child has its stdout and stderr drained to EOF (the CLI panics
//! on a closed pipe), is killed if it outlives its deadline, and is
//! waited for before the harness moves on — nothing the benchmark starts
//! survives it.

use std::io::{self, BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the wait loop looks for the child's exit.
const EXIT_POLL: Duration = Duration::from_millis(1);
/// How often it samples `VmHWM` (every tenth look: 10 ms).
const RSS_EVERY: u32 = 10;

/// A child that ran to completion.
#[derive(Debug)]
pub struct Finished {
    pub success: bool,
    /// Spawn to observed exit.
    pub seconds: f64,
    /// Highest `VmHWM` seen in `/proc/<pid>/status`, in kB.
    pub peak_rss_kb: u64,
    pub stdout: String,
    pub stderr: String,
}

/// Peak resident set of `pid` from `/proc/<pid>/status`, without FFI.
/// `None` once the process is gone (or is a zombie with no mm).
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn drain<R: Read + Send + 'static>(mut pipe: R) -> JoinHandle<String> {
    thread::spawn(move || {
        let mut buf = Vec::new();
        // A read error just ends the drain; the exit status tells the story.
        let _ = pipe.read_to_end(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    })
}

fn join_text(h: JoinHandle<String>) -> String {
    h.join()
        .unwrap_or_else(|_| String::from("<drain thread panicked>"))
}

/// Kill and reap `child`; used on every early-exit path.
fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Wait for `child` to exit, sampling its peak RSS on the way. Kills it
/// (and reports a timeout) if it is still running at `deadline`.
fn wait_sampling(child: &mut Child, deadline: Instant) -> io::Result<(bool, u64)> {
    let pid = child.id();
    let mut peak = 0u64;
    let mut looks = 0u32;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok((status.success(), peak));
        }
        if looks.is_multiple_of(RSS_EVERY) {
            peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
        }
        looks += 1;
        if Instant::now() >= deadline {
            reap(child);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("child {pid} outlived its deadline and was killed"),
            ));
        }
        thread::sleep(EXIT_POLL);
    }
}

/// Run `program args…` to completion.
pub fn run(program: &str, args: &[String], timeout: Duration) -> io::Result<Finished> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let out = drain(child.stdout.take().expect("stdout was piped"));
    let err = drain(child.stderr.take().expect("stderr was piped"));
    let waited = wait_sampling(&mut child, t0 + timeout);
    let seconds = t0.elapsed().as_secs_f64();
    let (stdout, stderr) = (join_text(out), join_text(err));
    let (success, peak_rss_kb) = waited?;
    Ok(Finished {
        success,
        seconds,
        peak_rss_kb,
        stdout,
        stderr,
    })
}

/// A long-running child (`gosh serve`) whose stdout is read line by line
/// while it runs. Dropping it kills and reaps the process.
pub struct Service {
    child: Child,
    lines: Receiver<String>,
    out: Option<JoinHandle<String>>,
    err: Option<JoinHandle<String>>,
    pub spawned: Instant,
}

impl Service {
    pub fn spawn(program: &str, args: &[String]) -> io::Result<Self> {
        let spawned = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let out = thread::spawn(move || {
            let mut all = String::new();
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                all.push_str(&line);
                all.push('\n');
                // The receiver may be gone; keep draining to EOF anyway.
                let _ = tx.send(line);
            }
            all
        });
        let err = drain(child.stderr.take().expect("stderr was piped"));
        Ok(Self {
            child,
            lines,
            out: Some(out),
            err: Some(err),
            spawned,
        })
    }

    /// Next stdout line containing `needle`, or an error at `timeout`
    /// or when the child closes stdout first.
    pub fn wait_for_line(&mut self, needle: &str, timeout: Duration) -> io::Result<String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return Ok(line),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no `{needle}` line within {timeout:?}"),
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("child exited before printing `{needle}`"),
                    ))
                }
            }
        }
    }

    /// Wait for the child to exit on its own (after a shutdown request).
    pub fn finish(mut self, timeout: Duration) -> io::Result<Finished> {
        let waited = wait_sampling(&mut self.child, Instant::now() + timeout);
        let seconds = self.spawned.elapsed().as_secs_f64();
        let stdout = self.out.take().map(join_text).unwrap_or_default();
        let stderr = self.err.take().map(join_text).unwrap_or_default();
        let (success, peak_rss_kb) = waited?;
        Ok(Finished {
            success,
            seconds,
            peak_rss_kb,
            stdout,
            stderr,
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // After `finish` the child is already reaped and both calls are
        // harmless no-ops; on an error path this is what stops it.
        reap(&mut self.child);
        if let Some(h) = self.out.take() {
            let _ = h.join();
        }
        if let Some(h) = self.err.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Vec<String> {
        vec![String::from("-c"), script.to_string()]
    }

    #[test]
    fn run_captures_output_status_and_peak_rss() {
        let f = run(
            "sh",
            &sh("echo hi; echo err >&2; sleep 0.05"),
            Duration::from_secs(5),
        )
        .unwrap();
        assert!(f.success);
        assert_eq!(f.stdout, "hi\n");
        assert_eq!(f.stderr, "err\n");
        assert!(f.seconds >= 0.05 && f.peak_rss_kb > 0);
        assert!(
            !run("sh", &sh("exit 3"), Duration::from_secs(5))
                .unwrap()
                .success
        );
    }

    #[test]
    fn run_kills_a_child_that_outlives_its_deadline() {
        let e = run("sleep", &[String::from("30")], Duration::from_millis(50)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn service_lines_finish_and_drop() {
        let mut s =
            Service::spawn("sh", &sh("echo booting; echo ready on 1; exec sleep 0.05")).unwrap();
        assert_eq!(
            s.wait_for_line("ready", Duration::from_secs(5)).unwrap(),
            "ready on 1"
        );
        let f = s.finish(Duration::from_secs(5)).unwrap();
        assert!(f.success && f.stdout.contains("booting"));
        // Dropped without finish: the child is killed, not leaked.
        let mut s = Service::spawn("sh", &sh("echo up; exec sleep 30")).unwrap();
        s.wait_for_line("up", Duration::from_secs(5)).unwrap();
        let t0 = Instant::now();
        drop(s);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
