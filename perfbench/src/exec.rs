//! Running the process under test: spawn-to-exit timing with a hard kill
//! cap, and the peak memory the kernel records for it.

use std::io;
use std::process::Command;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How one capped run ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Spawn to exit.
    pub wall: Duration,
    /// The exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// The harness killed the process at the cap.
    pub killed: bool,
    /// The process's peak resident set (`ru_maxrss`), in KiB.
    pub peak_rss_kb: u64,
}

/// Runs `cmd` to completion, killing it if it is still alive after
/// `cap`. Timing starts just before spawn and ends when the blocking wait
/// returns; a watchdog thread is the only other thread.
pub fn run_capped(cmd: &mut Command, cap: Duration) -> io::Result<Exit> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pids fit in pid_t");
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || match finished.recv_timeout(cap) {
        Err(RecvTimeoutError::Timeout) => {
            // the wait below reaps the child; a kill racing that reap hits
            // an exited pid, which Linux hands out again only after the pid
            // counter wraps
            sys::kill(pid, sys::SIGKILL);
            true
        }
        _ => false,
    });
    let waited = sys::wait4(pid);
    let wall = start.elapsed();
    drop(done);
    let fired = watchdog.join().expect("the watchdog thread does not panic");
    let (status, peak_rss_kb) = waited?;
    // WIFEXITED / WEXITSTATUS
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        wall,
        code,
        killed: fired && code.is_none(),
        peak_rss_kb,
    })
}

/// Asks process `pid` to terminate (SIGTERM).
pub fn terminate(pid: u32) {
    sys::kill(i32::try_from(pid).expect("pids fit in pid_t"), sys::SIGTERM);
}

/// `VmHWM` (peak resident set) of process `pid` in KiB, read from
/// `/proc`; `None` once the process is gone.
pub fn vmhwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The two libc calls std does not wrap: `wait4`, which returns a child's
/// own resource usage, and `kill` with a chosen signal.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_long};

    pub const SIGKILL: c_int = 9;
    pub const SIGTERM: c_int = 15;

    /// `struct rusage` on Linux: two `timeval`s, then fourteen longs.
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }

    extern "C" {
        #[link_name = "wait4"]
        fn libc_wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
        #[link_name = "kill"]
        fn libc_kill(pid: c_int, sig: c_int) -> c_int;
    }

    /// Blocks until child `pid` exits and reaps it: its wait status and
    /// peak resident set in KiB.
    pub fn wait4(pid: c_int) -> io::Result<(c_int, u64)> {
        let mut status: c_int = 0;
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable values with
            // the C layout wait4(2) expects, and `pid` is our own child.
            let rc = unsafe { libc_wait4(pid, &mut status, 0, &mut usage) };
            if rc == pid {
                return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub fn kill(pid: c_int, sig: c_int) {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours; a pid that has already exited only yields ESRCH.
        unsafe {
            libc_kill(pid, sig);
        }
    }
}
