//! Minimal Unix signal wiring, std-only.
//!
//! The petri crate forbids `unsafe`, so the one `extern "C"` call a signal
//! handler needs lives here in the binary. The handler only flips
//! `static` atomics — the async-signal-safe minimum — and a watcher
//! thread ([`on_termination`]) polls those flags and acts on them: `julie
//! check` trips the run's [`petri::Budget`] cancel flag (so the engine
//! stops cooperatively and writes its final `--checkpoint` snapshot), and
//! `julie serve` connects to its own listener, which wakes the blocking
//! accept loop to begin a graceful drain.
//!
//! On non-Unix targets installation is a no-op and the flags stay false.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set by the handler on SIGINT or SIGTERM.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// True once SIGINT or SIGTERM has been received.
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use super::TERMINATE;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX signal(2). glibc gives it BSD semantics (handler stays
        // installed, syscalls restart), so a blocked call never sees an
        // EINTR: the watcher of `on_termination` must wake it instead.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handler (idempotent; no-op off Unix).
fn install() {
    imp::install();
}

/// Installs the handler and spawns a watcher that, once a termination
/// signal has arrived, calls `act` every 25 ms until it returns true. The
/// watcher is a daemon thread; it dies with the process.
pub fn on_termination(mut act: impl FnMut() -> bool + Send + 'static) {
    install();
    std::thread::spawn(move || loop {
        if termination_requested() && act() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

/// Trips `cancel` when a termination signal arrives, turning the signal
/// into an ordinary cooperative budget exhaustion.
pub fn cancel_on_termination(cancel: Arc<AtomicBool>) {
    on_termination(move || {
        cancel.store(true, Ordering::SeqCst);
        true
    });
}
