//! Supervision of the daemon's dispatcher: restart on panic with
//! capped exponential backoff.
//!
//! The executor already isolates a *job's* panic
//! ([`alert_bench::run_ordered`] catches it, and the job is committed
//! as failed). The supervisor guards the layer above: if the dispatcher
//! thread itself dies — a panic in commit, promotion, or the executor's
//! committer loop — the daemon must not silently stop executing jobs
//! while still accepting them. [`supervise`] restarts the body, tells
//! the server which panic happened (so it can quarantine a job that
//! kills the dispatcher twice), and backs off exponentially so a
//! deterministic crash loop cannot spin a core.

use std::panic::{self, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

/// Restart policy for a supervised loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Delay after the first panic; doubles per consecutive panic.
    pub backoff_base: Duration,
    /// Ceiling on the delay.
    pub backoff_cap: Duration,
}

impl Default for SupervisorOptions {
    fn default() -> SupervisorOptions {
        SupervisorOptions {
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// The delay before restart number `restart` (1-based): capped
/// exponential, `base * 2^(restart-1)` up to `cap`.
pub fn backoff_delay(opts: &SupervisorOptions, restart: u32) -> Duration {
    let shift = restart.saturating_sub(1).min(20);
    opts.backoff_base
        .saturating_mul(1u32 << shift)
        .min(opts.backoff_cap)
}

/// Runs `body` until it returns `true` (clean exit), restarting it
/// after every panic. Each panic calls `on_panic` with the panic
/// message before the backoff sleep. Returns the number of restarts.
///
/// The body is deliberately `FnMut`: state that must survive a restart
/// (the server's shared `Arc`) lives in its captures, which is exactly
/// the crash-only discipline — anything the dispatcher cannot
/// reconstruct from shared state or the journal, it must not rely on.
pub fn supervise(
    opts: &SupervisorOptions,
    mut body: impl FnMut() -> bool,
    mut on_panic: impl FnMut(&str),
) -> u32 {
    let mut restarts = 0u32;
    loop {
        match panic::catch_unwind(AssertUnwindSafe(&mut body)) {
            Ok(true) => return restarts,
            Ok(false) => continue,
            Err(payload) => {
                restarts += 1;
                on_panic(&panic_message(payload.as_ref()));
                thread::sleep(backoff_delay(opts, restarts));
            }
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let opts = SupervisorOptions {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(65),
        };
        assert_eq!(backoff_delay(&opts, 1), Duration::from_millis(10));
        assert_eq!(backoff_delay(&opts, 2), Duration::from_millis(20));
        assert_eq!(backoff_delay(&opts, 3), Duration::from_millis(40));
        assert_eq!(backoff_delay(&opts, 4), Duration::from_millis(65));
        assert_eq!(backoff_delay(&opts, 31), Duration::from_millis(65));
    }

    #[test]
    fn panicking_body_is_restarted_until_clean_exit() {
        let opts = SupervisorOptions {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let mut calls = 0;
        let mut panics = Vec::new();
        let restarts = supervise(
            &opts,
            || {
                calls += 1;
                match calls {
                    1 => panic!("first crash"),
                    2 => false, // one voluntary re-loop, not a panic
                    3 => panic!("second crash"),
                    _ => true,
                }
            },
            |msg| panics.push(msg.to_owned()),
        );
        assert_eq!(restarts, 2);
        assert_eq!(calls, 4);
        assert_eq!(panics, ["first crash", "second crash"]);
    }
}
