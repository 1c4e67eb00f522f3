//! Progress reporting for replicated runs.
//!
//! The engine calls back on the *coordinating* thread as results arrive,
//! so implementations need no synchronisation of their own. Completion
//! order follows the parallel schedule and is therefore not deterministic;
//! anything that must be reproducible belongs in the aggregates, not here.

use std::time::Duration;

/// Observer for a replicated run's lifecycle.
pub trait Progress {
    /// Called once before the first task starts.
    fn started(&mut self, total: u32) {
        let _ = total;
    }

    /// Called after each replication completes; `done` counts completions
    /// in arrival order, `wall` is that task's execution time.
    fn task_done(&mut self, done: u32, total: u32, wall: Duration) {
        let _ = (done, total, wall);
    }

    /// Called once after every replication has finished.
    fn finished(&mut self, total_wall: Duration) {
        let _ = total_wall;
    }
}

/// Reports nothing. The default for tests and library use.
#[derive(Debug, Default, Clone, Copy)]
pub struct Silent;

impl Progress for Silent {}

/// Prints one status line per completed replication to stderr.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stderr;

impl Progress for Stderr {
    fn started(&mut self, total: u32) {
        eprintln!("[elc run] dispatching {total} replications");
    }

    fn task_done(&mut self, done: u32, total: u32, wall: Duration) {
        eprintln!(
            "[elc run] {done}/{total} replications done (last took {:.1} ms)",
            wall.as_secs_f64() * 1e3
        );
    }

    fn finished(&mut self, total_wall: Duration) {
        eprintln!(
            "[elc run] all replications finished in {:.1} ms",
            total_wall.as_secs_f64() * 1e3
        );
    }
}

/// Records every callback; used by tests to assert engine behaviour.
#[derive(Debug, Default, Clone)]
pub struct Recording {
    /// Total announced by `started`.
    pub started_total: Option<u32>,
    /// `(done, total)` pairs in arrival order.
    pub completions: Vec<(u32, u32)>,
    /// Whether `finished` fired.
    pub finished: bool,
}

impl Progress for Recording {
    fn started(&mut self, total: u32) {
        self.started_total = Some(total);
    }

    fn task_done(&mut self, done: u32, total: u32, _wall: Duration) {
        self.completions.push((done, total));
    }

    fn finished(&mut self, _total_wall: Duration) {
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_impls_are_no_ops() {
        let mut s = Silent;
        s.started(4);
        s.task_done(1, 4, Duration::from_millis(1));
        s.finished(Duration::from_millis(4));
    }

    #[test]
    fn recording_captures_the_lifecycle() {
        let mut r = Recording::default();
        r.started(2);
        r.task_done(1, 2, Duration::ZERO);
        r.task_done(2, 2, Duration::ZERO);
        r.finished(Duration::ZERO);
        assert_eq!(r.started_total, Some(2));
        assert_eq!(r.completions, vec![(1, 2), (2, 2)]);
        assert!(r.finished);
    }
}
