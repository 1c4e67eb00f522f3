//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around calls into a layer's public
//! functions; nothing inside the program is instrumented. Each span keeps
//! its name, start and end (nanoseconds since the recorder was created),
//! the index of its parent span and the iteration it belongs to. Spans
//! stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder: a flat list of spans plus the stack of open ones.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, iter: u32, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Index of the next span to be opened; pass it to the aggregate
    /// queries to look only at spans recorded from that point on.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration, seconds, of every span named `name` since `from`.
    pub fn total_s(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Summed self time, seconds, of every span named `name` since
    /// `from`: each span's duration minus the durations of its direct
    /// children.
    pub fn self_s(&self, from: usize, name: &str) -> f64 {
        let self_ns = self.self_ns();
        let total: i128 = self.spans[from..]
            .iter()
            .zip(&self_ns[from..])
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns)
            .sum();
        total as f64 * 1e-9
    }

    /// Per-span self time in nanoseconds. Spans nest strictly (one
    /// thread), so direct children never overlap.
    fn self_ns(&self) -> Vec<i128> {
        let mut self_ns: Vec<i128> = self.spans.iter().map(|s| i128::from(s.dur_ns())).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= i128::from(s.dur_ns());
            }
        }
        self_ns
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one tab-separated line:
    /// `index parent iter name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::from("index\tparent\titer\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.iter, s.name, s.start_ns, s.end_ns, self_ns[i]
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

/// A place to open a span around one call: [`Off`] in end-to-end
/// iterations (compiles to the bare call), [`On`] in the traced run.
pub trait Hook {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// No spans.
pub struct Off;

impl Hook for Off {
    #[inline]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Spans into a recorder, tagged with one iteration id.
pub struct On<'a> {
    pub spans: &'a mut Spans,
    pub iter: u32,
}

impl Hook for On<'_> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.spans.span(name, self.iter, |_| f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::new();
        spans.span("outer", 0, |s| {
            s.span("child", 0, |s| {
                s.span("grandchild", 0, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer = spans.total_s(0, "outer");
        let child = spans.total_s(0, "child");
        let outer_self = spans.self_s(0, "outer");
        assert!((outer - child - outer_self).abs() < 1e-9);
        assert!(spans.self_s(0, "child") < child);
        assert_eq!(spans.spans[2].parent, Some(1));
    }
}
