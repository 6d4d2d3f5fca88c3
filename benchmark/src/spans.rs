//! The harness's own span recorder: every timing the benchmark reports is
//! a span taken here, around a call into one of the repo's crates. Spans
//! are kept in memory and rendered (or written) when the run ends; spans
//! *inside* the crates are a later issue.

use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug)]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// The recorder. With `keep == false` (end-to-end runs) it only reads the
/// clock; with `keep == true` (traced runs) it also retains every span.
pub struct Spans {
    keep: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(keep: bool) -> Self {
        Spans { keep, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Stops or resumes retaining spans (timing is unaffected).
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.keep.then(|| {
            let at = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let d = open.start.elapsed();
        if let Some(i) = open.slot {
            self.spans[i].end_ns = self.spans[i].start_ns + d.as_nanos() as u64;
            // Spans close innermost-first; anything else is a harness bug.
            assert_eq!(
                self.stack.pop(),
                Some(i),
                "span {} closed out of order",
                self.spans[i].name
            );
        }
        d.as_secs_f64()
    }

    /// Times `f` under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Per-name `(count, total seconds, self seconds)`: a span's self time
    /// is its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e9, own as f64 / 1e9))
            .collect()
    }

    /// The span list as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `parent`, `workload`), for the `--spans` file.
    pub fn to_json_lines(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = s.exit(inner);
        let outer_s = s.exit(outer);
        assert!(outer_s >= inner_s);
        assert_eq!(s.spans[1].parent, Some(0));
        let table = s.self_times();
        let (_, _, total, own) = table.iter().find(|r| r.0 == "outer").copied().unwrap();
        assert!(own <= total - 0.0019, "own {own} total {total}");
        assert!(s.to_json_lines("w").lines().count() == 2);
    }

    #[test]
    fn untraced_recorder_keeps_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let ((), secs) = s.time("x", || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(secs >= 0.001);
        assert!(s.spans.is_empty());
    }
}
