//! In-memory span recorder. Spans are recorded by the benchmark's own
//! files around the calls it makes into the library; nothing inside the
//! program is instrumented. `write_json` dumps them when the run ends.

use std::fmt::Write as _;

use crate::sys::now_ns;

/// One timed interval. `parent` is the index of the enclosing span;
/// spans of one round share `round_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per call site.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, round_id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round_id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now_ns();
        }
    }

    /// Records a span whose endpoints were timestamped by the caller
    /// (the fleet generator stamps frames as it reads and writes them).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        round_id: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                round_id,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, round_id);
        let out = f();
        self.end(id);
        out
    }

    /// A parent id usable in `begin`: `None` when tracing is off.
    pub fn parent(&self, id: usize) -> Option<usize> {
        (id != usize::MAX).then_some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// For every span called `name`: the share of its duration that its
    /// direct children cover. Self time is the remainder.
    pub fn child_cover(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name && s.dur_ns() > 0.0)
            .map(|(s, c)| c / s.dur_ns())
            .collect()
    }

    /// One workload's spans as a JSON object.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round_id
            );
        }
        out.push_str("\n]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("round", None, 0);
        t.end(id);
        assert!(t.parent(id).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn child_cover_is_children_over_parent() {
        let mut t = Tracer::new(true);
        t.record("round", 0, 100, None, 1);
        t.record("run", 10, 60, Some(0), 1);
        t.record("commit", 60, 100, Some(0), 1);
        assert_eq!(t.child_cover("round"), vec![0.9]);
        assert!(t.to_json("w", 3).contains("\"parent\":0"));
    }
}
