//! Spans recorded from the benchmark's own code around calls into the
//! program's layers, and the self-time breakdown built from them.
//!
//! A span has a name (`layer.operation`), a start, an end, the span open
//! around it, and the request it served. Spans stay in memory until the
//! run ends and are then written out as JSON lines. A layer's self time is
//! the time its spans cover minus what their child spans cover; whatever
//! no span covers is `unattributed`, so the layer times and the remainder
//! add up to the traced window exactly.

use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use fo4depth_util::Json;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served (0 outside request handling).
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name`, in milliseconds, in start
    /// order.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    }

    /// Total time of the spans named `name`, in milliseconds.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let doc = Json::obj(vec![
                ("id", Json::uint(i as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::uint(s.start_ns)),
                ("end_ns", Json::uint(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                ),
                ("request", Json::uint(s.request)),
            ]);
            writeln!(out, "{}", doc.render())?;
        }
        out.flush()
    }
}

/// Self time per layer over a window, plus the unattributed remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breakdown {
    /// `(layer, self ns)`, in order of first appearance.
    pub layers: Vec<(&'static str, u64)>,
    /// Window time no span covers.
    pub unattributed_ns: u64,
    /// The window's length.
    pub window_ns: u64,
}

/// Attributes the window `[from_ns, to_ns)` to layers. Only spans lying
/// wholly inside the window count; spans must nest (one thread).
///
/// # Panics
///
/// Panics if child spans cover more than their parent, which only a
/// span recorded on another thread could cause.
#[must_use]
pub fn breakdown(spans: &[Span], from_ns: u64, to_ns: u64) -> Breakdown {
    let inside = |s: &Span| s.start_ns >= from_ns && s.end_ns <= to_ns;
    let mut child_ns = vec![0u64; spans.len()];
    let mut roots_ns = 0u64;
    for s in spans.iter().filter(|s| inside(s)) {
        match s.parent.filter(|&p| inside(&spans[p])) {
            Some(p) => child_ns[p] += s.duration(),
            None => roots_ns += s.duration(),
        }
    }
    let mut layers: Vec<(&'static str, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| inside(s)) {
        let own = s
            .duration()
            .checked_sub(child_ns[i])
            .expect("children nest inside their parent");
        match layers.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, ns)) => *ns += own,
            None => layers.push((s.layer(), own)),
        }
    }
    let window_ns = to_ns - from_ns;
    Breakdown {
        layers,
        unattributed_ns: window_ns
            .checked_sub(roots_ns)
            .expect("root spans lie inside the window"),
        window_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_window() {
        let spans = vec![
            span("serve.request", 10, 60, None),  // 50, children 30
            span("util.render", 20, 30, Some(0)), // 10
            span("store.load", 35, 55, Some(0)),  // 20, child 5
            span("util.render", 40, 45, Some(2)), // 5
            span("serve.request", 70, 80, None),  // 10
        ];
        let b = breakdown(&spans, 0, 100);
        assert_eq!(
            b.layers,
            vec![("serve", 20 + 10), ("util", 15), ("store", 15)]
        );
        assert_eq!(b.unattributed_ns, 100 - 60);
        let total: u64 = b.layers.iter().map(|(_, ns)| ns).sum::<u64>() + b.unattributed_ns;
        assert_eq!(total, b.window_ns);
    }

    #[test]
    fn spans_outside_the_window_are_ignored() {
        let spans = vec![
            span("pipeline.probe", 0, 5, None),
            span("workload.generate", 10, 20, None),
        ];
        let b = breakdown(&spans, 8, 30);
        assert_eq!(b.layers, vec![("workload", 10)]);
        assert_eq!(b.unattributed_ns, 12);
    }

    #[test]
    fn tracer_nests_and_writes_lines() {
        let mut t = Tracer::new();
        t.span("a.outer", 7, |t| t.span("b.inner", 7, |_| ()));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.durations_ms("b.inner").len(), 1);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let inner = Json::parse(lines[1]).unwrap();
        assert_eq!(inner.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(inner.get("request").and_then(Json::as_u64), Some(7));
    }
}
