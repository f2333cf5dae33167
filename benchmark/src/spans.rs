//! The harness's own span recorder.
//!
//! Per-layer numbers come from spans recorded *around* calls into each
//! layer's public functions — never from instrumentation inside the
//! program. Spans nest `workload → replay → layer → call`, share the
//! workload's name as their identifier, live in memory while the replay
//! runs, and are written out as one Chrome trace when it ends.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or call name (`linalg.kernels`, `syrk_tn`, ...).
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (equal to `start_ns` until the span is closed).
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
}

/// In-memory span store for one workload's traced run.
#[derive(Debug)]
pub struct Recorder {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose spans all carry `workload` as identifier.
    pub fn new(workload: &str) -> Self {
        Recorder {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Records a closed span with explicit times under `parent` and
    /// returns its index (how tests build hand-made trees).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open on this recorder, and returns `f`'s value and the span's
    /// duration in seconds.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let idx = self.push(name, start_ns, start_ns, self.open.last().copied());
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        (out, self.duration_s(idx))
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `idx` in seconds.
    pub fn duration_s(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Self time of span `idx`: its duration minus the part of it its
    /// direct children cover.
    pub fn self_s(&self, idx: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e9
    }

    /// Summed duration of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_s(i))
            .sum()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete (`"X"`) event per span, microsecond timestamps, with the
    /// span's index, its parent's index and the shared workload id in
    /// `args`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"replay\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"workload\": \"{}\", \"span\": {i}, \
                 \"parent\": {parent}, \"self_us\": {:.3}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.workload,
                self.self_s(i) * 1e6,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = Recorder::new("w");
        let root = r.push("workload", 0, 1_000, None);
        let layer = r.push("layer", 100, 900, Some(root));
        let a = r.push("call", 100, 300, Some(layer));
        let b = r.push("call", 400, 900, Some(layer));
        assert_eq!(r.duration_s(layer), 800e-9);
        // 800 − (200 + 500): grandchildren never count against the root.
        assert_eq!(r.self_s(layer), 100e-9);
        assert_eq!(r.self_s(root), 200e-9);
        assert_eq!(r.self_s(a), 200e-9);
        assert_eq!(r.self_s(b), 500e-9);
        assert_eq!(r.total_s("call"), 700e-9);
        assert_eq!(r.total_s("absent"), 0.0);
    }

    #[test]
    fn scopes_nest_under_the_open_span() {
        let mut r = Recorder::new("w");
        let ((), outer) = r.scope("outer", |r| {
            r.scope("inner", |_| std::hint::black_box(1 + 1));
            r.scope("inner", |_| ());
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(outer, r.duration_s(0));
        assert!(r.self_s(0) <= r.duration_s(0));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parents() {
        let mut r = Recorder::new("em_spark_sparse");
        let root = r.push("workload", 0, 2_500, None);
        r.push("replay", 500, 2_000, Some(root));
        let text = r.chrome_trace();
        obs::json::validate(&text).expect("trace must be valid JSON");
        let doc = obs::json::parse(&text).unwrap();
        let obs::json::Json::Arr(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents must be an array");
        };
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_num(), Some(0.0));
        assert_eq!(
            args.get("workload").unwrap().as_str(),
            Some("em_spark_sparse")
        );
        assert_eq!(events[1].get("dur").unwrap().as_num(), Some(1.5));
    }
}
