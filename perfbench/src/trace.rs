//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public API: name, start, end, parent and request id. Spans stay in
//! memory while the run measures and are written out as one TSV file at
//! the end (the first [`KEEP`] requests of each thread; the self times
//! cover all of them). A span's self time is its duration minus its children's; the
//! children of one span never overlap, because every traced request runs
//! its calls one after another on one thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the same request's span list.
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one request; index 0 is the root.
pub struct Request {
    pub id: u64,
    pub spans: Vec<Span>,
}

impl Request {
    /// A request whose root span is `name`, opened at `start_ns`.
    pub fn new(name: &'static str, start_ns: u64) -> Request {
        Request { id: 0, spans: vec![Span { name, parent: None, start_ns, end_ns: start_ns }] }
    }

    /// Adds a child of the root.
    pub fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span { name, parent: Some(0), start_ns, end_ns });
    }

    /// Closes the root span.
    pub fn end(&mut self, end_ns: u64) {
        self.spans[0].end_ns = end_ns;
    }
}

/// Requests of one thread kept for the span file. Every recorded request
/// counts in the self times; only the first ones are kept, so a run of
/// tens of thousands of requests per second writes megabytes, not
/// hundreds of them.
const KEEP: usize = 10_000;

/// Collects the requests of one thread, timed against a shared epoch.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub kept: Vec<Request>,
    /// Self times of every recorded request, by root span name.
    times: BTreeMap<&'static str, SelfTimes>,
}

impl Tracer {
    /// `id_base` keeps request ids distinct across threads.
    pub fn new(epoch: Instant, id_base: u64) -> Tracer {
        Tracer { epoch, next_id: id_base, kept: Vec::new(), times: BTreeMap::new() }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Adds a finished request to the self times and, while there is
    /// room, to the span file.
    pub fn record(&mut self, mut request: Request) {
        self.next_id += 1;
        request.id = self.next_id;
        self.times.entry(request.spans[0].name).or_default().add(&request);
        if self.kept.len() < KEEP {
            self.kept.push(request);
        }
    }

    /// Self times of the requests rooted at `root`.
    pub fn times(&self, root: &str) -> SelfTimes {
        self.times.get(root).cloned().unwrap_or_default()
    }
}

/// Per-name self time, summed over requests, plus the request count.
#[derive(Clone, Default)]
pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, u64>,
    pub requests: u64,
    pub request_ns: u64,
}

impl SelfTimes {
    fn add(&mut self, request: &Request) {
        let mut child_ns = vec![0u64; request.spans.len()];
        for span in &request.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.nanos();
            }
        }
        for (span, children) in request.spans.iter().zip(child_ns) {
            *self.by_name.entry(span.name).or_insert(0) += span.nanos().saturating_sub(children);
        }
        self.requests += 1;
        self.request_ns += request.spans[0].nanos();
    }

    /// Mean self time of `name` per request, microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let total = self.by_name.get(name).copied().unwrap_or(0);
        total as f64 / 1e3 / self.requests.max(1) as f64
    }

    /// Mean request (root span) time, microseconds.
    pub fn request_us(&self) -> f64 {
        self.request_ns as f64 / 1e3 / self.requests.max(1) as f64
    }
}

/// Writes every kept span as `request span parent name start_ns end_ns`.
pub fn write_tsv<'a>(
    path: &Path,
    requests: impl IntoIterator<Item = &'a Request>,
) -> io::Result<()> {
    let mut out = String::from("request\tspan\tparent\tname\tstart_ns\tend_ns\n");
    for request in requests {
        for (i, span) in request.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                request.id, span.name, span.start_ns, span.end_ns
            );
        }
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut request = Request::new("request", 100);
        request.child("a", 110, 150);
        request.child("b", 150, 170);
        request.end(200);
        tracer.record(request);
        let times = tracer.times("request");
        assert_eq!(times.by_name["request"], 40);
        assert_eq!(times.by_name["a"], 40);
        assert_eq!(times.by_name["b"], 20);
        assert_eq!((times.requests, times.request_ns), (1, 100));
    }
}
