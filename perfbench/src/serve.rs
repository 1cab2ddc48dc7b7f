//! serve_hot: a closed loop over TCP against `serve_tcp`, every request a
//! page-cache hit.
//!
//! The workload loads the corpus from its XML files, starts a
//! `CorpusServer` with the default `ServeConfig` behind the
//! thread-per-connection front end, warms every key of a small Zipf key
//! set, and then drives the server over one socket, sending the next
//! request only after the previous reply arrived. Every timed request is
//! a cache hit, so the wire, framing, session and cache lookup do all the
//! work and the index and shard pool none.
//!
//! One connection, not one per CPU: with two connections the four load
//! and connection threads share the two CPUs of the host the bounds were
//! measured on, and how the scheduler placed them made whole runs differ
//! about twice as much as with one connection (see `perfbench/METHOD.md`).

use crate::inputs;
use crate::measure::{self, LoopOutcome, Report, Samples};
use crate::trace::{Request, SelfTimes, Tracer};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsact::prelude::*;
use xsact::serve::{serve_tcp, TcpServeHandle};

/// Most requests per second the loop is expected to reach, with headroom:
/// sizes the latency buffer so it never grows during the window.
const MAX_RATE: usize = 100_000;

/// A query stream and its verified answers: request `i` sends
/// `queries[order[i % order.len()]]` and must read back exactly
/// `expected` of that index.
pub struct Stream {
    pub queries: Vec<String>,
    pub expected: Vec<String>,
    pub order: Vec<u32>,
    /// Indexes sent during setup, before the clock starts.
    pub warmup: Vec<u32>,
}

impl Stream {
    /// Builds the seeded serve_hot stream with its references: every key
    /// is warmed, the timed order is the Zipf sequence. The references
    /// come from a separate single-shard corpus, rendered sequentially at
    /// the server's default top-k; none of this is timed.
    pub fn hot(seed: u64, dir: &Path) -> XsactResult<Stream> {
        let (queries, order) = inputs::hot_queries(seed);
        let warmup = (0..queries.len() as u32).collect();
        let expected = references(dir, &queries, ServeConfig::default().default_top)?;
        Ok(Stream { queries, expected, order, warmup })
    }

    /// The key of request `i`.
    fn key(&self, i: usize) -> usize {
        self.order[i % self.order.len()] as usize
    }
}

/// The reply body `serve_tcp` must send for each query: the `OK n` header
/// and the ranking a sequential `Corpus::query` renders at top-`k`.
pub fn references(dir: &Path, queries: &[String], k: usize) -> XsactResult<Vec<String>> {
    let corpus = Corpus::from_dir(dir)?.with_shards(1);
    let half = queries.len().div_ceil(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = queries
            .chunks(half.max(1))
            .map(|chunk| {
                let corpus = &corpus;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| {
                            let query = corpus.query(q)?;
                            let ranking = query.ranking();
                            let shown = ranking.hits.len().min(k);
                            Ok(format!("OK {shown}\n{}", ranking.render(k)))
                        })
                        .collect::<XsactResult<Vec<String>>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(queries.len());
        for worker in workers {
            out.extend(worker.join().expect("reference worker panicked")?);
        }
        Ok(out)
    })
}

/// One line-protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    body: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            body: String::new(),
        })
    }

    /// Sends `verb text` as one line and returns the reply body, without
    /// the lone `.` line that ends it.
    pub fn request(&mut self, verb: &str, text: &str) -> io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(verb.as_bytes());
        if !text.is_empty() {
            self.out.push(b' ');
            self.out.extend_from_slice(text.as_bytes());
        }
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.body.clear();
        loop {
            let start = self.body.len();
            if self.reader.read_line(&mut self.body)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            if &self.body[start..] == ".\n" {
                self.body.truncate(start);
                return Ok(&self.body);
            }
        }
    }
}

/// A running TCP server with its load connection.
pub struct Served {
    handle: TcpServeHandle,
    pub client: Client,
}

impl Served {
    pub fn start(corpus: Arc<Corpus>) -> XsactResult<Served> {
        let handle = serve_tcp(CorpusServer::start(corpus, ServeConfig::default()), "127.0.0.1:0")?;
        let client = Client::connect(handle.addr())?;
        Ok(Served { handle, client })
    }

    /// Replaces the load connection with a fresh one (and so the server's
    /// connection thread with a fresh thread).
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.client = Client::connect(self.handle.addr())?;
        Ok(())
    }

    /// Sends `indexes` over the load connection; returns how many replies
    /// differed from the reference.
    pub fn warm(&mut self, stream: &Stream, indexes: &[u32]) -> io::Result<u64> {
        let mut wrong = 0;
        for &key in indexes {
            let key = key as usize;
            if self.client.request("QUERY", &stream.queries[key])? != stream.expected[key] {
                wrong += 1;
            }
        }
        Ok(wrong)
    }

    /// The server's counters and histogram sums, scraped over a fresh
    /// connection (one held open across a window longer than the
    /// server's io timeout would be closed as idle).
    pub fn metrics(&self) -> io::Result<Metrics> {
        let mut control = Client::connect(self.handle.addr())?;
        let body = control.request("METRICS", "")?;
        Ok(Metrics(
            body.lines()
                .filter(|line| !line.starts_with('#') && !line.contains('{'))
                .filter_map(|line| {
                    let (name, value) = line.split_once(' ')?;
                    Some((name.to_owned(), value.trim().parse().ok()?))
                })
                .collect(),
        ))
    }

    /// Closes the connection and waits for the server to drain and join.
    pub fn stop(self) {
        let Served { handle, client } = self;
        drop(client);
        handle.shutdown();
        handle.wait();
    }
}

/// One `METRICS` scrape: metric name to value.
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self - earlier` for one metric.
    pub fn delta(&self, earlier: &Metrics, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }
}

/// Drives `client` through `stream` for `run_for`, from request `*next`
/// on, request after request; latencies go to `samples`. With `tracer`,
/// each request is also recorded as a `request` span. A broken connection
/// counts one failure and ends the loop.
pub fn closed_loop(
    client: &mut Client,
    stream: &Stream,
    next: &mut usize,
    run_for: Duration,
    samples: &mut Samples,
    mut tracer: Option<&mut Tracer>,
) -> LoopOutcome {
    let mut outcome = LoopOutcome::default();
    let start = Instant::now();
    let deadline = start + run_for;
    while Instant::now() < deadline {
        let key = stream.key(*next);
        *next += 1;
        let start_ns = tracer.as_ref().map_or(0, |t| t.now());
        let t0 = Instant::now();
        let reply = client.request("QUERY", &stream.queries[key]);
        let elapsed = t0.elapsed().as_nanos() as u64;
        if let Some(tracer) = tracer.as_deref_mut() {
            let mut request = Request::new("request", start_ns);
            request.end(start_ns + elapsed);
            tracer.record(request);
        }
        samples.push(elapsed);
        match reply {
            Ok(body) if body == stream.expected[key] => outcome.ok += 1,
            Ok(_) => outcome.failed += 1,
            Err(_) => {
                outcome.failed += 1;
                break;
            }
        }
    }
    outcome.wall = start.elapsed();
    outcome
}

/// Loads the corpus from its files, starts the server and warms it:
/// everything `setup_s` covers.
fn set_up(dir: &Path, stream: &Stream) -> XsactResult<(Served, u64)> {
    let corpus = Arc::new(Corpus::from_dir(dir)?.with_shards(crate::nproc()));
    let mut served = Served::start(corpus)?;
    let wrong = served.warm(stream, &stream.warmup)?;
    Ok((served, wrong))
}

/// Whether the timed window stayed all hits, judged from the server's own
/// cache counters: zero misses and zero evictions.
fn all_hits(before: &Metrics, after: &Metrics) -> bool {
    let hits = after.delta(before, "xsact_cache_hits");
    let misses = after.delta(before, "xsact_cache_misses");
    let evictions = after.delta(before, "xsact_cache_evictions");
    let verdict = misses == 0.0 && evictions == 0.0;
    eprintln!("regime: cache hits {hits} misses {misses} evictions {evictions} -> {verdict}");
    verdict
}

/// The end-to-end run of serve_hot.
pub fn run(dir: &Path, seed: u64, seconds: u64) -> XsactResult<Report> {
    let stream = Stream::hot(seed, dir)?;
    let mut setups = Vec::with_capacity(crate::SETUP_REPS);
    let mut wrong = 0;
    let mut served = None;
    for _ in 0..crate::SETUP_REPS {
        if let Some(previous) = served.take() {
            Served::stop(previous);
        }
        let t = Instant::now();
        let (fresh, warm_wrong) = set_up(dir, &stream)?;
        setups.push(t.elapsed());
        wrong += warm_wrong;
        served = Some(fresh);
    }
    let mut served = served.expect("at least one setup");
    let before = served.metrics()?;
    let mut next = 0;
    let mut outcome = LoopOutcome::default();
    let mut samples = Samples::with_room(seconds as usize * MAX_RATE);
    let segments = crate::segments(seconds);
    let mut segment_p99 = Vec::with_capacity(segments as usize);
    for _ in 0..segments {
        served.reconnect()?;
        let before = samples.len();
        let part = closed_loop(
            &mut served.client,
            &stream,
            &mut next,
            Duration::from_secs(seconds) / segments,
            &mut samples,
            None,
        );
        segment_p99.extend(crate::segment_line(&part, &mut samples.recorded()[before..]));
        outcome.absorb(part);
    }
    let after = served.metrics()?;
    served.stop();
    let regime_ok = all_hits(&before, &after);
    let setup = measure::median(&setups);
    Ok(crate::e2e_report(&outcome, &mut samples, &mut segment_p99, setup, wrong == 0 && regime_ok))
}

/// Per-layer figures of the serving path; see [`trace`].
pub struct ServeLayers {
    /// TCP requests of the traced segments (root spans only: the client
    /// cannot see inside the server).
    pub request: SelfTimes,
    pub untraced_ops_per_s: f64,
    pub traced_ops_per_s: f64,
    /// In-process `ServeSession::query` calls, with the queue-wait and
    /// execute durations each `QueryAnswer` reports as child spans.
    pub session: SelfTimes,
    /// Answers that executed on the shard pool (cache misses), warm-up
    /// included.
    pub executed: Executed,
    pub cache_hit_ratio: f64,
    pub evictions_per_query: f64,
    pub postings_shared_per_query: f64,
    pub rejected_ratio: f64,
    pub reply_write_us: f64,
    pub shard_busy_ms: f64,
    pub shard_skew: f64,
    pub ok: u64,
    pub failed: u64,
    pub tracers: Vec<Tracer>,
}

/// Length of one segment of the traced serving run.
const TRACE_SEGMENT: Duration = Duration::from_secs(1);

/// The traced serving run, in `rounds` rounds of three one-second
/// segments: untraced TCP, traced TCP (the two give the tracing overhead)
/// and `stream` through a traced in-process session. The TCP segments run
/// against a server warmed like the workload's, the session against a
/// second server over the same corpus, warmed the same way; both run for
/// the whole loop, so the TCP round trip and the session it contains are
/// measured in neighbouring seconds, under the same host conditions.
pub fn trace(
    corpus: Arc<Corpus>,
    stream: &Stream,
    rounds: u32,
    epoch: Instant,
) -> XsactResult<ServeLayers> {
    let mut served = Served::start(Arc::clone(&corpus))?;
    let mut failed = served.warm(stream, &stream.warmup)?;
    let server = CorpusServer::start(corpus, ServeConfig::default());
    let mut session = server.session();
    let mut executed = Executed::default();
    for &key in &stream.warmup {
        let answer = session.query(&stream.queries[key as usize])?;
        executed.note(&answer);
        if render(&answer, session.top()) != stream.expected[key as usize] {
            failed += 1;
        }
    }
    let before = served.metrics()?;
    let (mut next, mut session_next) = (0, 0);
    let mut tcp_tracer = Tracer::new(epoch, 1 << 40);
    let mut session_tracer = Tracer::new(epoch, 2 << 40);
    let (mut untraced, mut traced) = (LoopOutcome::default(), LoopOutcome::default());
    let mut session_ok = 0;
    let mut samples = Samples::with_room(MAX_RATE);
    for _ in 0..rounds.max(1) {
        for traced_segment in [false, true] {
            samples.clear();
            let outcome = closed_loop(
                &mut served.client,
                stream,
                &mut next,
                TRACE_SEGMENT,
                &mut samples,
                traced_segment.then_some(&mut tcp_tracer),
            );
            if traced_segment { &mut traced } else { &mut untraced }.absorb(outcome);
        }
        let deadline = Instant::now() + TRACE_SEGMENT;
        while Instant::now() < deadline {
            let key = stream.key(session_next);
            session_next += 1;
            match session_request(&mut session, &stream.queries[key], &mut session_tracer) {
                Ok(answer) => {
                    executed.note(&answer);
                    if render(&answer, session.top()) == stream.expected[key] {
                        session_ok += 1;
                    } else {
                        failed += 1;
                    }
                }
                Err(_) => failed += 1,
            }
        }
    }
    let after = served.metrics()?;
    served.stop();
    drop(session);
    drop(server);

    let served_queries = after.delta(&before, "xsact_queries_served").max(1.0);
    let hits = after.delta(&before, "xsact_cache_hits");
    let lookups = hits + after.delta(&before, "xsact_cache_misses");
    let rejected: f64 = [
        "xsact_rejected_overload",
        "xsact_rejected_budget",
        "xsact_rejected_deadline",
        "xsact_shard_failed",
    ]
    .iter()
    .map(|name| after.delta(&before, name))
    .sum();
    let attempted = (untraced.attempted() + traced.attempted()).max(1) as f64;
    let shards = crate::nproc().min(inputs::DOCS);
    let busy: Vec<(f64, f64)> = (0..shards)
        .map(|i| {
            let name = format!("xsact_shard_{i}_busy_ns");
            (after.get(&format!("{name}_sum")), after.get(&format!("{name}_count")).max(1.0))
        })
        .collect();
    let busy_max = busy.iter().map(|b| b.0).fold(0.0, f64::max);
    let busy_min = busy.iter().map(|b| b.0).fold(f64::INFINITY, f64::min);
    Ok(ServeLayers {
        request: tcp_tracer.times("request"),
        untraced_ops_per_s: untraced.attempted() as f64 / untraced.wall.as_secs_f64(),
        traced_ops_per_s: traced.attempted() as f64 / traced.wall.as_secs_f64(),
        session: session_tracer.times("serve.session"),
        executed,
        cache_hit_ratio: hits / lookups.max(1.0),
        evictions_per_query: after.delta(&before, "xsact_cache_evictions") / served_queries,
        postings_shared_per_query: after.delta(&before, "xsact_postings_shared") / served_queries,
        rejected_ratio: rejected / attempted,
        reply_write_us: after.delta(&before, "xsact_reply_write_ns_sum")
            / after.delta(&before, "xsact_reply_write_ns_count").max(1.0)
            / 1e3,
        shard_busy_ms: busy.iter().map(|(sum, count)| sum / count).sum::<f64>()
            / shards as f64
            / 1e6,
        shard_skew: busy_max / busy_min.max(1.0),
        ok: untraced.ok + traced.ok + session_ok,
        failed: failed + untraced.failed + traced.failed,
        tracers: vec![tcp_tracer, session_tracer],
    })
}

/// The body `serve_tcp` would send for `answer`.
fn render(answer: &QueryAnswer, top: usize) -> String {
    let shown = answer.ranking.hits.len().min(top);
    format!("OK {shown}\n{}", answer.ranking.render(top))
}

/// Sums over answers that executed on the shard pool (not cache hits).
#[derive(Default)]
pub struct Executed {
    pub answers: u64,
    pub queue_wait_ns: u64,
    pub execute_ns: u64,
    pub batch_size_sum: u64,
}

impl Executed {
    fn note(&mut self, answer: &QueryAnswer) {
        if !answer.execute.is_zero() {
            self.answers += 1;
            self.queue_wait_ns += answer.queue_wait.as_nanos() as u64;
            self.execute_ns += answer.execute.as_nanos() as u64;
            self.batch_size_sum += answer.batch_size as u64;
        }
    }

    /// Mean of `total` over the executed answers.
    pub fn mean(&self, total: u64) -> f64 {
        total as f64 / self.answers.max(1) as f64
    }
}

/// One traced `ServeSession::query` call: a `serve.session` span with the
/// queue wait and execute the answer reports as its children.
fn session_request(
    session: &mut ServeSession,
    text: &str,
    tracer: &mut Tracer,
) -> XsactResult<QueryAnswer> {
    let start = tracer.now();
    let answer = session.query(text)?;
    let end = tracer.now();
    // The session stamps its own start on entry, so the queue wait is
    // anchored at the call's start and the execute right after it.
    let wait_end = start + answer.queue_wait.as_nanos() as u64;
    let mut request = Request::new("serve.session", start);
    request.child("serve.queue_wait", start, wait_end);
    request.child("serve.execute", wait_end, wait_end + answer.execute.as_nanos() as u64);
    request.end(end);
    tracer.record(request);
    Ok(answer)
}
