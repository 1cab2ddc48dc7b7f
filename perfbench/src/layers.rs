//! The traced run: per-layer figures, timed from outside each layer's
//! public functions.
//!
//! Each workload's traced run reports every per-layer metric. The layers a
//! workload loads are measured on its own traffic; the layers it bypasses
//! are probed with the same workload's queries (serve_hot's query texts
//! through the comparison pipeline, the compare set through a serving
//! front end), so every figure is measured, never a placeholder. Which
//! layer each workload loads is recorded in `perfbench/METHOD.md`.

use crate::compare::{self, CompareSet, PipelineCounters};
use crate::inputs;
use crate::measure::{self, Report};
use crate::serve::{self, Stream};
use crate::trace::{self, SelfTimes, Tracer};
use crate::Workload;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsact::entity::extract_features;
use xsact::prelude::*;

/// Queries the index probe runs per workload.
const INDEX_PROBE_QUERIES: usize = 512;

/// Queries whose compared results the entity probe re-extracts.
const ENTITY_PROBE_QUERIES: usize = 24;

/// Queries of a serve stream the pipeline probe compares.
const PIPELINE_PROBE_QUERIES: usize = 48;

/// Length of each probe of a layer the workload bypasses.
const PROBE: Duration = Duration::from_secs(2);

/// Rounds of the serving trace (three one-second segments each) when it
/// probes a workload that bypasses serving.
const PROBE_ROUNDS: u32 = 2;

/// `xml.parse_ms`, `index.build_ms` (both medians of three passes over
/// the corpus files) and `index.packed_bytes`.
fn build_probe(dir: &Path) -> XsactResult<(f64, f64, f64)> {
    let mut paths: Vec<_> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    paths.sort();
    let texts: Vec<String> = paths.iter().map(fs::read_to_string).collect::<Result<_, _>>()?;
    let (mut parse, mut build, mut packed) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        let (mut parse_t, mut build_t) = (Duration::ZERO, Duration::ZERO);
        packed = 0;
        for text in &texts {
            let t = Instant::now();
            let doc = xsact::xml::parse_document(text)?;
            parse_t += t.elapsed();
            let t = Instant::now();
            let wb = Workbench::from_document(doc);
            build_t += t.elapsed();
            packed += wb.index_stats().packed_postings_bytes;
        }
        parse.push(parse_t);
        build.push(build_t);
    }
    Ok((
        measure::median(&parse).as_secs_f64() * 1e3,
        measure::median(&build).as_secs_f64() * 1e3,
        packed as f64,
    ))
}

/// Per-query index cost: every document's `Workbench::search_top_k` at
/// top-`k`, with the executor counters it adds.
struct IndexLayer {
    search_us: f64,
    postings_scanned: f64,
    gallop_probes: f64,
    candidates_pruned: f64,
}

fn index_probe(corpus: &Corpus, queries: &[String], k: usize) -> IndexLayer {
    let queries: Vec<Query> =
        queries.iter().take(INDEX_PROBE_QUERIES).map(|q| Query::parse(q)).collect();
    let before = corpus.executor_stats();
    let mut elapsed = Duration::ZERO;
    for query in &queries {
        for doc in 0..corpus.len() {
            let wb = corpus.workbench(DocId(doc as u32));
            let t = Instant::now();
            black_box(wb.search_top_k(query, k));
            elapsed += t.elapsed();
        }
    }
    let after = corpus.executor_stats();
    let n = queries.len().max(1) as f64;
    IndexLayer {
        search_us: elapsed.as_secs_f64() * 1e6 / n,
        postings_scanned: (after.postings_scanned - before.postings_scanned) as f64 / n,
        gallop_probes: (after.gallop_probes - before.gallop_probes) as f64 / n,
        candidates_pruned: (after.candidates_pruned - before.candidates_pruned) as f64 / n,
    }
}

/// Mean `extract_features` time per result: what one feature-cache miss
/// costs, over the results the first queries of `set` compare.
fn entity_probe(corpus: &Corpus, set: &CompareSet) -> XsactResult<f64> {
    let (mut elapsed, mut extractions) = (Duration::ZERO, 0u32);
    for text in set.queries.iter().take(ENTITY_PROBE_QUERIES) {
        let outcome = corpus
            .query(text)?
            .top(compare::RESULT_CAP)
            .size_bound(compare::SIZE_BOUND)
            .compare(Algorithm::MultiSwap)?;
        for hit in &outcome.hits {
            let wb = corpus.workbench(hit.doc);
            let label = format!("{} ({})", hit.result.label, hit.doc_name);
            let t = Instant::now();
            black_box(extract_features(
                wb.document(),
                wb.engine().summary(),
                hit.result.root,
                label,
            ));
            elapsed += t.elapsed();
            extractions += 1;
        }
    }
    Ok(elapsed.as_secs_f64() * 1e6 / f64::from(extractions.max(1)))
}

fn feature_cache(corpus: &Corpus) -> CacheStats {
    (0..corpus.len()).fold(CacheStats::default(), |acc, doc| {
        let stats = corpus.workbench(DocId(doc as u32)).cache_stats();
        CacheStats { hits: acc.hits + stats.hits, misses: acc.misses + stats.misses }
    })
}

/// The comparison pipeline, traced: request trees and counters.
struct PipelineLayer {
    times: SelfTimes,
    counters: PipelineCounters,
    cache_hit_ratio: f64,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    ok: u64,
    failed: u64,
    /// Mean time of a feature lookup pass alone, from the probe.
    features_us: f64,
    tracer: Tracer,
}

/// Runs `set` on `corpus` (feature cache already filled) for `run_for`, in
/// one-second segments alternating untraced and traced, then the
/// feature-lookup probe. The feature-cache hit ratio covers the segments
/// only, not the probe's lookups.
fn pipeline_trace(
    corpus: &Corpus,
    set: &CompareSet,
    run_for: Duration,
    epoch: Instant,
) -> XsactResult<PipelineLayer> {
    let mut tracer = Tracer::new(epoch, 1 << 50);
    let mut counters = PipelineCounters::default();
    let (mut untraced, mut traced) =
        (measure::LoopOutcome::default(), measure::LoopOutcome::default());
    let before = feature_cache(corpus);
    let mut next = 0;
    for segment in 0..(run_for.as_secs() as usize).max(2) {
        let traced_segment = segment % 2 == 1;
        let hooks = traced_segment.then_some((&mut tracer, &mut counters));
        let mut samples = measure::Samples::with_room(20_000);
        let outcome = compare::closed_loop(
            corpus,
            set,
            &mut next,
            Duration::from_secs(1),
            &mut samples,
            hooks,
        );
        if traced_segment { &mut traced } else { &mut untraced }.absorb(outcome);
    }
    let after = feature_cache(corpus);
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    let features_us = compare::features_probe(corpus, set, &mut tracer)?;
    Ok(PipelineLayer {
        times: tracer.times("request"),
        counters,
        cache_hit_ratio: hits as f64 / lookups.max(1) as f64,
        untraced_ops_per_s: untraced.attempted() as f64 / untraced.wall.as_secs_f64(),
        traced_ops_per_s: traced.attempted() as f64 / traced.wall.as_secs_f64(),
        ok: untraced.ok + traced.ok,
        failed: untraced.failed + traced.failed,
        features_us,
        tracer,
    })
}

/// The hit count in a reference reply's `OK n` header.
fn shown(reply: &str) -> usize {
    reply
        .lines()
        .next()
        .and_then(|h| h.strip_prefix("OK "))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The traced run of `workload`.
pub fn run(
    workload: Workload,
    dir: &Path,
    seed: u64,
    seconds: u64,
    spans_out: &Path,
) -> XsactResult<Report> {
    let epoch = Instant::now();
    let (parse_ms, build_ms, packed_bytes) = build_probe(dir)?;
    let defaults = ServeConfig::default();
    let own = Duration::from_secs(seconds);
    let (serving, pipeline, index, entity_us, mut failed) = match workload {
        Workload::ServeHot => {
            let stream = Stream::hot(seed, dir)?;
            let corpus = Arc::new(Corpus::from_dir(dir)?.with_shards(crate::nproc()));
            let rounds = (seconds / 3).max(1) as u32;
            let serving = serve::trace(Arc::clone(&corpus), &stream, rounds, epoch)?;
            let candidates: Vec<String> = stream
                .queries
                .iter()
                .zip(&stream.expected)
                .filter(|(_, expected)| shown(expected) >= 2)
                .map(|(query, _)| query.clone())
                .take(PIPELINE_PROBE_QUERIES)
                .collect();
            let set = CompareSet::build(dir, candidates)?;
            let entity_us = entity_probe(&corpus, &set)?;
            let mut failed = 0;
            for (text, expected) in set.queries.iter().zip(&set.expected) {
                if compare::compare_op(&corpus, text)?.0 != *expected {
                    failed += 1;
                }
            }
            let pipeline = pipeline_trace(&corpus, &set, PROBE, epoch)?;
            let index = index_probe(&corpus, &stream.queries, defaults.default_top);
            (serving, pipeline, index, entity_us, failed)
        }
        Workload::Compare => {
            let set = CompareSet::build(dir, inputs::compare_queries(seed))?;
            let (corpus, failed) = compare::set_up(dir, &set)?;
            let pipeline = pipeline_trace(&corpus, &set, own, epoch)?;
            let entity_us = entity_probe(&corpus, &set)?;
            let index = index_probe(&corpus, &set.queries, compare::RESULT_CAP);
            let stream = Stream {
                expected: serve::references(dir, &set.queries, defaults.default_top)?,
                order: (0..set.queries.len() as u32).collect(),
                queries: set.queries,
                warmup: Vec::new(),
            };
            let serving = serve::trace(Arc::new(corpus), &stream, PROBE_ROUNDS, epoch)?;
            (serving, pipeline, index, entity_us, failed)
        }
    };
    failed += serving.failed + pipeline.failed;
    let ok = serving.ok + pipeline.ok;
    let all_requests = serving.tracers.iter().chain([&pipeline.tracer]).flat_map(|t| &t.kept);
    trace::write_tsv(spans_out, all_requests)?;

    let pipe = &pipeline.times;
    let features_us = pipeline.features_us;
    let topk_us = pipe.mean_us("corpus.topk") - features_us;
    let session = &serving.session;
    let session_us = session.request_us();
    let tcp_us = serving.request.request_us();
    let executed = &serving.executed;
    let requests = pipeline.counters.requests.max(1) as f64;

    // The workload's own request, split into layer self times plus the
    // residual no layer accounts for.
    let (request_us, residual_us) = match workload {
        Workload::Compare => {
            let residual = pipe.mean_us("request");
            eprintln!(
                "ladder: request {:.1} us = corpus.topk {topk_us:.1} + workbench.features {features_us:.1} \
                 + core.instance {:.1} + core.dfs {:.1} + core.table {:.1} + residual {residual:.1}",
                pipe.request_us(),
                pipe.mean_us("core.instance"),
                pipe.mean_us("core.dfs"),
                pipe.mean_us("core.table"),
            );
            (pipe.request_us(), residual)
        }
        _ => {
            let residual = tcp_us - session_us - serving.reply_write_us;
            eprintln!(
                "ladder: request {tcp_us:.1} us = serve.session {session_us:.1} (queue_wait {:.1} + execute {:.1} \
                 + self {:.1}) + serve.reply_write {:.1} + residual {residual:.1}",
                session.mean_us("serve.queue_wait"),
                session.mean_us("serve.execute"),
                session.mean_us("serve.session"),
                serving.reply_write_us,
            );
            (tcp_us, residual)
        }
    };
    let (untraced_ops, traced_ops) = match workload {
        Workload::Compare => (pipeline.untraced_ops_per_s, pipeline.traced_ops_per_s),
        _ => (serving.untraced_ops_per_s, serving.traced_ops_per_s),
    };

    let mut report =
        Report { correct: failed == 0, attempted: ok + failed, failed, metrics: Vec::new() };
    report.metric("xml.parse_ms", parse_ms, "ms");
    report.metric("index.build_ms", build_ms, "ms");
    report.metric("index.packed_bytes", packed_bytes, "bytes");
    report.metric("index.search_us", index.search_us, "us");
    report.metric("index.postings_scanned", index.postings_scanned, "count");
    report.metric("index.gallop_probes", index.gallop_probes, "count");
    report.metric("index.candidates_pruned", index.candidates_pruned, "count");
    report.metric("corpus.topk_us", topk_us, "us");
    report.metric("corpus.shard_busy_ms", serving.shard_busy_ms, "ms");
    report.metric("corpus.shard_skew", serving.shard_skew, "ratio");
    report.metric("entity.extract_us", entity_us, "us");
    report.metric("workbench.features_us", features_us, "us");
    report.metric("workbench.feature_cache_hit_ratio", pipeline.cache_hit_ratio, "ratio");
    report.metric("core.instance_us", pipe.mean_us("core.instance"), "us");
    report.metric("core.dfs_us", pipe.mean_us("core.dfs"), "us");
    report.metric("core.table_us", pipe.mean_us("core.table"), "us");
    report.metric("core.swap_rounds", pipeline.counters.swap_rounds as f64 / requests, "count");
    report.metric("core.swap_moves", pipeline.counters.swap_moves as f64 / requests, "count");
    report.metric("serve.session_us", session_us, "us");
    report.metric("serve.queue_wait_us", executed.mean(executed.queue_wait_ns) / 1e3, "us");
    report.metric("serve.execute_us", executed.mean(executed.execute_ns) / 1e3, "us");
    report.metric("serve.batch_size_mean", executed.mean(executed.batch_size_sum), "count");
    report.metric("serve.cache_hit_ratio", serving.cache_hit_ratio, "ratio");
    report.metric("serve.cache_evictions", serving.evictions_per_query, "count");
    report.metric("serve.postings_shared", serving.postings_shared_per_query, "count");
    report.metric("serve.rejected", serving.rejected_ratio, "ratio");
    report.metric("serve.wire_overhead_us", tcp_us - session_us, "us");
    report.metric("serve.reply_write_us", serving.reply_write_us, "us");
    report.metric("trace.request_us", request_us, "us");
    report.metric("trace.residual_us", residual_us, "us");
    report.metric("trace.untraced_throughput_ops", untraced_ops, "1/s");
    report.metric("trace.traced_throughput_ops", traced_ops, "1/s");
    Ok(report)
}
