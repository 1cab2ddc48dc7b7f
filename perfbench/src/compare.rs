//! compare: the paper's search -> features -> DFS -> table session.
//!
//! One thread runs a closed loop of
//! `Corpus::query(q)?.top(RESULT_CAP).size_bound(SIZE_BOUND).compare(MultiSwap)`
//! plus the table render over the genre/keyword query set, on a corpus
//! whose feature cache setup has already filled. It loads the index, the
//! corpus fan-out and merge, the feature cache and the DFS core, and never
//! touches the serving runtime or the wire.

use crate::measure::{LoopOutcome, Report, Samples};
use crate::trace::{Request, Tracer};
use std::path::Path;
use std::time::{Duration, Instant};
use xsact::core::{dod_total, render_table, run_algorithm, Comparison};
use xsact::prelude::*;

/// Results compared per query: the Figure 4 workload's result cap.
pub const RESULT_CAP: usize = 6;

/// Comparison-table size bound `L`: the Figure 4 workload's bound.
pub const SIZE_BOUND: usize = 6;

/// Most comparisons per second expected, with headroom: sizes the
/// latency buffer so it never grows during the window.
const MAX_RATE: usize = 20_000;

/// What one comparison must reproduce.
#[derive(Clone, PartialEq, Eq)]
pub struct Expected {
    pub dod: u32,
    pub table: String,
}

/// The compare query set, verified: every query with at least two results
/// and its reference outcome from a separate single-shard corpus. Queries
/// with fewer than two results cannot be compared and are left out here,
/// before any clock starts.
pub struct CompareSet {
    pub queries: Vec<String>,
    pub expected: Vec<Expected>,
}

impl CompareSet {
    pub fn build(dir: &Path, candidates: Vec<String>) -> XsactResult<CompareSet> {
        let corpus = Corpus::from_dir(dir)?.with_shards(1);
        let (mut queries, mut expected) = (Vec::new(), Vec::new());
        for text in candidates {
            let (outcome, hits) = match compare_op(&corpus, &text) {
                Ok(found) => found,
                Err(XsactError::NotEnoughResults { .. } | XsactError::NoResults { .. }) => continue,
                Err(e) => return Err(e),
            };
            if hits >= 2 {
                queries.push(text);
                expected.push(outcome);
            }
        }
        if queries.is_empty() {
            return Err(XsactError::InvalidConfig(
                "no candidate query compares two or more results".to_owned(),
            ));
        }
        Ok(CompareSet { queries, expected })
    }
}

/// One comparison session, as a user runs it: the fluent facade call and
/// the rendered table. Returns the outcome and how many results it
/// compared.
pub fn compare_op(corpus: &Corpus, text: &str) -> XsactResult<(Expected, usize)> {
    let outcome =
        corpus.query(text)?.top(RESULT_CAP).size_bound(SIZE_BOUND).compare(Algorithm::MultiSwap)?;
    Ok((Expected { dod: outcome.dod(), table: outcome.table() }, outcome.hits.len()))
}

/// Counters the traced comparison collects besides its spans.
#[derive(Default)]
pub struct PipelineCounters {
    pub requests: u64,
    pub swap_rounds: u64,
    pub swap_moves: u64,
}

/// [`compare_op`] split into the public calls it is made of, one span
/// each, so every layer's time shows: `corpus.topk` is
/// `CorpusQuery::features` (fan-out, merge and the feature-cache lookups),
/// then `core.instance` (`Comparison::instance`), `core.dfs`
/// (`run_algorithm` plus `dod_total`, exactly what `Comparison::run`
/// does) and `core.table` (`render_table`). The outcome is the same as
/// [`compare_op`]'s.
pub fn compare_op_traced(
    corpus: &Corpus,
    text: &str,
    tracer: &mut Tracer,
    counters: &mut PipelineCounters,
) -> XsactResult<(Expected, usize)> {
    let start = tracer.now();
    let query = corpus.query(text)?.top(RESULT_CAP).size_bound(SIZE_BOUND);
    let t_topk = tracer.now();
    let features = query.features()?;
    let t_instance = tracer.now();
    if features.len() < 2 {
        return Err(XsactError::NotEnoughResults { query: text.to_owned(), found: features.len() });
    }
    let instance = Comparison::new(&features).size_bound(SIZE_BOUND).instance();
    let t_dfs = tracer.now();
    let (set, swaps) = run_algorithm(&instance, Algorithm::MultiSwap);
    let dod = dod_total(&instance, &set);
    let t_table = tracer.now();
    let table = render_table(&instance, &set);
    let end = tracer.now();
    let mut request = Request::new("request", start);
    request.child("corpus.topk", t_topk, t_instance);
    request.child("core.instance", t_instance, t_dfs);
    request.child("core.dfs", t_dfs, t_table);
    request.child("core.table", t_table, end);
    request.end(end);
    tracer.record(request);
    counters.requests += 1;
    counters.swap_rounds += u64::from(swaps.rounds);
    counters.swap_moves += u64::from(swaps.moves);
    Ok((Expected { dod, table }, features.len()))
}

/// Mean time of the feature lookups alone, microseconds: for each query of
/// `set`, a repeated `features()` call on a query value whose fan-out the
/// first call memoised. Runs apart from the traced loop, so it adds no
/// work to the traced requests; each timed call is recorded as a
/// `workbench.features` span.
pub fn features_probe(corpus: &Corpus, set: &CompareSet, tracer: &mut Tracer) -> XsactResult<f64> {
    let mut total_ns = 0;
    for text in &set.queries {
        let query = corpus.query(text)?.top(RESULT_CAP).size_bound(SIZE_BOUND);
        std::hint::black_box(query.features()?);
        let start = tracer.now();
        let repeat = query.features()?;
        let end = tracer.now();
        std::hint::black_box(repeat);
        let mut probe = Request::new("workbench.features", start);
        probe.end(end);
        tracer.record(probe);
        total_ns += end - start;
    }
    Ok(total_ns as f64 / 1e3 / set.queries.len().max(1) as f64)
}

/// Loads the corpus from its files and fills its feature cache by running
/// every comparison once: everything `setup_s` covers. Returns the corpus
/// and how many warm-up outcomes differed from the reference.
pub fn set_up(dir: &Path, set: &CompareSet) -> XsactResult<(Corpus, u64)> {
    let corpus = Corpus::from_dir(dir)?.with_shards(crate::nproc());
    let mut wrong = 0;
    for (text, expected) in set.queries.iter().zip(&set.expected) {
        if compare_op(&corpus, text)?.0 != *expected {
            wrong += 1;
        }
    }
    Ok((corpus, wrong))
}

/// Closed loop over `set` from position `*next` for `run_for`; traced
/// through [`compare_op_traced`] when `tracer` is given.
pub fn closed_loop(
    corpus: &Corpus,
    set: &CompareSet,
    next: &mut usize,
    run_for: Duration,
    samples: &mut Samples,
    mut tracer: Option<(&mut Tracer, &mut PipelineCounters)>,
) -> LoopOutcome {
    let mut outcome = LoopOutcome::default();
    let start = Instant::now();
    let deadline = start + run_for;
    while Instant::now() < deadline {
        let i = *next % set.queries.len();
        *next += 1;
        let t0 = Instant::now();
        let result = match tracer.as_mut() {
            Some((tracer, counters)) => {
                compare_op_traced(corpus, &set.queries[i], tracer, counters)
            }
            None => compare_op(corpus, &set.queries[i]),
        };
        samples.push(t0.elapsed().as_nanos() as u64);
        match result {
            Ok((got, hits)) if hits >= 2 && got == set.expected[i] => outcome.ok += 1,
            _ => outcome.failed += 1,
        }
    }
    outcome.wall = start.elapsed();
    outcome
}

/// The end-to-end run of compare.
pub fn run(dir: &Path, set: &CompareSet, seconds: u64) -> XsactResult<Report> {
    let mut setups = Vec::with_capacity(crate::SETUP_REPS);
    let mut wrong = 0;
    let mut corpus = None;
    for _ in 0..crate::SETUP_REPS {
        drop(corpus.take());
        let t = Instant::now();
        let (fresh, warm_wrong) = set_up(dir, set)?;
        setups.push(t.elapsed());
        wrong += warm_wrong;
        corpus = Some(fresh);
    }
    let corpus = corpus.expect("at least one setup");
    let mut outcome = LoopOutcome::default();
    let mut samples = Samples::with_room(seconds as usize * MAX_RATE);
    let mut next = 0;
    let segments = crate::segments(seconds);
    let mut segment_p99 = Vec::with_capacity(segments as usize);
    for _ in 0..segments {
        let segment = Duration::from_secs(seconds) / segments;
        let before = samples.len();
        let part = closed_loop(&corpus, set, &mut next, segment, &mut samples, None);
        segment_p99.extend(crate::segment_line(&part, &mut samples.recorded()[before..]));
        outcome.absorb(part);
    }
    let setup = crate::measure::median(&setups);
    Ok(crate::e2e_report(&outcome, &mut samples, &mut segment_p99, setup, wrong == 0))
}
