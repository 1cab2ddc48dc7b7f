//! End-to-end and per-layer benchmark of the XSACT facade.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|compare> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one process running one workload. Before any clock starts
//! it writes the seeded corpus (8 movie documents) as XML files and builds
//! reference answers from a separate corpus instance. `setup_s` then times
//! everything between an idle process and the first timed request:
//! `Corpus::from_dir` over the files, server start and warm-up (or the
//! feature-cache fill, for compare); it sets up [`SETUP_REPS`] times and
//! reports the median. The timed window runs the workload's closed loop
//! for `--seconds` and checks every reply against its reference.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a separate traced
//! run (see `layers.rs`), and the spans go to
//! `perfbench/out/spans-<workload>-<seed>.tsv`. Working files live under
//! `perfbench/out/` and are removed when the run ends.

mod compare;
mod inputs;
mod layers;
mod measure;
mod serve;
mod trace;

use measure::{LoopOutcome, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use xsact::XsactResult;

/// Setups per run, for every workload; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    Compare,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_hot" => Some(Workload::ServeHot),
            "compare" => Some(Workload::Compare),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload_name = value("--workload")?.to_owned();
    let workload =
        Workload::parse(&workload_name).ok_or(format!("unknown workload {workload_name:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, workload_name, seed: number("--seed")?, seconds, trace })
}

/// Corpus shards: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// How many segments of about 2.5 s a timed window of `seconds` is cut
/// into. serve_hot opens a fresh connection per segment, so the placement
/// of the client and connection threads on the CPUs is drawn anew several
/// times per run instead of once.
pub fn segments(seconds: u64) -> u32 {
    ((seconds as f64 / 2.5).round() as u32).max(1)
}

/// Closes one timed segment: prints its ops, ops/s, p50 and p99 (ns) to
/// stderr and returns its exact p99, if it has samples. Sorts the
/// segment's samples in place.
pub fn segment_line(part: &LoopOutcome, samples: &mut [u32]) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let (p50, p99) = (measure::percentile(samples, 0.5), measure::percentile(samples, 0.99));
    let ops = part.attempted();
    eprintln!("segment: {ops} {:.3} {p50} {p99}", ops as f64 / part.wall.as_secs_f64());
    Some(p99)
}

/// The end-to-end metrics of one timed window. `p50_ms` is the exact p50
/// of every sample; `p99_ms` is the median of the segments' exact p99s,
/// so a host stall that covers fewer than half of the run's segments does
/// not set it (see `perfbench/METHOD.md`). `rss_mib` leaves out the
/// latency buffer's bytes, so it is the program's and the corpus's memory,
/// not a function of the run length.
pub fn e2e_report(
    outcome: &LoopOutcome,
    samples: &mut measure::Samples,
    segment_p99: &mut [u32],
    setup: Duration,
    setup_ok: bool,
) -> Report {
    let rss_mib = measure::peak_rss_mib() - samples.bytes() as f64 / measure::MIB;
    let attempted = outcome.attempted();
    let count = samples.len();
    let (p50, p99) = if count == 0 {
        (0, 0)
    } else {
        (measure::percentile(samples.recorded(), 0.50), measure::percentile(segment_p99, 0.50))
    };
    let wall = outcome.wall.as_secs_f64();
    eprintln!(
        "timed window: {attempted} ops ({} failed) in {wall:.3} s; {count} latency samples, \
         p50 {:.4} ms, median segment p99 {:.4} ms",
        outcome.failed,
        measure::ns_to_ms(p50),
        measure::ns_to_ms(p99),
    );
    let mut report = Report {
        correct: setup_ok && attempted > 0 && outcome.failed == 0,
        attempted,
        failed: outcome.failed,
        metrics: Vec::new(),
    };
    report.metric("setup_s", setup.as_secs_f64(), "s");
    report.metric("p50_ms", measure::ns_to_ms(p50), "ms");
    report.metric("p99_ms", measure::ns_to_ms(p99), "ms");
    report.metric("throughput_ops", attempted as f64 / wall, "1/s");
    report.metric("ok_ratio", outcome.ok as f64 / attempted.max(1) as f64, "ratio");
    report.metric("rss_mib", rss_mib, "MiB");
    report
}

fn run(args: &Args, work: &Path, out: &Path) -> XsactResult<Report> {
    let dir = work.join("corpus");
    inputs::write_corpus(&dir, args.seed)?;
    if args.trace {
        let spans = out.join(format!("spans-{}-{}.tsv", args.workload_name, args.seed));
        return layers::run(args.workload, &dir, args.seed, args.seconds, &spans);
    }
    match args.workload {
        Workload::ServeHot => serve::run(&dir, args.seed, args.seconds),
        Workload::Compare => {
            let set = compare::CompareSet::build(&dir, inputs::compare_queries(args.seed))?;
            compare::run(&dir, &set, args.seconds)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out.join(format!("run-{}-{}-{}", args.workload_name, args.seed, std::process::id()));
    let result = run(&args, &work, &out);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
