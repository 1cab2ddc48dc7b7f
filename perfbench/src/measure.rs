//! Exact statistics over raw samples, process memory, and the result line.

use std::fmt::Write as _;
use std::fs;
use std::time::Duration;

/// Raw per-op latencies of one load thread, nanoseconds, in a buffer
/// allocated and written before any clock starts. Recording never
/// allocates while the buffer has room, so the timed window's memory does
/// not grow with its op count and throughput cannot leak into `rss_mib`;
/// the buffer's own bytes are taken out of `rss_mib` (see
/// [`Samples::bytes`]).
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
}

impl Samples {
    /// Room for `ops` samples. The fill value is not zero so the pages are
    /// really written (a zeroed allocation can stay untouched).
    pub fn with_room(ops: usize) -> Samples {
        Samples { buf: vec![u32::MAX; ops.max(1)], len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The recorded samples.
    pub fn recorded(&mut self) -> &mut [u32] {
        &mut self.buf[..self.len]
    }

    /// Resident bytes of the buffer: all of it, since it is written in
    /// full when made.
    pub fn bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<u32>()
    }

    /// Forgets the recorded samples, keeping the buffer.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    pub fn push(&mut self, ns: u64) {
        let ns = ns.min(u64::from(u32::MAX)) as u32;
        if self.len < self.buf.len() {
            self.buf[self.len] = ns;
        } else {
            self.buf.push(ns);
        }
        self.len += 1;
    }
}

/// What a closed loop measured.
#[derive(Default)]
pub struct LoopOutcome {
    pub ok: u64,
    pub failed: u64,
    pub wall: Duration,
}

impl LoopOutcome {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    pub fn absorb(&mut self, other: LoopOutcome) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.wall += other.wall;
    }
}

/// Exact nearest-rank percentile of raw samples (`q` in `(0, 1]`); sorts
/// in place. Nearest rank is an observed value, never an interpolation or
/// a histogram bucket floor.
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of a small set of durations.
pub fn median(values: &[Duration]) -> Duration {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib * 1024.0 / MIB
}

pub fn ns_to_ms(ns: u32) -> f64 {
    ns as f64 / 1e6
}

/// What one run reports: the correctness verdict, the op counts, and the
/// named metrics with their units.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// The single JSON line the benchmark prints last.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_observed_sample() {
        let mut samples: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 0.50), 50);
        assert_eq!(percentile(&mut samples, 0.99), 99);
        assert_eq!(percentile(&mut samples, 1.0), 100);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn samples_outgrow_their_room_without_loss() {
        let mut samples = Samples::with_room(2);
        (1..=3).for_each(|ns| samples.push(ns));
        assert_eq!(samples.recorded(), &[1, 2, 3]);
        assert!(samples.bytes() >= 3 * 4);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report { correct: true, attempted: 3, failed: 0, metrics: Vec::new() };
        report.metric("p50_ms", 1.25, "ms");
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
