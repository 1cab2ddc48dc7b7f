//! Seeded inputs: the corpus files and the two query streams.
//!
//! Everything here is a pure function of the workload seed, and all of it
//! runs before any clock starts. The program under test only ever sees
//! the generated XML files and query texts.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;
use xsact::data::movies::{qm_queries, MovieGenConfig, MoviesGen};
use xsact::data::vocab;
use xsact::xml::{write_document, WriteOptions};

/// Documents in the corpus.
pub const DOCS: usize = 8;

/// Movies per document: the Figure 4 dataset size.
pub const MOVIES_PER_DOC: usize = 400;

/// Distinct keys of the serve_hot working set. With the default page
/// cache (1024 entries, 4 MiB) this fits both bounds with a 4x margin.
pub const HOT_KEYS: usize = 256;

/// Zipf exponent of the serve_hot key popularity.
pub const HOT_ZIPF_S: f64 = 1.1;

/// Length of the precomputed serve_hot key sequence; the load threads
/// walk it cyclically.
pub const HOT_SEQUENCE: usize = 1 << 16;

/// splitmix64: a tiny, well-mixed seeded generator, so the inputs do not
/// depend on any random-number crate's stream stability.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Writes the seeded corpus as `movies-NN.xml` files into `dir`.
pub fn write_corpus(dir: &Path, seed: u64) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut rng = Rng::new(seed, 1);
    for i in 0..DOCS {
        let config =
            MovieGenConfig { seed: rng.next_u64(), movies: MOVIES_PER_DOC, ..Default::default() };
        let xml = write_document(&MoviesGen::new(config).generate(), &WriteOptions::compact());
        fs::write(dir.join(format!("movies-{i:02}.xml")), xml)?;
    }
    Ok(())
}

/// Terms the serve query space is built from: every categorical value the
/// movie generator writes, so most term sets match something.
fn serve_terms() -> Vec<&'static str> {
    let mut terms: Vec<&'static str> = Vec::new();
    terms.extend(vocab::GENRES);
    terms.extend(vocab::KEYWORDS);
    terms.extend(vocab::LANGUAGES);
    terms.extend(vocab::COUNTRIES);
    terms.extend(["city", "coast", "mountains", "studio", "g", "pg", "pg13", "r"]);
    terms
}

/// `n` distinct queries of 2-4 distinct terms, in seeded random order.
/// Each query's terms are sorted, so two queries are distinct exactly when
/// their term sets are, which is also when their page-cache keys differ.
fn distinct_queries(rng: &mut Rng, n: usize) -> Vec<String> {
    let terms = serve_terms();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = 2 + rng.below(3);
        let mut picked: Vec<&str> = Vec::with_capacity(len);
        while picked.len() < len {
            let term = terms[rng.below(terms.len())];
            if !picked.contains(&term) {
                picked.push(term);
            }
        }
        picked.sort_unstable();
        let text = picked.join(" ");
        if seen.insert(text.clone()) {
            out.push(text);
        }
    }
    out
}

/// The serve_hot stream: [`HOT_KEYS`] distinct queries and a
/// [`HOT_SEQUENCE`]-long Zipf(`HOT_ZIPF_S`) sequence of indexes into them.
pub fn hot_queries(seed: u64) -> (Vec<String>, Vec<u32>) {
    let mut rng = Rng::new(seed, 3);
    let keys = distinct_queries(&mut rng, HOT_KEYS);
    let mut cdf = Vec::with_capacity(HOT_KEYS);
    let mut total = 0.0;
    for rank in 1..=HOT_KEYS {
        total += 1.0 / (rank as f64).powf(HOT_ZIPF_S);
        cdf.push(total);
    }
    let sequence = (0..HOT_SEQUENCE)
        .map(|_| {
            let target = rng.unit() * total;
            cdf.partition_point(|&c| c <= target).min(HOT_KEYS - 1) as u32
        })
        .collect();
    (keys, sequence)
}

/// The compare stream: QM1-QM8 followed by every other genre/keyword pair,
/// in seeded order. Pairs with fewer than two results are dropped later,
/// against the reference corpus, before any clock starts.
pub fn compare_queries(seed: u64) -> Vec<String> {
    let qm: Vec<String> = qm_queries().into_iter().map(|(_, text)| text).collect();
    let mut others: Vec<String> = vocab::GENRES
        .iter()
        .flat_map(|g| vocab::KEYWORDS.iter().map(move |k| format!("{g} {k}")))
        .filter(|q| !qm.contains(q))
        .collect();
    Rng::new(seed, 4).shuffle(&mut others);
    qm.into_iter().chain(others).collect()
}
