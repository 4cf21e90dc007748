//! Seeded inputs: the document corpus and the XDB query strings.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with the same seed send the server the same documents and the same
//! request strings in the same order (per connection).

use netmark_corpus::{CorpusConfig, RawDoc, BODY_WORDS, SECTION_NAMES};
use netmark_xdb::XdbQuery;
use std::collections::HashSet;

/// SplitMix64: small, fast, and fully specified, so the request stream
/// does not depend on any crate's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<'a>(&mut self, items: &'a [&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The `mixed` six-format corpus for `seed`, `docs` documents.
pub fn corpus(seed: u64, docs: usize) -> Vec<RawDoc> {
    netmark_corpus::mixed(&CorpusConfig::sized(docs).with_seed(seed))
}

/// Documents PUT during a run: `mixed` documents from a stream of their
/// own, renamed so no name collides with the seeded corpus or with each
/// other.
pub fn upload_docs(seed: u64, docs: usize) -> Vec<RawDoc> {
    corpus(seed ^ 0x5055_5453, docs)
        .into_iter()
        .enumerate()
        .map(|(i, d)| RawDoc {
            name: format!("put-{i:05}-{}", d.name),
            content: d.content,
        })
        .collect()
}

fn enc(s: &str) -> String {
    netmark_xdb::url_encode(s)
}

/// One query string of shape `shape % 4`, with `limit` as given:
///
/// 0. `Context=…&Content=…&limit=L` (section search with a keyword)
/// 1. `Context=…&limit=L` (section search)
/// 2. `Content=…&rank=bm25&limit=L` (ranked single keyword)
/// 3. `Content=… …&rank=bm25&limit=L` (ranked two keywords)
pub fn query(rng: &mut Rng, shape: usize, limit: usize) -> String {
    match shape % 4 {
        0 => format!(
            "Context={}&Content={}&limit={limit}",
            enc(rng.pick(SECTION_NAMES)),
            enc(rng.pick(BODY_WORDS))
        ),
        1 => format!("Context={}&limit={limit}", enc(rng.pick(SECTION_NAMES))),
        2 => format!(
            "Content={}&rank=bm25&limit={limit}",
            enc(rng.pick(BODY_WORDS))
        ),
        _ => {
            let a = rng.pick(BODY_WORDS);
            let mut b = rng.pick(BODY_WORDS);
            while b == a {
                b = rng.pick(BODY_WORDS);
            }
            format!(
                "Content={}&rank=bm25&limit={limit}",
                enc(&format!("{a} {b}"))
            )
        }
    }
}

/// The default limit of each shape (20 for context+content, 10 otherwise).
pub fn default_limit(shape: usize) -> usize {
    match shape % 4 {
        0 => 20,
        _ => 10,
    }
}

/// The engine's view of a request string: two strings that normalize to
/// the same key hit the same result-cache entry.
pub fn normalized(qs: &str) -> String {
    XdbQuery::from_url(qs)
        .map(|q| q.to_query_string())
        .unwrap_or_else(|_| qs.to_string())
}

/// A catalogue of `size` distinct (after normalization) query strings in
/// the four shapes at their default limits, popular first. Ranks take the
/// shapes in turn, so every seed puts the same mix of cheap and costly
/// shapes at the same popularity; a shape whose strings run out (shape 1
/// has one per section name) drops out of the turn.
pub fn catalogue(seed: u64, size: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(size);
    let mut live = vec![0, 1, 2, 3];
    let mut turn = 0;
    while out.len() < size && !live.is_empty() {
        let shape = live[turn % live.len()];
        let found = (0..1_000).find_map(|_| {
            let q = query(&mut rng, shape, default_limit(shape));
            seen.insert(normalized(&q)).then_some(q)
        });
        match found {
            Some(q) => {
                out.push(q);
                turn += 1;
            }
            None => live.retain(|&s| s != shape),
        }
    }
    out
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A stream of request strings drawn Zipf-skewed from a catalogue.
#[derive(Debug, Clone)]
pub struct ZipfStream {
    catalogue: std::sync::Arc<Vec<String>>,
    zipf: std::sync::Arc<Zipf>,
    rng: Rng,
}

impl ZipfStream {
    /// Stream `stream` over `catalogue` (several connections share one
    /// catalogue, each with its own stream).
    pub fn new(
        catalogue: std::sync::Arc<Vec<String>>,
        s: f64,
        seed: u64,
        stream: u64,
    ) -> ZipfStream {
        let zipf = std::sync::Arc::new(Zipf::new(catalogue.len(), s));
        ZipfStream {
            catalogue,
            zipf,
            rng: Rng::new(seed, 100 + stream),
        }
    }

    /// Next request string.
    pub fn next_query(&mut self) -> String {
        self.catalogue[self.zipf.sample(&mut self.rng)].clone()
    }
}

/// A stream of request strings that never repeats (after normalization)
/// within the stream: the four shapes in turn, with the limit spread over
/// a small band, so the result cache can never answer one. Taking the
/// shapes in turn keeps every run's mix of cheap and costly shapes the
/// same. A shape with few strings (one per section name) widens its band
/// once the stream has used them up.
#[derive(Debug, Clone)]
pub struct DistinctStream {
    rng: Rng,
    seen: HashSet<String>,
    stream: u64,
    streams: u64,
    sent: usize,
    band: [usize; 4],
}

impl DistinctStream {
    /// Stream `stream` of `streams`: the streams of one run are disjoint,
    /// because each keeps only the strings whose hash falls in its slot.
    pub fn new(seed: u64, stream: u64, streams: u64) -> DistinctStream {
        DistinctStream {
            rng: Rng::new(seed, 200 + stream),
            seen: HashSet::new(),
            stream,
            streams: streams.max(1),
            sent: 0,
            band: [8; 4],
        }
    }

    /// Next request string, distinct from every earlier one of this run.
    pub fn next_query(&mut self) -> String {
        let shape = self.sent % 4;
        self.sent += 1;
        let mut tries = 0;
        loop {
            let limit = default_limit(shape) + self.rng.below(self.band[shape]);
            let q = query(&mut self.rng, shape, limit);
            let key = normalized(&q);
            if fnv(&key) % self.streams == self.stream && self.seen.insert(key) {
                return q;
            }
            tries += 1;
            if tries % 256 == 0 {
                self.band[shape] *= 2;
            }
        }
    }
}

/// FNV-1a over a string.
pub fn fnv(s: &str) -> u64 {
    fnv_bytes(s.as_bytes())
}

/// FNV-1a over bytes: the answer digest the oracle compares.
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn shape_of(q: &str) -> usize {
        match (q.contains("Context="), q.contains("Content=")) {
            (true, true) => 0,
            (true, false) => 1,
            _ if q.contains('+') => 3,
            _ => 2,
        }
    }

    #[test]
    fn catalogue_is_deterministic_distinct_and_seeded() {
        let a = catalogue(7, 3_000);
        assert_eq!(a.len(), 3_000);
        assert_eq!(a, catalogue(7, 3_000));
        assert_ne!(a, catalogue(8, 3_000));
        // Shapes in turn while all four last: the 20 context-only strings
        // fill ranks 1, 5, 9, ... 77.
        for (i, q) in a.iter().take(80).enumerate() {
            assert_eq!(shape_of(q), i % 4, "rank {i}: {q}");
        }
        assert_eq!(a.iter().filter(|q| shape_of(q) == 1).count(), 20);
        let keys: HashSet<String> = a.iter().map(|q| normalized(q)).collect();
        assert_eq!(keys.len(), a.len());
        for q in &a {
            XdbQuery::from_url(q).expect("catalogue strings parse");
        }
    }

    #[test]
    fn zipf_stream_is_deterministic_and_skewed() {
        let cat = Arc::new(catalogue(3, 1000));
        let draw = |stream| {
            let mut z = ZipfStream::new(Arc::clone(&cat), 1.0, 3, stream);
            (0..2000).map(|_| z.next_query()).collect::<Vec<_>>()
        };
        let a = draw(0);
        assert_eq!(a, draw(0), "same seed and stream, same requests");
        assert_ne!(a, draw(1), "streams differ");
        let top = a.iter().filter(|q| **q == cat[0]).count();
        let tail = a.iter().filter(|q| **q == cat[999]).count();
        assert!(
            top > 100 && tail < 10,
            "rank 1 drawn {top}x, rank 1000 {tail}x"
        );
    }

    #[test]
    fn distinct_streams_never_repeat_and_are_disjoint() {
        let take = |seed, stream| {
            let mut d = DistinctStream::new(seed, stream, 2);
            (0..400).map(|_| d.next_query()).collect::<Vec<_>>()
        };
        // 400 requests per stream use up the 20 × 8 context-only strings
        // the initial band allows; the band must widen, not spin.
        let a = take(11, 0);
        let b = take(11, 1);
        assert_eq!(a, take(11, 0), "deterministic per seed");
        assert_ne!(a, take(12, 0), "seeded");
        for (i, q) in a.iter().enumerate() {
            assert_eq!(shape_of(q), i % 4, "shapes in turn: {q}");
        }
        let mut keys: HashSet<String> = a.iter().map(|q| normalized(q)).collect();
        assert_eq!(keys.len(), a.len(), "no repeats within a stream");
        keys.extend(b.iter().map(|q| normalized(q)));
        assert_eq!(keys.len(), a.len() + b.len(), "streams are disjoint");
    }

    #[test]
    fn uploads_do_not_collide_with_the_corpus() {
        let base: HashSet<String> = corpus(5, 60).into_iter().map(|d| d.name).collect();
        let up = upload_docs(5, 60);
        assert_eq!(up, upload_docs(5, 60));
        assert!(up.iter().all(|d| !base.contains(&d.name)));
        let names: HashSet<&str> = up.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), up.len());
    }
}
