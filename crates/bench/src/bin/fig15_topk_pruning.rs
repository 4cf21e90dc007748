//! FIG15 — ranked top-k: bounded collection against the exhaustive path.
//!
//! Not a figure from the paper: this measures the reproduction's own
//! ranked read path, which scores every posting once
//! (`IndexSnapshot::search_bm25`) and then streams the scored contexts
//! through the engine's `limit`-entry heap. The claim under test: a ranked
//! query with `limit=k` materializes O(k) sections — not O(matches) —
//! while returning *precisely* the hits the exhaustive sort-everything
//! path would return. Three phases:
//!
//! 1. **Byte identity** — every ranked query shape at k ∈ {10, 100, 1000}
//!    answers byte-identically with pruning on and off, across a plain
//!    store, an N-shard store (two-wave scatter with a refined score
//!    floor), and a 2-peer federated databank (`limit` + `min_score`
//!    pushdown). Unranked limited queries are also compared: the bounded
//!    path must not perturb the pre-ranking wire.
//! 2. **Latency vs k** — the heaviest workload query runs pruned vs
//!    exhaustive at each k over the plain store. Acceptance (at the
//!    default ≥100k-doc corpus): pruned `limit=10` is ≥2x faster than
//!    the exhaustive baseline.
//! 3. **Latency vs corpus size** — the same k=10 comparison at 1/10th
//!    scale shows the exhaustive path growing with the corpus while the
//!    pruned path tracks k.
//!
//! `FIG15_DOCS` overrides the corpus size (CI smoke uses small values —
//! the ≥2x assert only arms at ≥100k docs, where materialization
//! dominates constant costs), `FIG15_SHARDS` the shard count,
//! `FIG15_ROUNDS` the sample count per measurement.

use netmark::{NetMark, NetMarkOptions, QueryEngineOptions, RankMode};
use netmark_bench::{banner, fmt_dur, percentile, TableWriter, TempDir};
use netmark_corpus::{mixed, query_workload, CorpusConfig};
use netmark_docformats::upmark;
use netmark_federation::{NetmarkSource, Router};
use netmark_model::Document;
use netmark_shard::{ShardOptions, ShardedStore};
use netmark_xdb::XdbQuery;
use std::sync::Arc;
use std::time::Instant;

/// Marker term for planted needles (absent from the generated corpus).
const MARKER: &str = "zugzwang";

/// Needle term frequencies, strictly decreasing.
const NEEDLE_TF: &[usize] = &[32, 16, 8, 4, 2, 1];

/// Documents per ingest batch.
const BATCH: usize = 512;

/// The k sweep: the paper-of-record sizes for "first page", "deep page",
/// and "export" result shapes.
const KS: &[usize] = &[10, 100, 1000];

fn build_corpus(docs: usize, seed: u64) -> Vec<Document> {
    let mut out: Vec<Document> = mixed(&CorpusConfig::sized(docs).with_seed(seed))
        .iter()
        .filter(|d| !d.content.to_lowercase().contains(MARKER))
        .map(|d| upmark(&d.name, &d.content))
        .collect();
    for (i, &tf) in NEEDLE_TF.iter().enumerate() {
        let terms = vec![MARKER; tf].join(" ");
        out.push(upmark(
            &format!("needle-{i:02}.txt"),
            &format!("# Finding\n{terms} in test article {i}\n"),
        ));
    }
    out
}

/// Cache/memo off (as in FIG14): warmth would mask the collect path this
/// figure is about. `pruned` toggles bounded collection — `false` is the
/// exhaustive score-sort-truncate baseline.
fn options(pruned: bool) -> NetMarkOptions {
    NetMarkOptions {
        query: QueryEngineOptions {
            cache_capacity: 0,
            memo_capacity: 0,
            topk_pruning: pruned,
            ..QueryEngineOptions::default()
        },
        ..NetMarkOptions::default()
    }
}

/// The ranked battery: workload pairs as content and context+content
/// shapes (limits applied per phase).
fn query_mix() -> Vec<XdbQuery> {
    let mut qs = Vec::new();
    for (ctx, terms) in query_workload(15, 4) {
        qs.push(XdbQuery::content(&terms));
        qs.push(XdbQuery::context_content(&ctx, &terms));
    }
    qs
}

/// A 2-peer federated databank over `corpus` split round-robin; both
/// peers are full NETMARK sources, so the router pushes `limit=` and
/// `min_score=` down instead of merging unbounded answers.
fn build_router(scratch: &TempDir, tag: &str, corpus: &[Document], pruned: bool) -> Router {
    let mut router = Router::new();
    for peer in 0..2usize {
        let nm = Arc::new(
            NetMark::open_with(&scratch.join(&format!("{tag}-peer{peer}")), options(pruned))
                .expect("open peer"),
        );
        let part: Vec<Document> = corpus
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == peer)
            .map(|(_, d)| d.clone())
            .collect();
        for chunk in part.chunks(BATCH) {
            nm.ingest_batch(chunk).expect("peer ingest");
        }
        router
            .register_source(Arc::new(NetmarkSource::new(&format!("peer{peer}"), nm)))
            .expect("register");
    }
    router
        .define_databank("fed", &["peer0", "peer1"])
        .expect("bank");
    router
}

fn main() {
    banner(
        "FIG15",
        "ranked top-k (bounded collection)",
        "a ranked limit=k query materializes O(k) hits behind a score \
         threshold that propagates through shard scatter and federation \
         pushdown — byte-identical to the exhaustive ranking at any k",
    );
    let docs: usize = std::env::var("FIG15_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let shards: usize = std::env::var("FIG15_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 1)
        .unwrap_or_else(|| cores.clamp(2, 4));
    let rounds: usize = std::env::var("FIG15_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9);
    let seed = 1515u64;
    println!(
        "corpus: {docs} background documents + {} needles, {shards}-shard deployment, \
         2-peer federation\n",
        NEEDLE_TF.len()
    );

    let corpus = build_corpus(docs, seed);

    // Paired deployments: identical data, the only difference is the
    // topk_pruning engine switch.
    let scratch = TempDir::new("fig15");
    let plain_p = NetMark::open_with(&scratch.join("plain-p"), options(true)).expect("open");
    let plain_x = NetMark::open_with(&scratch.join("plain-x"), options(false)).expect("open");
    let shard_p = ShardedStore::open_with(
        &scratch.join("shard-p"),
        ShardOptions {
            shards,
            netmark: options(true),
        },
    )
    .expect("open sharded");
    let shard_x = ShardedStore::open_with(
        &scratch.join("shard-x"),
        ShardOptions {
            shards,
            netmark: options(false),
        },
    )
    .expect("open sharded");
    let t0 = Instant::now();
    for chunk in corpus.chunks(BATCH) {
        plain_p.ingest_batch(chunk).expect("ingest");
        plain_x.ingest_batch(chunk).expect("ingest");
        shard_p.ingest_batch(chunk).expect("ingest");
        shard_x.ingest_batch(chunk).expect("ingest");
    }
    let fed_p = build_router(&scratch, "fed-p", &corpus, true);
    let fed_x = build_router(&scratch, "fed-x", &corpus, false);
    println!(
        "ingested {} documents into 6 deployments in {}\n",
        corpus.len(),
        fmt_dur(t0.elapsed())
    );

    // ---- Phase 1: byte identity at every k -------------------------------
    let mix = query_mix();
    let mut compared = 0usize;
    for q in &mix {
        for &k in KS {
            let rq = q.clone().with_rank(RankMode::Bm25).with_limit(k);
            assert_eq!(
                plain_p.query(&rq).expect("plain pruned").to_xml(),
                plain_x.query(&rq).expect("plain exhaustive").to_xml(),
                "acceptance: plain pruned == exhaustive for {rq:?}"
            );
            assert_eq!(
                shard_p.query(&rq).expect("sharded pruned").to_xml(),
                shard_x.query(&rq).expect("sharded exhaustive").to_xml(),
                "acceptance: {shards}-shard pruned == exhaustive for {rq:?}"
            );
            let fp = fed_p.query("fed", &rq).expect("fed pruned");
            let fx = fed_x.query("fed", &rq).expect("fed exhaustive");
            assert!(!fp.degraded() && !fx.degraded());
            assert_eq!(
                fp.results.to_xml(),
                fx.results.to_xml(),
                "acceptance: federated pruned == exhaustive for {rq:?}"
            );
            compared += 3;

            // The bounded path must leave the pre-ranking wire alone:
            // unranked limited answers are byte-identical too (and carry
            // no scores).
            let uq = q.clone().with_limit(k);
            let up = plain_p.query(&uq).expect("plain unranked").to_xml();
            assert_eq!(
                up,
                plain_x.query(&uq).expect("plain unranked").to_xml(),
                "acceptance: unranked limit path unchanged for {uq:?}"
            );
            assert!(!up.contains("score"), "unranked answers carry no scores");
        }
    }
    // Needle sanity: pruning preserves planted relevance order.
    let needle_q = XdbQuery::content(MARKER)
        .with_rank(RankMode::Bm25)
        .with_limit(NEEDLE_TF.len());
    let rs = plain_p.query(&needle_q).expect("needles");
    let got: Vec<&str> = rs.hits.iter().map(|h| h.doc.as_str()).collect();
    let want: Vec<String> = (0..NEEDLE_TF.len())
        .map(|i| format!("needle-{i:02}.txt"))
        .collect();
    assert_eq!(
        got,
        want.iter().map(String::as_str).collect::<Vec<_>>(),
        "acceptance: pruned top-k returns needles in planted order"
    );
    println!(
        "identity: {compared} ranked query/deployment pairs byte-identical at k ∈ {KS:?} \
         (plain, {shards}-shard, federated); unranked limit path unchanged"
    );

    // ---- Phase 2: latency vs k -------------------------------------------
    // Measure on the heaviest battery query (most matches → the widest
    // pruned/exhaustive gap to close honestly).
    let heavy = mix
        .iter()
        .filter(|q| q.context.is_none())
        .max_by_key(|q| plain_p.query(q).map(|rs| rs.len()).unwrap_or(0))
        .expect("non-empty mix")
        .clone();
    let matches = plain_p.query(&heavy).expect("heavy").len();
    println!(
        "\nworkload query `{}` matches {matches} sections",
        heavy.to_query_string()
    );
    let mut table = TableWriter::new(&["k", "pruned p50", "exhaustive p50", "speedup"]);
    let mut speedup_at_10 = 0.0f64;
    for &k in KS {
        let rq = heavy.clone().with_rank(RankMode::Bm25).with_limit(k);
        let mut lat_p = Vec::with_capacity(rounds);
        let mut lat_x = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            std::hint::black_box(plain_p.query(&rq).expect("pruned").len());
            lat_p.push(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(plain_x.query(&rq).expect("exhaustive").len());
            lat_x.push(t.elapsed());
        }
        let p50p = percentile(&mut lat_p, 0.50);
        let p50x = percentile(&mut lat_x, 0.50);
        let speedup = p50x.as_secs_f64() / p50p.as_secs_f64().max(1e-9);
        if k == 10 {
            speedup_at_10 = speedup;
        }
        table.row(&[
            k.to_string(),
            fmt_dur(p50p),
            fmt_dur(p50x),
            format!("{speedup:.2}x"),
        ]);
    }
    table.print();
    if docs >= 100_000 {
        assert!(
            speedup_at_10 >= 2.0,
            "acceptance: pruned limit=10 must be >= 2x faster than exhaustive \
             on a {docs}-doc corpus, got {speedup_at_10:.2}x"
        );
        println!("\nacceptance: k=10 speedup {speedup_at_10:.2}x >= 2x on {docs} documents");
    } else {
        println!(
            "\n(speedup assert armed only at >= 100000 docs; ran with {docs} — \
             identity checks above are the smoke acceptance)"
        );
    }
    let qs = plain_p.stats().expect("stats").query;
    println!(
        "pruned-engine counters: {} heap evictions",
        qs.heap_evictions
    );

    // ---- Phase 3: latency vs corpus size ---------------------------------
    let small_docs = (docs / 10).max(200);
    let small_corpus = build_corpus(small_docs, seed);
    let small_p = NetMark::open_with(&scratch.join("small-p"), options(true)).expect("open");
    let small_x = NetMark::open_with(&scratch.join("small-x"), options(false)).expect("open");
    for chunk in small_corpus.chunks(BATCH) {
        small_p.ingest_batch(chunk).expect("ingest");
        small_x.ingest_batch(chunk).expect("ingest");
    }
    let mut table = TableWriter::new(&["docs", "pruned p50 (k=10)", "exhaustive p50", "speedup"]);
    for (size, p, x) in [(small_docs, &small_p, &small_x), (docs, &plain_p, &plain_x)] {
        let rq = heavy.clone().with_rank(RankMode::Bm25).with_limit(10);
        let mut lat_p = Vec::with_capacity(rounds);
        let mut lat_x = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            std::hint::black_box(p.query(&rq).expect("pruned").len());
            lat_p.push(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(x.query(&rq).expect("exhaustive").len());
            lat_x.push(t.elapsed());
        }
        let p50p = percentile(&mut lat_p, 0.50);
        let p50x = percentile(&mut lat_x, 0.50);
        table.row(&[
            size.to_string(),
            fmt_dur(p50p),
            fmt_dur(p50x),
            format!("{:.2}x", p50x.as_secs_f64() / p50p.as_secs_f64().max(1e-9)),
        ]);
    }
    table.print();
    println!("\nFIG15 acceptance criteria satisfied");
}
