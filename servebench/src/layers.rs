//! The traced run: per-layer metrics, measured from outside.
//!
//! The deployment is set up as in the end-to-end run. Beside it, this
//! process loads an in-process replica of every store from the same
//! documents through the bulk pipeline (and, on `databank`, a replica of
//! the router over the same peers). The timed window is cut into four
//! slices that alternate untraced and traced traffic. In a traced slice
//! each connection sends its request over HTTP, then calls the server's
//! own handler in process on the replica with the same request, then
//! times the layers behind the answer (parse, render, text index, store),
//! recording one span per call. Server-side counters (`GET /xdb/stats`,
//! `/proc/<pid>/io`) are read around the window, and storage reads around
//! the untraced slices. After the window, a federation probe (on the
//! workloads without a router) and a short ingest probe run, and the
//! killed stores are reopened twice on copies to split recovery into WAL
//! redo and index rebuild.
//!
//! Spans stay in memory and are written, one JSON object per line, to
//! `.bench_out/` in the checkout when the run ends.

use crate::gen;
use crate::http::Conn;
use crate::out::{metric, Obj};
use crate::server::{self, ProcIo};
use crate::stats::{self, Latencies};
use crate::trace::{self, Tracer};
use crate::workload::{
    self, counter, scrape, store_docs, target, Deployment, Kind, Load, Options, Store, Traffic,
    BANK, CLIENTS, REQUEST_TIMEOUT,
};
use netmark::{IngestStats, NetMark, QueryStats, ResultSet, XdbQuery};
use netmark_federation::{handle_federated, RemoteConfig, RemoteSource, Router};
use netmark_relstore::{Database, DbOptions};
use netmark_textindex::{query_terms, TextQuery};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Documents the ingest probe upmarks and inserts into the replica.
const PROBE_DOCS: usize = 60;
/// Databank name of the one-source probe router on non-federated
/// workloads.
const PROBE_BANK: &str = "probe";

/// Queries the federation probe sends through a one-source router on the
/// workloads without one, after the window's counters are read.
const FEDERATION_PROBE: usize = 30;

/// Per-request sums of what the decomposition measured.
#[derive(Debug, Default, Clone)]
struct Sums {
    queries: u64,
    hits: u64,
    wire_ns: Vec<f64>,
    parse_ns: u64,
    render_ns: u64,
    response_bytes: u64,
    index_ns: u64,
    walk_ns: u64,
    intersect_ns: u64,
    collect_ns: u64,
    unattributed_ns: u64,
    candidates: u64,
    scatter_ns: u64,
    search_ns: u64,
    searches: u64,
    node_by_id_ns: u64,
    node_by_id_calls: u64,
    section_ns: u64,
    section_calls: u64,
    federation_queries: u64,
    merge_ns: u64,
    source_ns: u64,
    source_calls: u64,
    upmark_ns: u64,
    upmarked: u64,
    /// Engine counters of the benchmark's own result-cache lookups, which
    /// the server never made; taken out of the engine's hit rates.
    lookups: QueryStats,
}

impl Sums {
    fn absorb(&mut self, o: &Sums) {
        self.queries += o.queries;
        self.hits += o.hits;
        self.wire_ns.extend_from_slice(&o.wire_ns);
        self.parse_ns += o.parse_ns;
        self.render_ns += o.render_ns;
        self.response_bytes += o.response_bytes;
        self.index_ns += o.index_ns;
        self.walk_ns += o.walk_ns;
        self.intersect_ns += o.intersect_ns;
        self.collect_ns += o.collect_ns;
        self.unattributed_ns += o.unattributed_ns;
        self.candidates += o.candidates;
        self.scatter_ns += o.scatter_ns;
        self.search_ns += o.search_ns;
        self.searches += o.searches;
        self.node_by_id_ns += o.node_by_id_ns;
        self.node_by_id_calls += o.node_by_id_calls;
        self.section_ns += o.section_ns;
        self.section_calls += o.section_calls;
        self.federation_queries += o.federation_queries;
        self.merge_ns += o.merge_ns;
        self.source_ns += o.source_ns;
        self.source_calls += o.source_calls;
        self.upmark_ns += o.upmark_ns;
        self.upmarked += o.upmarked;
        self.lookups.merge(&o.lookups);
    }
}

/// What the traced connections share.
struct Ctx<'a> {
    kind: Kind,
    addr: std::net::SocketAddr,
    /// In-process replicas, one per store.
    replicas: &'a [Store],
    /// `databank` only: an in-process router over the same peers as the
    /// router process, i.e. a replica of the server under test.
    router: Option<&'a Router>,
    /// One traced request at a time: while one connection's request is
    /// on the wire or in the replica, the other waits. Server and replica
    /// then never compete for the cores, and counter deltas around a call
    /// belong to that call.
    turn: Mutex<()>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn member_stats(replicas: &[Store]) -> Vec<QueryStats> {
    replicas
        .iter()
        .flat_map(|r| r.members())
        .map(|m| m.query_stats())
        .collect()
}

fn deltas(members: &[Arc<NetMark>], before: &[QueryStats]) -> Vec<QueryStats> {
    members
        .iter()
        .zip(before)
        .map(|(m, b)| m.query_stats().since(b))
        .collect()
}

/// The engine's own time in a call: the slowest member's total (the
/// members of a sharded store run in parallel).
fn engine_total(deltas: &[QueryStats]) -> Duration {
    deltas
        .iter()
        .map(|s| s.total_time)
        .max()
        .unwrap_or_default()
}

/// Records the engine's stages, from the members' counter deltas around a
/// call, as children of span `parent`, laid end to end.
fn stage_children(t: &mut Tracer, parent: usize, req: u64, deltas: &[QueryStats], sums: &mut Sums) {
    let stage = |f: fn(&QueryStats) -> Duration| deltas.iter().map(f).sum::<Duration>();
    let stages = [
        ("engine.index_lookup", stage(|s| s.index_time)),
        ("engine.context_walk", stage(|s| s.walk_time)),
        ("engine.intersection", stage(|s| s.intersect_time)),
        ("engine.collection", stage(|s| s.collect_time)),
    ];
    let mut offset = Duration::ZERO;
    for (name, d) in stages {
        t.child_at(parent, name, req, offset, d);
        offset += d;
    }
    sums.index_ns += ns(stages[0].1);
    sums.walk_ns += ns(stages[1].1);
    sums.intersect_ns += ns(stages[2].1);
    sums.collect_ns += ns(stages[3].1);
    sums.candidates += deltas.iter().map(|s| s.candidates).sum::<u64>();
}

/// Runs the query on each replica store (on `databank`, the peers'
/// replicas) and returns the result sets. The engine's stages are
/// children of each call's span; the call time outside the engine's own
/// total is unattributed (on a sharded store: the scatter and merge).
fn engine_calls(
    ctx: &Ctx,
    t: &mut Tracer,
    req: u64,
    q: &XdbQuery,
    sums: &mut Sums,
) -> Vec<ResultSet> {
    let mut out = Vec::new();
    for r in ctx.replicas {
        let members = r.members();
        let before: Vec<QueryStats> = members.iter().map(|m| m.query_stats()).collect();
        let id = t.next_id();
        let t0 = Instant::now();
        let rs = match r {
            Store::Plain(nm) => t.span("engine.query", req, |_| nm.query(q)),
            Store::Sharded(s) => t.span("shard.query", req, |_| s.query(q)),
        };
        let wall = t0.elapsed();
        let d = deltas(&members, &before);
        stage_children(t, id, req, &d, sums);
        let outside = ns(wall.saturating_sub(engine_total(&d)));
        sums.unattributed_ns += outside;
        if matches!(r, Store::Sharded(_)) {
            sums.scatter_ns += outside;
        }
        if let Ok(rs) = rs {
            out.push(rs);
        }
    }
    out
}

/// A `GET /xdb?<qs>` request as the server's handler receives it.
fn xdb_request(qs: &str) -> netmark_webdav::Request {
    netmark_webdav::Request {
        method: "GET".to_string(),
        path: "/xdb".to_string(),
        query: Some(qs.to_string()),
        headers: Default::default(),
        body: Vec::new(),
    }
}

/// The server's handler for one query (`netmark_webdav::handle`), called
/// in process on the replica. The engine's work inside it comes from the
/// members' counters around the call: an `engine.query` child of the
/// handler's span, with the stages below it. Parse and render are timed
/// beside the call, on the same query and the answer it rendered. Returns
/// the handler's time, the parsed query and the answer.
fn handler_call(
    ctx: &Ctx,
    t: &mut Tracer,
    req: u64,
    qs: &str,
    sums: &mut Sums,
) -> (Duration, Option<(XdbQuery, Vec<ResultSet>)>) {
    let store = &ctx.replicas[0];
    let backend = store.backend();
    let members = store.members();
    let http = xdb_request(qs);
    let before: Vec<QueryStats> = members.iter().map(|m| m.query_stats()).collect();
    let id = t.next_id();
    let t0 = Instant::now();
    let resp = t.span("webdav.handle", req, |_| {
        netmark_webdav::handle(&*backend, &http)
    });
    let handle = t0.elapsed();
    std::hint::black_box(resp);
    let d = deltas(&members, &before);
    let engine = engine_total(&d);
    let eid = t.next_id();
    t.child_at(id, "engine.query", req, Duration::ZERO, engine);
    stage_children(t, eid, req, &d, sums);

    let t0 = Instant::now();
    let q = t.span("xdb.parse", req, |_| XdbQuery::from_url(qs));
    let parse = t0.elapsed();
    sums.parse_ns += ns(parse);
    let Ok(q) = q else {
        return (handle, None);
    };
    // The answer the handler rendered, from the replica's result cache.
    let before: Vec<QueryStats> = members.iter().map(|m| m.query_stats()).collect();
    let rs = match store {
        Store::Plain(nm) => nm.query(&q),
        Store::Sharded(s) => s.query(&q),
    };
    for l in deltas(&members, &before) {
        sums.lookups.merge(&l);
    }
    let Ok(rs) = rs else {
        return (handle, None);
    };
    let t0 = Instant::now();
    std::hint::black_box(t.span("xdb.render", req, |_| rs.to_xml()));
    let render = t0.elapsed();
    sums.render_ns += ns(render);
    // The handler's time outside parse, render and the engine's own
    // total: dispatch, result clones, response building and, on a
    // sharded store, the scatter and merge.
    let outside = ns(handle.saturating_sub(parse + engine + render));
    sums.unattributed_ns += outside;
    if matches!(store, Store::Sharded(_)) {
        sums.scatter_ns += outside;
    }
    (handle, Some((q, vec![rs])))
}

/// One `Router::query` call, as a `federation.query` span: the time
/// outside the slowest source is the router's merge.
fn federation_call(
    router: &Router,
    bank: &str,
    t: &mut Tracer,
    req: u64,
    q: &XdbQuery,
    sums: &mut Sums,
) -> Option<ResultSet> {
    let t0 = Instant::now();
    let fr = t.span("federation.query", req, |_| router.query(bank, q));
    let wall = t0.elapsed();
    let fr = fr.ok()?;
    let slowest = fr
        .outcomes
        .iter()
        .map(|o| o.latency)
        .max()
        .unwrap_or_default();
    sums.merge_ns += ns(wall.saturating_sub(slowest));
    sums.federation_queries += 1;
    sums.source_ns += fr.outcomes.iter().map(|o| ns(o.latency)).sum::<u64>();
    sums.source_calls += fr.outcomes.len() as u64;
    Some(fr.results)
}

/// The router's handler for one query (`handle_federated`), called in
/// process on the router replica, then the layers behind it: parse,
/// `Router::query`, render, and the engine on the peers' replicas.
fn routed_call(
    ctx: &Ctx,
    router: &Router,
    t: &mut Tracer,
    req: u64,
    qs: &str,
    sums: &mut Sums,
) -> (Duration, Option<(XdbQuery, Vec<ResultSet>)>) {
    let http = xdb_request(&format!("{qs}&databank={BANK}"));
    let t0 = Instant::now();
    let resp = t.span("federation.handle", req, |_| {
        handle_federated(router, None, &http)
    });
    let handle = t0.elapsed();
    std::hint::black_box(resp);
    let t0 = Instant::now();
    let q = t.span("xdb.parse", req, |_| XdbQuery::from_url(qs));
    sums.parse_ns += ns(t0.elapsed());
    let Ok(q) = q else {
        return (handle, None);
    };
    let Some(merged) = federation_call(router, BANK, t, req, &q, sums) else {
        return (handle, None);
    };
    let t0 = Instant::now();
    std::hint::black_box(t.span("xdb.render", req, |_| merged.to_xml()));
    sums.render_ns += ns(t0.elapsed());
    let mut local = q.clone();
    local.databank = None;
    let results = engine_calls(ctx, t, req, &local, sums);
    (handle, Some((q, results)))
}

/// Times the text-index and store calls behind one answer.
fn index_and_store_calls(
    ctx: &Ctx,
    t: &mut Tracer,
    req: u64,
    q: &XdbQuery,
    results: &[ResultSet],
    sums: &mut Sums,
) {
    let members: Vec<Arc<NetMark>> = ctx.replicas.iter().flat_map(|r| r.members()).collect();
    let t0 = Instant::now();
    t.span("textindex.search", req, |_| {
        for m in &members {
            let snap = m.text_index().snapshot();
            match (&q.content, &q.context) {
                (Some(c), _) if q.ranked() => {
                    std::hint::black_box(snap.search_bm25(c));
                }
                (Some(c), _) => {
                    for term in query_terms(c) {
                        std::hint::black_box(snap.execute(&TextQuery::Term(term)));
                    }
                }
                (None, Some(label)) => {
                    std::hint::black_box(snap.execute(&TextQuery::phrase(label)));
                }
                (None, None) => {}
            }
        }
    });
    sums.search_ns += ns(t0.elapsed());
    sums.searches += 1;
    // Store calls for every hit, on the member that holds it.
    for (replica, rs) in ctx.replicas.iter().zip(results) {
        for hit in &rs.hits {
            let member = match replica {
                Store::Plain(nm) => Arc::clone(nm),
                Store::Sharded(s) => Arc::clone(&s.shards()[s.owner(&hit.doc)]),
            };
            let Ok(view) = member.store().begin_read() else {
                continue;
            };
            let t0 = Instant::now();
            let row = t.span("store.node_by_id", req, |_| {
                view.node_by_id(hit.context_node)
            });
            sums.node_by_id_ns += ns(t0.elapsed());
            sums.node_by_id_calls += 1;
            if let Ok(Some((rid, _))) = row {
                let t0 = Instant::now();
                let content = t.span("store.section_content", req, |_| view.section_content(rid));
                std::hint::black_box(content.ok());
                sums.section_ns += ns(t0.elapsed());
                sums.section_calls += 1;
            }
        }
    }
}

/// One traced query: HTTP round trip, then the server's handler on the
/// replica, then the layers behind the answer.
fn traced_query(
    ctx: &Ctx,
    conn: &mut Conn,
    t: &mut Tracer,
    req: u64,
    qs: &str,
    sums: &mut Sums,
    lat: &mut Latencies,
) -> bool {
    let path = target(ctx.kind, qs);
    let _turn = ctx.turn.lock().expect("turn lock poisoned");
    if let Some(router) = ctx.router {
        // The router replica reaches the same peers as the router process,
        // whose result caches then hold the answer. Warm them first, so the
        // round trip and the handler are both timed against warm peers.
        if let Ok(q) = XdbQuery::from_url(qs) {
            let _ = router.query(BANK, &q);
        }
    }
    t.span("request", req, |t| {
        let t0 = Instant::now();
        let resp = t.span("netserve.http", req, |_| conn.get(&path));
        let rtt = t0.elapsed();
        let ok = matches!(&resp, Ok(r) if r.ok());
        lat.push(if ok { rtt } else { Duration::MAX });
        if let Ok(r) = &resp {
            sums.response_bytes += r.body.len() as u64;
        }
        let (handle, answer) = match ctx.router {
            Some(router) => routed_call(ctx, router, t, req, qs, sums),
            None => handler_call(ctx, t, req, qs, sums),
        };
        sums.queries += 1;
        sums.wire_ns
            .push(rtt.as_nanos() as f64 - handle.as_nanos() as f64);
        let Some((q, results)) = answer else {
            return ok;
        };
        sums.hits += results.iter().map(|r| r.hits.len() as u64).sum::<u64>();
        index_and_store_calls(ctx, t, req, &q, &results, sums);
        ok
    })
}

/// One traced upload: HTTP PUT, then upmark and insert on the replica.
fn traced_put(
    ctx: &Ctx,
    conn: &mut Conn,
    t: &mut Tracer,
    req: u64,
    doc: &netmark_corpus::RawDoc,
    sums: &mut Sums,
) -> bool {
    let _turn = ctx.turn.lock().expect("turn lock poisoned");
    t.span("request", req, |t| {
        let path = format!("/docs/{}", netmark_xdb::url_encode(&doc.name));
        let resp = t.span("netserve.http", req, |_| {
            conn.request("PUT", &path, doc.content.as_bytes())
        });
        let ok = matches!(&resp, Ok(r) if r.ok());
        if ok {
            insert_traced(ctx, t, req, doc, sums);
        }
        ok
    })
}

fn insert_traced(
    ctx: &Ctx,
    t: &mut Tracer,
    req: u64,
    doc: &netmark_corpus::RawDoc,
    sums: &mut Sums,
) {
    let t0 = Instant::now();
    let parsed = t.span("docformats.upmark", req, |_| {
        netmark_docformats::upmark(&doc.name, &doc.content)
    });
    sums.upmark_ns += ns(t0.elapsed());
    sums.upmarked += 1;
    let backend = ctx.replicas[0].backend();
    let _ = t.span("ingest.insert", req, |_| backend.insert_document(&parsed));
}

/// Replays what an untraced slice sent the server onto the replicas,
/// untimed, so their data (and, for repeated queries, their result
/// caches) keep mirroring the server's: every acknowledged upload, and
/// every answered query when the traffic repeats queries.
fn mirror(ctx: &Ctx, log: &workload::ClientLog, queries: bool, sums: &mut Sums) {
    let mut t = Tracer::new();
    for (i, doc) in log.acked.iter().enumerate() {
        insert_traced(ctx, &mut t, i as u64, doc, sums);
    }
    if queries {
        for (qs, _) in &log.answers {
            let Ok(mut q) = XdbQuery::from_url(qs) else {
                continue;
            };
            q.databank = None;
            for r in ctx.replicas {
                let _ = r.backend().run(&q);
            }
        }
    }
}

/// Drives one connection for a traced slice.
fn drive_traced(
    ctx: &Ctx,
    traffic: &mut Traffic,
    client: usize,
    deadline: Instant,
) -> (Tracer, Sums, Latencies, u64, u64) {
    let mut conn = Conn::new(ctx.addr, REQUEST_TIMEOUT);
    let mut t = Tracer::new();
    let mut sums = Sums::default();
    let mut lat = Latencies::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut seq = 0u64;
    while Instant::now() < deadline {
        seq += 1;
        let req = (client as u64) << 48 | seq;
        let ok = match traffic {
            Traffic::Put(docs) => {
                let Some(doc) = docs.next() else { break };
                traced_put(ctx, &mut conn, &mut t, req, &doc, &mut sums)
            }
            Traffic::Zipf(_) | Traffic::Distinct(_) => {
                let Some(qs) = traffic.next_query() else {
                    break;
                };
                traced_query(ctx, &mut conn, &mut t, req, &qs, &mut sums, &mut lat)
            }
        };
        attempted += 1;
        failed += u64::from(!ok);
    }
    (t, sums, lat, attempted, failed)
}

/// A router with the server as its one source, in a databank of its own.
fn one_source_router(server: std::net::SocketAddr) -> Result<Router, String> {
    let mut r = Router::new();
    let src = RemoteSource::connect("server", &server.to_string(), RemoteConfig::default())
        .map_err(|e| format!("probe router: {e}"))?;
    r.register_source(Arc::new(src))
        .map_err(|e| e.to_string())?;
    r.define_databank(PROBE_BANK, &["server"])
        .map_err(|e| e.to_string())?;
    Ok(r)
}

/// Loads one in-process replica per store, from the same documents.
fn replicas(opts: &Options, work: &Path) -> Result<(Vec<Store>, IngestStats, u64), String> {
    let spec = opts.kind.spec();
    let mut out = Vec::new();
    let mut load = IngestStats::default();
    let mut syncs = 0;
    for i in 0..spec.stores {
        let dir = work.join(format!("replica-{i}"));
        let docs = store_docs(opts.kind, opts.seed, i);
        let (store, pipeline) = workload::load_store(&dir, &docs, spec.shards)?;
        load.documents += pipeline.ingest.documents;
        load.upmark_time += pipeline.ingest.upmark_time;
        load.store_time += pipeline.ingest.store_time;
        load.index_time += pipeline.ingest.index_time;
        syncs += pipeline.wal.syncs;
        // A server started on a bulk-loaded store has a cold buffer pool;
        // so does its replica.
        let store = if spec.load == Load::Bulk {
            drop(store);
            Store::open(&dir, spec.shards)?
        } else {
            store
        };
        out.push(store);
    }
    Ok((out, load, syncs))
}

/// Member store directories of a deployment (the shard directories of a
/// sharded store).
fn member_dirs(dirs: &[PathBuf], shards: Option<usize>) -> Vec<PathBuf> {
    dirs.iter()
        .flat_map(|d| match shards {
            Some(n) => (0..n)
                .map(|i| d.join(netmark_shard::store::shard_dir_name(i)))
                .collect::<Vec<_>>(),
            None => vec![d.clone()],
        })
        .collect()
}

/// Splits reopening each killed member store into WAL redo
/// (`Database::open`) and the rest of `NetMark::open` (index load or
/// rebuild), each on its own copy.
fn recovery_split(dirs: &[PathBuf]) -> Result<(f64, f64), String> {
    let (mut redo, mut full) = (0.0, 0.0);
    for (i, d) in dirs.iter().enumerate() {
        let a = d.with_file_name(format!("split-{i}-redo"));
        let b = d.with_file_name(format!("split-{i}-full"));
        server::copy_dir(d, &a).map_err(|e| format!("copy: {e}"))?;
        server::copy_dir(d, &b).map_err(|e| format!("copy: {e}"))?;
        let t0 = Instant::now();
        let db = Database::open_with(&a, DbOptions::default()).map_err(|e| format!("redo: {e}"))?;
        redo += t0.elapsed().as_secs_f64();
        drop(db);
        let t0 = Instant::now();
        let nm = NetMark::open(&b).map_err(|e| format!("reopen: {e}"))?;
        full += t0.elapsed().as_secs_f64();
        drop(nm);
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }
    Ok((redo, (full - redo).max(0.0)))
}

fn per(total_ns: u64, n: u64, unit_ns: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64 / unit_ns
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs the traced workload; returns the lines to print.
pub fn run(opts: &Options, work: &Path) -> Result<Vec<String>, String> {
    let spec = opts.kind.spec();
    let catalogue = Arc::new(gen::catalogue(opts.seed, spec.catalogue));
    let mut dep = Deployment::start(opts, &work.join("deploy"))?;
    dep.settle()?;
    let (replicas, load, load_syncs) = replicas(opts, work)?;
    let router_replica = match dep.router {
        Some(_) => {
            let peers: Vec<_> = dep.servers.iter().map(|s| s.addr).collect();
            Some(workload::build_router(&peers, BANK)?)
        }
        None => None,
    };
    let ctx = Ctx {
        kind: opts.kind,
        addr: dep.addr,
        replicas: &replicas,
        router: router_replica.as_ref(),
        turn: Mutex::new(()),
    };

    let members: Vec<Arc<NetMark>> = replicas.iter().flat_map(|r| r.members()).collect();
    let engine_before = member_stats(&replicas);
    let wal_before: u64 = members.iter().map(|m| m.wal_stats().syncs).sum();
    let ingest_before: Vec<IngestStats> = members.iter().map(|m| m.metrics().snapshot()).collect();
    let pool_before: Vec<_> = members
        .iter()
        .map(|m| m.store().database().pool_stats())
        .collect();
    let evicted_before: u64 = members
        .iter()
        .map(|m| m.store().database().mvcc_stats().views_evicted)
        .sum();
    let stats_before = scrape(&dep);
    // Storage reads per query come from the untraced slices alone: in a
    // traced slice the router replica also queries the peers.
    let mut io = ProcIo::default();
    let mut server_queries = 0;

    // Four slices: untraced, traced, untraced, traced.
    let mut traffic = workload::traffic(opts, &catalogue);
    let slice = opts.window / 4;
    let mut untraced = Latencies::default();
    let mut traced = Latencies::default();
    let mut tracers = Vec::new();
    let mut sums = Sums::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Requests completed and time spent, untraced and traced.
    let mut rate = [(0u64, Duration::ZERO); 2];
    let t_window = Instant::now();
    for s in 0..4 {
        if s % 2 == 0 {
            let (io_before, queries_before) =
                (dep.proc_io(), counter(&scrape(&dep), "query", "queries"));
            let (log, took) = workload::closed_loop(opts.kind, dep.addr, &mut traffic, slice);
            let slice_io = dep.proc_io().since(io_before);
            io.syscr += slice_io.syscr;
            io.rchar += slice_io.rchar;
            server_queries +=
                counter(&scrape(&dep), "query", "queries").saturating_sub(queries_before);
            untraced.extend(&log.query_lat);
            rate[0].0 += log.attempted;
            rate[0].1 += took;
            attempted += log.attempted;
            failed += log.bad_status + log.io_errors;
            mirror(&ctx, &log, spec.catalogue > 0 && !spec.writer, &mut sums);
        } else {
            let t_slice = Instant::now();
            let deadline = t_slice + slice;
            let ctx = &ctx;
            let outs: Vec<_> = std::thread::scope(|sc| {
                let hs: Vec<_> = traffic
                    .iter_mut()
                    .enumerate()
                    .map(|(c, t)| sc.spawn(move || drive_traced(ctx, t, c + CLIENTS * s, deadline)))
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("traced client panicked"))
                    .collect()
            });
            rate[1].1 += t_slice.elapsed();
            for (t, su, lat, a, f) in outs {
                tracers.push(t);
                sums.absorb(&su);
                traced.extend(&lat);
                rate[1].0 += a;
                attempted += a;
                failed += f;
            }
        }
    }
    let window = t_window.elapsed();
    let stats_after = scrape(&dep);
    let delta = |tag: &str, attr: &str| {
        counter(&stats_after, tag, attr).saturating_sub(counter(&stats_before, tag, attr))
    };
    let server_queries = server_queries.max(1);

    // Federation probe on the workloads without a router, now that the
    // server's counters are read: the next queries of the traffic through
    // a one-source router over the server.
    let probe_router;
    let router = match &router_replica {
        Some(r) => r,
        None => {
            probe_router = one_source_router(dep.addr)?;
            let mut probe = Tracer::new();
            if let Some(queries) = traffic.iter_mut().find(|t| !matches!(t, Traffic::Put(_))) {
                for i in 0..FEDERATION_PROBE {
                    let req = u64::MAX - (PROBE_DOCS + i) as u64;
                    let parsed = queries.next_query().map(|qs| XdbQuery::from_url(&qs));
                    if let Some(Ok(q)) = parsed {
                        probe.span("request", req, |t| {
                            federation_call(&probe_router, PROBE_BANK, t, req, &q, &mut sums)
                        });
                    }
                }
            }
            tracers.push(probe);
            &probe_router
        }
    };

    // Ingest probe on the replica (read-only workloads only see their
    // bulk load otherwise).
    let probe_docs = gen::upload_docs(opts.seed ^ 0x7072_6f62, PROBE_DOCS);
    let mut probe = Tracer::new();
    for (i, d) in probe_docs.iter().enumerate() {
        let req = u64::MAX - i as u64;
        probe.span("request", req, |t| {
            insert_traced(&ctx, t, req, d, &mut sums)
        });
    }
    tracers.push(probe);
    // Inserts mirrored from the server and by the probe, beside the bulk
    // load.
    let replayed: IngestStats =
        members
            .iter()
            .zip(&ingest_before)
            .fold(IngestStats::default(), |acc, (m, b)| {
                let d = m.metrics().snapshot().since(b);
                IngestStats {
                    documents: acc.documents + d.documents,
                    store_time: acc.store_time + d.store_time,
                    index_time: acc.index_time + d.index_time,
                    ..acc
                }
            });
    let replayed_syncs = members.iter().map(|m| m.wal_stats().syncs).sum::<u64>() - wal_before;
    let pool = members
        .iter()
        .zip(&pool_before)
        .fold((0u64, 0u64, 0u64), |acc, (m, b)| {
            let p = m.store().database().pool_stats();
            (
                acc.0 + p.hits - b.hits,
                acc.1 + p.misses - b.misses,
                acc.2 + p.evictions - b.evictions,
            )
        });
    let views_evicted = members
        .iter()
        .map(|m| m.store().database().mvcc_stats().views_evicted)
        .sum::<u64>()
        - evicted_before;
    let segments = counter(&stats_after, "index", "segments");
    let doc_counts: Vec<f64> = members
        .iter()
        .map(|m| m.list_documents().map_or(0.0, |d| d.len() as f64))
        .collect();
    let skew = ratio(
        doc_counts.iter().cloned().fold(0.0, f64::max),
        doc_counts.iter().sum::<f64>() / doc_counts.len().max(1) as f64,
    );
    let source_stats = router.source_stats();
    let source_ms = per(sums.source_ns, sums.source_calls, 1e6);
    let fed_failures: u64 = source_stats.values().map(|s| s.failures).sum();
    let breaker_opens: u64 = source_stats.values().map(|s| s.breaker_opens).sum();
    let engine_after = member_stats(&replicas);

    dep.kill();
    let (redo_s, rebuild_s) = recovery_split(&member_dirs(&dep.dirs, spec.shards))?;

    // Spans: self time per name, and the dump.
    let mut spans = Vec::new();
    for t in &tracers {
        let base = spans.len();
        spans.extend(t.spans().iter().map(|s| trace::Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    let self_times = trace::self_time_by_name(&spans);
    let out_dir = opts.work.with_file_name(".bench_out");
    let _ = std::fs::create_dir_all(&out_dir);
    let dump = out_dir.join(format!("trace-{}-{}.jsonl", opts.kind.name(), opts.seed));
    trace::write_jsonl(&dump, &spans).map_err(|e| format!("write {}: {e}", dump.display()))?;

    let q = sums.queries;
    let engine = engine_after
        .iter()
        .zip(&engine_before)
        .fold(QueryStats::default(), |mut acc, (a, b)| {
            acc.merge(&a.since(b));
            acc
        })
        .since(&sums.lookups);
    let docs_in = load.documents + replayed.documents;
    let wire_us = if sums.wire_ns.is_empty() {
        0.0
    } else {
        stats::median(&sums.wire_ns) / 1e3
    };
    // How much longer a request takes, end to end, when it is traced.
    let per_request = |(n, d): (u64, Duration)| d.as_secs_f64() / n.max(1) as f64;
    let overhead = 100.0 * (per_request(rate[1]) / per_request(rate[0]) - 1.0);
    let requests = spans.iter().filter(|s| s.parent.is_none()).count() as u64;
    let self_ms = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |(_, ns)| *ns as f64 / requests.max(1) as f64 / 1e6)
    };

    let m = Obj::new()
        .obj("netserve.wire_us", metric(wire_us, "us"))
        .obj(
            "netserve.sheds",
            metric(delta("server", "shed") as f64, "count"),
        )
        .obj(
            "netserve.read_timeouts",
            metric(delta("server", "read-timeouts") as f64, "count"),
        )
        .obj(
            "netserve.deadline_overruns",
            metric(delta("server", "deadline-overruns") as f64, "count"),
        )
        .obj(
            "netserve.panics",
            metric(delta("server", "panics") as f64, "count"),
        )
        .obj("xdb.parse_us", metric(per(sums.parse_ns, q, 1e3), "us"))
        .obj("xdb.render_us", metric(per(sums.render_ns, q, 1e3), "us"))
        .obj(
            "xdb.response_kb",
            metric(ratio(sums.response_bytes as f64 / 1024.0, q as f64), "KiB"),
        )
        .obj(
            "engine.index_lookup_ms",
            metric(per(sums.index_ns, q, 1e6), "ms"),
        )
        .obj(
            "engine.context_walk_ms",
            metric(per(sums.walk_ns, q, 1e6), "ms"),
        )
        .obj(
            "engine.collection_ms",
            metric(per(sums.collect_ns, q, 1e6), "ms"),
        )
        .obj(
            "engine.intersection_ms",
            metric(per(sums.intersect_ns, q, 1e6), "ms"),
        )
        .obj(
            "engine.unattributed_ms",
            metric(per(sums.unattributed_ns, q, 1e6), "ms"),
        )
        .obj(
            "engine.candidates_per_hit",
            metric(ratio(sums.candidates as f64, sums.hits as f64), "ratio"),
        )
        .obj(
            "engine.cache_hit_rate",
            metric(
                ratio(engine.cache_hits as f64, engine.queries as f64),
                "ratio",
            ),
        )
        .obj(
            "engine.memo_hit_rate",
            metric(
                ratio(
                    engine.memo_hits as f64,
                    (engine.memo_hits + engine.memo_misses) as f64,
                ),
                "ratio",
            ),
        )
        .obj(
            "store.node_by_id_us",
            metric(per(sums.node_by_id_ns, sums.node_by_id_calls, 1e3), "us"),
        )
        .obj(
            "store.section_content_us",
            metric(per(sums.section_ns, sums.section_calls, 1e3), "us"),
        )
        .obj(
            "relstore.read_syscalls_per_query",
            metric(io.syscr as f64 / server_queries as f64, "count"),
        )
        .obj(
            "relstore.read_mb_per_query",
            metric(
                io.rchar as f64 / server_queries as f64 / (1 << 20) as f64,
                "MiB",
            ),
        )
        .obj(
            "relstore.pool_hit_rate",
            metric(ratio(pool.0 as f64, (pool.0 + pool.1) as f64), "ratio"),
        )
        .obj("relstore.pool_evictions", metric(pool.2 as f64, "count"))
        .obj(
            "relstore.fsyncs_per_doc",
            metric(
                ratio((load_syncs + replayed_syncs) as f64, docs_in as f64),
                "ratio",
            ),
        )
        .obj(
            "relstore.views_evicted",
            metric(views_evicted as f64, "count"),
        )
        .obj(
            "textindex.search_us",
            metric(per(sums.search_ns, sums.searches, 1e3), "us"),
        )
        .obj("textindex.segments", metric(segments as f64, "count"))
        .obj(
            "textindex.compactions",
            metric(delta("index", "compactions") as f64, "count"),
        )
        .obj(
            "docformats.upmark_us_per_doc",
            metric(
                ratio(
                    (ns(load.upmark_time) + sums.upmark_ns) as f64 / 1e3,
                    (load.documents + sums.upmarked) as f64,
                ),
                "us",
            ),
        )
        .obj(
            "ingest.store_ms_per_doc",
            metric(
                ratio(
                    (load.store_time + replayed.store_time).as_secs_f64() * 1e3,
                    docs_in as f64,
                ),
                "ms",
            ),
        )
        .obj(
            "ingest.index_ms_per_doc",
            metric(
                ratio(
                    (load.index_time + replayed.index_time).as_secs_f64() * 1e3,
                    docs_in as f64,
                ),
                "ms",
            ),
        )
        .obj(
            "shard.scatter_overhead_ms",
            metric(per(sums.scatter_ns, q, 1e6), "ms"),
        )
        .obj("shard.doc_skew", metric(skew, "ratio"))
        .obj("recovery.wal_redo_s", metric(redo_s, "s"))
        .obj("recovery.index_rebuild_s", metric(rebuild_s, "s"))
        .obj("federation.source_ms", metric(source_ms, "ms"))
        .obj(
            "federation.merge_ms",
            metric(per(sums.merge_ns, sums.federation_queries, 1e6), "ms"),
        )
        .obj("federation.failures", metric(fed_failures as f64, "count"))
        .obj(
            "federation.breaker_opens",
            metric(breaker_opens as f64, "count"),
        )
        .obj("self.webdav_ms", metric(self_ms("webdav.handle"), "ms"))
        .obj(
            "self.xdb_ms",
            metric(self_ms("xdb.parse") + self_ms("xdb.render"), "ms"),
        )
        .obj(
            "self.engine_ms",
            metric(
                self_ms("engine.query")
                    + self_ms("engine.index_lookup")
                    + self_ms("engine.context_walk")
                    + self_ms("engine.intersection")
                    + self_ms("engine.collection"),
                "ms",
            ),
        )
        .obj("self.shard_ms", metric(self_ms("shard.query"), "ms"))
        .obj(
            "self.federation_ms",
            metric(self_ms("federation.query"), "ms"),
        )
        .obj(
            "self.textindex_ms",
            metric(self_ms("textindex.search"), "ms"),
        )
        .obj(
            "self.store_ms",
            metric(
                self_ms("store.node_by_id") + self_ms("store.section_content"),
                "ms",
            ),
        )
        .obj(
            "self.ingest_ms",
            metric(
                self_ms("docformats.upmark") + self_ms("ingest.insert"),
                "ms",
            ),
        )
        .obj("self.bench_ms", metric(self_ms("request"), "ms"))
        .obj("trace.overhead_pct", metric(overhead, "%"));

    let record = workload::provenance(opts, &dep)
        .int("traced_requests", requests)
        .num(
            "spans_per_request",
            ratio(spans.len() as f64, requests as f64),
        )
        .int("untraced_query_n", untraced.len() as u64)
        .int("traced_query_n", traced.len() as u64)
        .int("server_queries", server_queries)
        .num("window_s_measured", window.as_secs_f64())
        .str("spans", &dump.display().to_string());
    let result = Obj::new()
        .bool("correct", failed == 0)
        .int("attempted", attempted.max(1))
        .int("failed", failed)
        .obj("metrics", m);
    Ok(vec![
        Obj::new().obj("record", record).render(),
        result.render(),
    ])
}
