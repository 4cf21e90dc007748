//! The four workloads and the untraced (end-to-end) run.
//!
//! A run sets the deployment up several times (timing each set-up), keeps
//! the last one, drives it for the timed window from two closed-loop
//! keep-alive connections, SIGKILLs the server(s), times the reopen of the
//! killed stores, and checks every answer and every acknowledged write.

use crate::gen::{self, DistinctStream, ZipfStream};
use crate::http::Conn;
use crate::out::{metric, Obj};
use crate::server::{self, ProcIo, Server};
use crate::stats::{self, Latencies};
use netmark::{NetMark, PipelineConfig, PipelineStats, RawFile, XdbBackend, XdbQuery};
use netmark_corpus::RawDoc;
use netmark_federation::{RemoteConfig, RemoteSource, Router};
use netmark_shard::{ShardOptions, ShardedStore};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a server may take to ingest its drop folder.
pub const LOAD_TIMEOUT: Duration = Duration::from_secs(120);
/// Set-ups timed per run (the last one is kept and driven).
pub const SETUPS: usize = 5;
/// How often set-up polls a loading server.
const LOAD_POLL: Duration = Duration::from_millis(10);
/// Closed-loop clients (keep-alive connections) per run.
pub const CLIENTS: usize = 2;
/// Per-request client timeout.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Default Zipf exponent of the popular-query catalogue (`--zipf`). Web
/// request popularity is Zipf-like with an exponent below 1 (0.64–0.83
/// across the six proxy traces of Breslau et al., "Web Caching and
/// Zipf-like Distributions", INFOCOM 1999); 0.6 sits at the flat end of
/// that range, so the result cache's hit rate stays partial.
pub const ZIPF_S: f64 = 0.6;
/// Databank name the router defines over its peers.
pub const BANK: &str = "bank";

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Plain store that fits the buffer pool; Zipf-skewed queries.
    QueryFit,
    /// Plain store several times the buffer pool; every query distinct.
    QuerySpill,
    /// Two-shard store; one connection PUTs, one queries; crash at the end.
    IngestMix,
    /// Federation router over two CLI peers; `databank=` queries.
    Databank,
}

/// How a store receives its corpus during set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The server's drop folder (`serve --dropbox`): its daemon ingests
    /// the files through the staged pipeline, and the pages the server
    /// wrote stay in its buffer pool, as after any upload.
    DropFolder,
    /// The staged bulk-ingest pipeline in this process, flushed to disk;
    /// the server then starts on the store with a cold buffer pool, as
    /// after a restart.
    Bulk,
}

/// How a workload's deployment and traffic are shaped.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Documents per store (per peer for `databank`).
    pub docs: usize,
    /// `Some(n)`: a shard-per-core store with `n` shards.
    pub shards: Option<usize>,
    /// Stores (CLI servers): 2 peers for `databank`, else 1.
    pub stores: usize,
    /// Catalogue size for Zipf traffic; 0 means distinct traffic.
    pub catalogue: usize,
    /// One of the two connections PUTs new documents.
    pub writer: bool,
    /// How the corpus is loaded.
    pub load: Load,
}

impl Kind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::QueryFit,
        Kind::QuerySpill,
        Kind::IngestMix,
        Kind::Databank,
    ];

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::QueryFit => "query_fit",
            Kind::QuerySpill => "query_spill",
            Kind::IngestMix => "ingest_mix",
            Kind::Databank => "databank",
        }
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        match self {
            Kind::QueryFit => Spec {
                docs: 1_000,
                shards: None,
                stores: 1,
                catalogue: 3_000,
                writer: false,
                load: Load::DropFolder,
            },
            Kind::QuerySpill => Spec {
                docs: 2_500,
                shards: None,
                stores: 1,
                catalogue: 0,
                writer: false,
                load: Load::Bulk,
            },
            Kind::IngestMix => Spec {
                docs: 1_000,
                shards: Some(2),
                stores: 1,
                catalogue: 3_000,
                writer: true,
                load: Load::DropFolder,
            },
            Kind::Databank => Spec {
                docs: 500,
                shards: None,
                stores: 2,
                catalogue: 3_000,
                writer: false,
                load: Load::DropFolder,
            },
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Timed window.
    pub window: Duration,
    /// Zipf exponent of the catalogue traffic.
    pub zipf: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// The `netmark` CLI binary.
    pub server_bin: PathBuf,
    /// Scratch directory for stores (inside the checkout).
    pub work: PathBuf,
    /// Source revision of the code under test.
    pub rev: String,
}

/// Removes its directory when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// A fresh directory for this run under `opts.work`.
    pub fn new(opts: &Options) -> Result<WorkDir, String> {
        let dir = opts.work.join(format!(
            "{}-{}-{}",
            opts.kind.name(),
            opts.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn err(context: &str) -> impl Fn(netmark::NetmarkError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// An open store: plain or shard-per-core, as the CLI would open it.
#[derive(Clone)]
pub enum Store {
    /// One NETMARK instance.
    Plain(Arc<NetMark>),
    /// A shard-per-core store.
    Sharded(Arc<ShardedStore>),
}

impl Store {
    /// Opens (or creates) the store at `dir`.
    pub fn open(dir: &Path, shards: Option<usize>) -> Result<Store, String> {
        Ok(match shards {
            Some(n) => Store::Sharded(Arc::new(
                ShardedStore::open_with(
                    dir,
                    ShardOptions {
                        shards: n,
                        ..ShardOptions::default()
                    },
                )
                .map_err(err("open sharded store"))?,
            )),
            None => Store::Plain(Arc::new(NetMark::open(dir).map_err(err("open store"))?)),
        })
    }

    /// The store behind the serving interface.
    pub fn backend(&self) -> Arc<dyn XdbBackend> {
        match self {
            Store::Plain(nm) => Arc::clone(nm) as Arc<dyn XdbBackend>,
            Store::Sharded(s) => Arc::clone(s) as Arc<dyn XdbBackend>,
        }
    }

    /// The NETMARK instances that hold the data (the shards, or the one
    /// plain instance).
    pub fn members(&self) -> Vec<Arc<NetMark>> {
        match self {
            Store::Plain(nm) => vec![Arc::clone(nm)],
            Store::Sharded(s) => s.shards().to_vec(),
        }
    }
}

/// Bulk-loads `docs` into a new store at `dir` through the staged ingest
/// pipeline and flushes it. Returns the open store and the pipeline's
/// counters.
pub fn load_store(
    dir: &Path,
    docs: &[RawDoc],
    shards: Option<usize>,
) -> Result<(Store, PipelineStats), String> {
    let store = Store::open(dir, shards)?;
    let backend = store.backend();
    let files = docs
        .iter()
        .map(|d| RawFile::new(d.name.clone(), d.content.clone()))
        .collect();
    let stats = netmark::ingest_files(&*backend, files, &PipelineConfig::default())
        .map_err(err("bulk load"))?;
    if stats.ingest.errors > 0 {
        return Err(format!(
            "bulk load rejected {} documents",
            stats.ingest.errors
        ));
    }
    backend.flush().map_err(err("flush"))?;
    Ok((store, stats))
}

/// The documents of store `i` of a deployment.
pub fn store_docs(kind: Kind, seed: u64, i: usize) -> Vec<RawDoc> {
    gen::corpus(
        seed.wrapping_add(i as u64 * 0x1_0000_0001),
        kind.spec().docs,
    )
}

/// Raw input bytes of a document set.
pub fn raw_bytes(docs: &[RawDoc]) -> u64 {
    docs.iter().map(|d| d.content.len() as u64).sum()
}

/// A running deployment: the CLI server(s) and, for `databank`, the
/// router process in front of them.
pub struct Deployment {
    /// CLI servers, one per store.
    pub servers: Vec<Server>,
    /// The federation router (`databank` only): this binary in its
    /// `--serve-router` mode.
    pub router: Option<Server>,
    /// Store directories, one per server.
    pub dirs: Vec<PathBuf>,
    /// Where clients send requests.
    pub addr: SocketAddr,
    /// Documents loaded per store.
    pub docs: usize,
    /// Raw input bytes loaded.
    pub raw_bytes: u64,
    /// Seconds of set-up spent generating the corpus.
    pub gen_s: f64,
}

impl Deployment {
    /// Generates the corpus, loads every store (see [`Load`]) and starts
    /// its server, starts the router, and waits until each answers and
    /// lists every document it was given.
    pub fn start(opts: &Options, base: &Path) -> Result<Deployment, String> {
        let spec = opts.kind.spec();
        let mut servers = Vec::new();
        let mut dirs = Vec::new();
        let mut raw = 0;
        let mut gen_s = 0.0;
        for i in 0..spec.stores {
            let t0 = Instant::now();
            let docs = store_docs(opts.kind, opts.seed, i);
            gen_s += t0.elapsed().as_secs_f64();
            raw += raw_bytes(&docs);
            let dir = base.join(format!("store-{i}"));
            let srv = match spec.load {
                Load::DropFolder => {
                    let drop_dir = base.join(format!("drop-{i}"));
                    std::fs::create_dir_all(&drop_dir).map_err(|e| format!("drop folder: {e}"))?;
                    for d in &docs {
                        std::fs::write(drop_dir.join(&d.name), &d.content)
                            .map_err(|e| format!("write {}: {e}", d.name))?;
                    }
                    let srv = Server::start(&opts.server_bin, &dir, spec.shards, Some(&drop_dir))?;
                    wait_listed(srv.addr, docs.len())?;
                    srv
                }
                Load::Bulk => {
                    drop(load_store(&dir, &docs, spec.shards)?);
                    Server::start(&opts.server_bin, &dir, spec.shards, None)?
                }
            };
            servers.push(srv);
            dirs.push(dir);
        }
        let (router, addr) = if opts.kind == Kind::Databank {
            let exe = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
            let peers: Vec<String> = servers.iter().map(|s| s.addr.to_string()).collect();
            let mut cmd = Command::new(exe);
            cmd.arg("--serve-router").arg(peers.join(","));
            let r = Server::launch(cmd)?;
            let addr = r.addr;
            (Some(r), addr)
        } else {
            (None, servers[0].addr)
        };
        Ok(Deployment {
            servers,
            router,
            dirs,
            addr,
            docs: spec.docs,
            raw_bytes: raw,
            gen_s,
        })
    }

    /// Waits, untimed, until every server's text index has stopped
    /// compacting what set-up loaded (background work that would
    /// otherwise run into the timed window).
    pub fn settle(&self) -> Result<(), String> {
        self.servers.iter().try_for_each(|s| wait_settled(s.addr))
    }

    /// SIGKILLs every server and the router.
    pub fn kill(&mut self) {
        if let Some(r) = &mut self.router {
            r.kill();
        }
        for s in &mut self.servers {
            s.kill();
        }
    }

    /// The CLI servers and the router.
    fn processes(&self) -> impl Iterator<Item = &Server> {
        self.servers.iter().chain(&self.router)
    }

    /// `/proc/<pid>/io` read counters summed over the CLI servers.
    pub fn proc_io(&self) -> ProcIo {
        self.servers.iter().fold(ProcIo::default(), |a, s| {
            let io = ProcIo::of(s.pid());
            ProcIo {
                syscr: a.syscr + io.syscr,
                rchar: a.rchar + io.rchar,
            }
        })
    }

    /// Peak RSS summed over the server processes (the router's too), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.processes().map(|s| server::peak_rss_mb(s.pid())).sum()
    }

    /// Bytes on disk summed over the stores.
    pub fn store_bytes(&self) -> u64 {
        self.dirs.iter().map(|d| server::dir_bytes(d)).sum()
    }
}

/// Waits until the server lists `docs` documents.
pub fn wait_listed(addr: SocketAddr, docs: usize) -> Result<(), String> {
    let t0 = Instant::now();
    let mut conn = Conn::new(addr, REQUEST_TIMEOUT);
    loop {
        let listed = conn
            .request("PROPFIND", "/docs", &[])
            .map(|r| {
                String::from_utf8_lossy(&r.body)
                    .matches("<response>")
                    .count()
            })
            .unwrap_or(0);
        if listed >= docs {
            return Ok(());
        }
        if t0.elapsed() > LOAD_TIMEOUT {
            return Err(format!(
                "server at {addr} did not finish loading {docs} documents"
            ));
        }
        std::thread::sleep(LOAD_POLL);
    }
}

/// Waits until the server's text index reports the same segment and
/// compaction counts five times in a row, 50 ms apart.
pub fn wait_settled(addr: SocketAddr) -> Result<(), String> {
    let t0 = Instant::now();
    let mut conn = Conn::new(addr, REQUEST_TIMEOUT);
    let mut last = String::new();
    let mut stable = 0;
    while stable < 4 {
        if t0.elapsed() > LOAD_TIMEOUT {
            return Err(format!("server at {addr} never stopped compacting"));
        }
        std::thread::sleep(Duration::from_millis(50));
        let stats = conn
            .get("/xdb/stats")
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .unwrap_or_default();
        let ix = attrs(&stats, "index");
        let now = format!("{:?}/{:?}", ix.get("segments"), ix.get("compactions"));
        stable = if now == last { stable + 1 } else { 0 };
        last = now;
    }
    Ok(())
}

/// A router with one `RemoteSource` per peer and one databank over all
/// of them, assembled from `netmark-federation`'s public API only.
pub fn build_router(peers: &[SocketAddr], bank: &str) -> Result<Router, String> {
    let mut router = Router::new();
    let mut names = Vec::new();
    for (i, addr) in peers.iter().enumerate() {
        let name = format!("peer{i}");
        let src = RemoteSource::connect(&name, &addr.to_string(), RemoteConfig::default())
            .map_err(|e| format!("connect {name}: {e}"))?;
        router
            .register_source(Arc::new(src))
            .map_err(|e| format!("register {name}: {e}"))?;
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    router
        .define_databank(bank, &refs)
        .map_err(|e| format!("define databank: {e}"))?;
    Ok(router)
}

/// Sets the deployment up [`SETUPS`] times, timing each, and keeps the
/// last one, settled. Returns it with the median set-up time in seconds,
/// every set-up's time, and the part of each spent generating the corpus.
pub fn timed_setup(
    opts: &Options,
    work: &Path,
) -> Result<(Deployment, f64, Vec<f64>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut gen_times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for rep in 0..SETUPS {
        let base = work.join(format!("setup-{rep}"));
        let t0 = Instant::now();
        let d = Deployment::start(opts, &base)?;
        times.push(t0.elapsed().as_secs_f64());
        gen_times.push(d.gen_s);
        if rep + 1 == SETUPS {
            kept = Some(d);
        } else {
            drop(d);
            let _ = std::fs::remove_dir_all(&base);
        }
    }
    let kept = kept.expect("at least one set-up");
    kept.settle()?;
    Ok((kept, stats::median(&times), times, gen_times))
}

/// What one connection should send.
pub enum Traffic {
    /// Zipf-skewed queries from the catalogue.
    Zipf(ZipfStream),
    /// Queries that never repeat within the run.
    Distinct(DistinctStream),
    /// New documents, PUT back to back.
    Put(std::vec::IntoIter<RawDoc>),
}

impl Traffic {
    /// The traffic of connection `client` in a run of `opts`.
    pub fn for_client(opts: &Options, client: usize, catalogue: &Arc<Vec<String>>) -> Traffic {
        let spec = opts.kind.spec();
        if spec.writer && client == 0 {
            // Sized for well above the observed PUT rate over the window.
            let n = (opts.window.as_secs_f64() * 600.0).ceil() as usize + 100;
            return Traffic::Put(gen::upload_docs(opts.seed, n).into_iter());
        }
        if spec.catalogue == 0 {
            Traffic::Distinct(DistinctStream::new(
                opts.seed,
                client as u64,
                CLIENTS as u64,
            ))
        } else {
            Traffic::Zipf(ZipfStream::new(
                Arc::clone(catalogue),
                opts.zipf,
                opts.seed,
                client as u64,
            ))
        }
    }

    /// The next query string (`None` for upload traffic).
    pub fn next_query(&mut self) -> Option<String> {
        match self {
            Traffic::Zipf(z) => Some(z.next_query()),
            Traffic::Distinct(d) => Some(d.next_query()),
            Traffic::Put(_) => None,
        }
    }
}

/// The XDB target for a query string (databank workloads name the bank).
pub fn target(kind: Kind, qs: &str) -> String {
    if kind == Kind::Databank {
        format!("/xdb?{qs}&databank={BANK}")
    } else {
        format!("/xdb?{qs}")
    }
}

/// Everything one connection observed.
#[derive(Default)]
pub struct ClientLog {
    /// Query latencies (failed requests count as infinitely slow).
    pub query_lat: Latencies,
    /// PUT latencies (failed requests count as infinitely slow).
    pub put_lat: Latencies,
    /// Per successful query: (query string, FNV hash of the answer).
    pub answers: Vec<(String, u64)>,
    /// Distinct answer bodies by hash (kept only when `keep_bodies`).
    pub bodies: HashMap<u64, Vec<u8>>,
    /// Acknowledged PUTs.
    pub acked: Vec<RawDoc>,
    /// Requests sent.
    pub attempted: u64,
    /// Non-2xx answers (429 included).
    pub bad_status: u64,
    /// Connection errors and timeouts.
    pub io_errors: u64,
    /// Completed queries / PUTs.
    pub queries_ok: u64,
    /// Completed PUTs.
    pub puts_ok: u64,
}

impl ClientLog {
    /// Folds another connection's log into this one.
    pub fn absorb(&mut self, o: ClientLog) {
        self.query_lat.extend(&o.query_lat);
        self.put_lat.extend(&o.put_lat);
        self.answers.extend(o.answers);
        self.bodies.extend(o.bodies);
        self.acked.extend(o.acked);
        self.attempted += o.attempted;
        self.bad_status += o.bad_status;
        self.io_errors += o.io_errors;
        self.queries_ok += o.queries_ok;
        self.puts_ok += o.puts_ok;
    }
}

/// Drives one connection until `deadline`.
pub fn drive(kind: Kind, addr: SocketAddr, traffic: &mut Traffic, deadline: Instant) -> ClientLog {
    let mut conn = Conn::new(addr, REQUEST_TIMEOUT);
    let mut log = ClientLog::default();
    let keep_bodies = kind == Kind::Databank;
    while Instant::now() < deadline {
        match traffic {
            Traffic::Put(docs) => {
                let Some(doc) = docs.next() else { break };
                let path = format!("/docs/{}", netmark_xdb::url_encode(&doc.name));
                log.attempted += 1;
                let t0 = Instant::now();
                let r = conn.request("PUT", &path, doc.content.as_bytes());
                let el = t0.elapsed();
                match r {
                    Ok(resp) if resp.ok() => {
                        log.put_lat.push(el);
                        log.puts_ok += 1;
                        log.acked.push(doc);
                    }
                    Ok(_) => {
                        log.put_lat.push(Duration::MAX);
                        log.bad_status += 1;
                    }
                    Err(_) => {
                        log.put_lat.push(Duration::MAX);
                        log.io_errors += 1;
                    }
                }
            }
            Traffic::Zipf(_) | Traffic::Distinct(_) => {
                let Some(qs) = traffic.next_query() else {
                    break;
                };
                let path = target(kind, &qs);
                log.attempted += 1;
                let t0 = Instant::now();
                let r = conn.get(&path);
                let el = t0.elapsed();
                match r {
                    Ok(resp) if resp.ok() => {
                        log.query_lat.push(el);
                        log.queries_ok += 1;
                        let h = gen::fnv_bytes(&resp.body);
                        if keep_bodies {
                            log.bodies.entry(h).or_insert(resp.body);
                        }
                        log.answers.push((qs, h));
                    }
                    Ok(_) => {
                        log.query_lat.push(Duration::MAX);
                        log.bad_status += 1;
                    }
                    Err(_) => {
                        log.query_lat.push(Duration::MAX);
                        log.io_errors += 1;
                    }
                }
            }
        }
    }
    log
}

/// The traffic of every connection of a run, in connection order.
pub fn traffic(opts: &Options, catalogue: &Arc<Vec<String>>) -> Vec<Traffic> {
    (0..CLIENTS)
        .map(|c| Traffic::for_client(opts, c, catalogue))
        .collect()
}

/// Runs the closed loop against `addr` for `window`, continuing each
/// connection's traffic where it left off.
pub fn closed_loop(
    kind: Kind,
    addr: SocketAddr,
    traffic: &mut [Traffic],
    window: Duration,
) -> (ClientLog, Duration) {
    let t0 = Instant::now();
    let deadline = t0 + window;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .iter_mut()
            .map(|t| s.spawn(move || drive(kind, addr, t, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut all = ClientLog::default();
    for l in logs {
        all.absorb(l);
    }
    (all, elapsed)
}

/// Attribute values of the first `<tag …>` element in `xml`.
pub fn attrs(xml: &str, tag: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let open = format!("<{tag} ");
    let Some(start) = xml.find(&open) else {
        return out;
    };
    let rest = &xml[start + open.len()..];
    let end = rest.find('>').unwrap_or(rest.len());
    let mut s = &rest[..end];
    while let Some(eq) = s.find("=\"") {
        let key = s[..eq].trim().to_string();
        let after = &s[eq + 2..];
        let Some(close) = after.find('"') else { break };
        out.insert(key, after[..close].to_string());
        s = &after[close + 1..];
    }
    out
}

/// `GET /xdb/stats` of every server (and the router), as raw XML
/// documents.
pub fn scrape(d: &Deployment) -> Vec<String> {
    d.processes()
        .map(|s| {
            Conn::new(s.addr, REQUEST_TIMEOUT)
                .get("/xdb/stats")
                .ok()
                .filter(|r| r.status == 200)
                .map(|r| String::from_utf8_lossy(&r.body).into_owned())
                .unwrap_or_default()
        })
        .collect()
}

/// Sum over stats documents of the numeric attribute `attr` of `<tag>`.
pub fn counter(docs: &[String], tag: &str, attr: &str) -> u64 {
    docs.iter()
        .filter_map(|x| attrs(x, tag).get(attr).and_then(|v| v.parse::<u64>().ok()))
        .sum()
}

/// Time spent reopening copies of the killed stores, per run.
pub const RECOVERY_BUDGET: Duration = Duration::from_secs(4);
/// Reopens timed per run: at least this many...
pub const RECOVERY_MIN_REPS: usize = 5;
/// ...and at most this many, however cheap a reopen is.
pub const RECOVERY_MAX_REPS: usize = 31;

/// Times reopening the killed stores. Each repetition copies every
/// store directory and opens the copies; the last one opens the
/// originals in place. The first repetition sets how many fit in
/// [`RECOVERY_BUDGET`] (an odd number, clamped to the bounds above).
/// Returns the median time to reopen all stores, every sample, and the
/// stores as reopened in place.
pub fn timed_recovery(
    dirs: &[PathBuf],
    shards: Option<usize>,
) -> Result<(f64, Vec<f64>, Vec<Store>), String> {
    let mut times = Vec::new();
    let mut reps = RECOVERY_MAX_REPS;
    while times.len() + 1 < reps {
        let mut total = 0.0;
        for (i, d) in dirs.iter().enumerate() {
            let copy = d.with_file_name(format!("recover-{i}"));
            server::copy_dir(d, &copy).map_err(|e| format!("copy {}: {e}", d.display()))?;
            let t0 = Instant::now();
            let store = Store::open(&copy, shards)?;
            total += t0.elapsed().as_secs_f64();
            drop(store);
            let _ = std::fs::remove_dir_all(&copy);
        }
        if times.is_empty() {
            let fit = (RECOVERY_BUDGET.as_secs_f64() / total.max(1e-6)) as usize;
            reps = (fit | 1).clamp(RECOVERY_MIN_REPS, RECOVERY_MAX_REPS);
        }
        times.push(total);
    }
    let mut opened = Vec::new();
    let mut total = 0.0;
    for d in dirs {
        let t0 = Instant::now();
        opened.push(Store::open(d, shards)?);
        total += t0.elapsed().as_secs_f64();
    }
    times.push(total);
    Ok((stats::median(&times), times, opened))
}

/// Outcome of the correctness checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Answers compared (or parsed).
    pub answers: u64,
    /// Answers that differ from the oracle (or do not parse).
    pub mismatches: u64,
    /// Acknowledged PUTs checked after recovery.
    pub acked: u64,
    /// Acknowledged PUTs missing after recovery.
    pub lost: u64,
}

/// Compares every answer with the in-process oracle
/// `NetMark::query(..).to_xml()` on the recovered store.
pub fn check_oracle(nm: &NetMark, answers: &[(String, u64)]) -> Result<Checked, String> {
    let distinct: Vec<&String> = answers
        .iter()
        .map(|(q, _)| q)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let expected: HashMap<&String, u64> = std::thread::scope(|s| {
        let chunks: Vec<_> = distinct
            .chunks(distinct.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| {
                            let parsed = XdbQuery::from_url(q).map_err(|e| format!("{q}: {e}"))?;
                            let rs = nm.query(&parsed).map_err(|e| format!("oracle {q}: {e}"))?;
                            Ok((*q, gen::fnv_bytes(rs.to_xml().as_bytes())))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut m = HashMap::new();
        for h in chunks {
            m.extend(h.join().expect("oracle thread panicked")?);
        }
        Ok::<_, String>(m)
    })?;
    let mismatches = answers
        .iter()
        .filter(|(q, h)| expected.get(q) != Some(h))
        .count() as u64;
    Ok(Checked {
        answers: answers.len() as u64,
        mismatches,
        ..Checked::default()
    })
}

/// Checks that every federated answer parses as a `<results>` document.
pub fn check_results_xml(log: &ClientLog) -> Checked {
    let bad: HashSet<u64> = log
        .bodies
        .iter()
        .filter(|(_, body)| {
            let text = String::from_utf8_lossy(body);
            !matches!(
                netmark_sgml::parse_xml(&text, &netmark_sgml::NodeTypeConfig::empty()),
                Ok(node) if node.name == "results"
            )
        })
        .map(|(h, _)| *h)
        .collect();
    Checked {
        answers: log.answers.len() as u64,
        mismatches: log.answers.iter().filter(|(_, h)| bad.contains(h)).count() as u64,
        ..Checked::default()
    }
}

/// Checks that every acknowledged PUT is listed after recovery.
pub fn check_durable(store: &dyn XdbBackend, acked: &[RawDoc]) -> Result<Checked, String> {
    let listed: HashSet<String> = store
        .list_documents()
        .map_err(err("list documents"))?
        .into_iter()
        .map(|d| d.file_name)
        .collect();
    Ok(Checked {
        acked: acked.len() as u64,
        lost: acked.iter().filter(|d| !listed.contains(&d.name)).count() as u64,
        ..Checked::default()
    })
}

/// Provenance every result record carries.
pub fn provenance(opts: &Options, d: &Deployment) -> Obj {
    Obj::new()
        .str("workload", opts.kind.name())
        .int("seed", opts.seed)
        .str("rev", &opts.rev)
        .int(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .int("stores", d.dirs.len() as u64)
        .int("docs_per_store", d.docs as u64)
        .int("raw_input_bytes", d.raw_bytes)
        .num("window_s", opts.window.as_secs_f64())
        .num("zipf_s", opts.zipf)
}

/// Runs one workload; returns the lines to print (the result last).
pub fn run(opts: &Options) -> Result<Vec<String>, String> {
    let work = WorkDir::new(opts)?;
    if opts.trace {
        crate::layers::run(opts, &work.0)
    } else {
        run_end_to_end(opts, &work.0)
    }
}

fn run_end_to_end(opts: &Options, work: &Path) -> Result<Vec<String>, String> {
    let spec = opts.kind.spec();
    let catalogue = Arc::new(gen::catalogue(opts.seed, spec.catalogue));
    let (mut dep, setup_s, setup_times, gen_times) = timed_setup(opts, work)?;

    // Zero-cost server-side counters around the window.
    let stats_before = scrape(&dep);
    let io_before = dep.proc_io();
    let mut traffic = traffic(opts, &catalogue);
    let (log, elapsed) = closed_loop(opts.kind, dep.addr, &mut traffic, opts.window);
    let io = dep.proc_io().since(io_before);
    let stats_after = scrape(&dep);
    let rss = dep.peak_rss_mb();
    let delta = |tag: &str, attr: &str| {
        counter(&stats_after, tag, attr).saturating_sub(counter(&stats_before, tag, attr))
    };
    let server_counters = Obj::new()
        .int("queries", delta("query", "queries"))
        .int("cache_hits", delta("query", "cache-hits"))
        .int("memo_hits", delta("query", "memo-hits"))
        .int("memo_misses", delta("query", "memo-misses"))
        .int("requests", delta("server", "requests"))
        .int("sheds", delta("server", "shed"))
        .int("read_timeouts", delta("server", "read-timeouts"))
        .int("deadline_overruns", delta("server", "deadline-overruns"))
        .int("panics", delta("server", "panics"))
        .int("index_compactions", delta("index", "compactions"))
        .int("proc_syscr", io.syscr)
        .int("proc_rchar", io.rchar);

    dep.kill();
    let acked_bytes = raw_bytes(&log.acked);
    let store_bytes = dep.store_bytes();
    let space_amp = store_bytes as f64 / (dep.raw_bytes + acked_bytes) as f64;
    let t_recover = Instant::now();
    let (recovery_s, recovery_times, stores) = timed_recovery(&dep.dirs, spec.shards)?;
    let t_check = Instant::now();

    let checked = match opts.kind {
        Kind::QueryFit | Kind::QuerySpill => check_oracle(&stores[0].members()[0], &log.answers)?,
        Kind::IngestMix => check_durable(&*stores[0].backend(), &log.acked)?,
        Kind::Databank => check_results_xml(&log),
    };
    let phases = Obj::new()
        .num("window", elapsed.as_secs_f64())
        .num("recovery", (t_check - t_recover).as_secs_f64())
        .num("check", t_check.elapsed().as_secs_f64());

    let secs = elapsed.as_secs_f64();
    let n = log.query_lat.len();
    let failed = log.bad_status + log.io_errors + checked.mismatches + checked.lost;
    let attempted = log.attempted.max(1);
    let correct = checked.mismatches == 0 && checked.lost == 0;
    let e2e = Obj::new()
        .obj("setup_s", metric(setup_s, "s"))
        .obj("query_p50_ms", metric(log.query_lat.percentile(50.0), "ms"))
        .obj("query_p90_ms", metric(log.query_lat.percentile(90.0), "ms"))
        .obj("query_qps", metric(log.queries_ok as f64 / secs, "1/s"))
        .obj("recovery_s", metric(recovery_s, "s"))
        .obj("peak_rss_mb", metric(rss, "MiB"))
        .obj("space_amp", metric(space_amp, "ratio"));
    // The highest percentile this run's sample supports (p90 is gated
    // because every workload supports it).
    let tail_pct = stats::highest_supported(n).unwrap_or(f64::NAN);
    let mut record = provenance(opts, &dep)
        .int("store_bytes", store_bytes)
        .int("query_n", n as u64)
        .obj("query_p95_ms", metric(log.query_lat.percentile(95.0), "ms"))
        .obj("query_p99_ms", metric(log.query_lat.percentile(99.0), "ms"))
        .num("query_tail_pct", tail_pct)
        .obj(
            "query_tail_ms",
            metric(
                if tail_pct.is_nan() {
                    f64::NAN
                } else {
                    log.query_lat.percentile(tail_pct)
                },
                "ms",
            ),
        )
        .num("error_rate", failed as f64 / attempted as f64)
        .int("bad_status", log.bad_status)
        .int("io_errors", log.io_errors)
        .int("answers_checked", checked.answers)
        .int("oracle_mismatches", checked.mismatches)
        .int("acked_checked", checked.acked)
        .int("acked_lost", checked.lost)
        .raw("setup_times_s", crate::out::list(&setup_times))
        .raw("setup_gen_s", crate::out::list(&gen_times))
        .raw("recovery_times_s", crate::out::list(&recovery_times))
        .obj("server", server_counters)
        .obj("phase_s", phases);
    if spec.writer {
        let puts = log.put_lat.len();
        let ingest = Obj::new()
            .obj(
                "ingest_docs_per_s",
                metric(log.puts_ok as f64 / secs, "1/s"),
            )
            .obj("ingest_p99_ms", metric(log.put_lat.percentile(99.0), "ms"))
            .int("ingest_n", puts as u64)
            .bool("ingest_p99_supported", stats::supported(puts, 99.0));
        record = record.obj("ingest", ingest);
    }
    let result = Obj::new()
        .bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .obj("metrics", e2e);
    Ok(vec![
        Obj::new().obj("record", record).render(),
        result.render(),
    ])
}
