//! `servebench`: the NETMARK serving benchmark.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//!            --server-bin PATH --work DIR [--rev REV] [--zipf S]
//! servebench --serve-router ADDR,ADDR,...
//! ```
//!
//! Starts the `netmark` CLI server (or, for `databank`, a federation
//! router over CLI peers), drives it from this process with a closed loop
//! of two keep-alive connections for `S` seconds, checks every answer, and
//! prints one JSON result object as the last line of stdout. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload with
//! an outside-in per-layer trace and reports the per-layer metrics.
//! `--zipf` changes the skew of the catalogue traffic (default 0.6).
//! `--serve-router` is the `databank` router process: a federation router
//! over the given peers, serving on an ephemeral port it prints. See
//! `servebench/README.md` and `servebench/run.py`, which builds the server
//! and this binary from source and then runs it.

mod gen;
mod http;
mod layers;
mod out;
mod server;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use workload::{Kind, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work = None;
    let mut rev = "unknown".to_string();
    let mut zipf = workload::ZIPF_S;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::from_name(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--rev" => rev = value()?,
            "--zipf" => {
                zipf = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--zipf: {e}"))?;
                if !(zipf > 0.0 && zipf <= 4.0) {
                    return Err(format!("--zipf must be in (0, 4], got {zipf}"));
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds),
        zipf,
        trace: trace.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work: work.ok_or("--work is required")?,
        rev,
    })
}

/// The `databank` router process: serves a router over `peers` until
/// killed.
fn serve_router(peers: &str) -> Result<(), String> {
    let addrs = peers
        .split(',')
        .map(|a| a.parse().map_err(|e| format!("peer '{a}': {e}")))
        .collect::<Result<Vec<SocketAddr>, String>>()?;
    let router = workload::build_router(&addrs, workload::BANK)?;
    let h = netmark_federation::serve_router(Arc::new(router), None, "127.0.0.1:0")
        .map_err(|e| format!("router: {e}"))?;
    println!("serving on http://{}", h.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, peers] = args.as_slice() {
        if flag == "--serve-router" {
            if let Err(e) = serve_router(peers) {
                eprintln!("servebench: {e}");
            }
            return ExitCode::FAILURE;
        }
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match workload::run(&opts) {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
