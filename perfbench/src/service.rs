//! The daemon side: an in-process `server::service::Server` driven over
//! TCP the way a client would drive it.
//!
//! Set-up starts a server with two workers and a fresh cache directory
//! and pre-warms it with every corpus spec the ledger pins as
//! `synthesized`, sent as `.g` text. The timed phase is an open loop:
//! one sender thread writes requests on one persistent, pipelined
//! NDJSON connection at seeded Poisson arrival times, and one reader
//! thread timestamps every reply. Latency runs from the moment a
//! request was due, so a stalled sender charges its delay to every
//! request behind it.
//!
//! Two fixed rates: at [`RATE_LOW`] the workers are nearly idle, so
//! fixed per-request costs dominate; [`RATE_HIGH`] is twice that, far
//! below the rate at which the backlog starts to grow. Most
//! requests resubmit a pre-warmed spec (the cache-hit path). The rest
//! ask for the same specs at the `celement` or `rs` architecture, with
//! a verification budget of one, two or four times the default: the
//! first such request for each variant is a `csc_resumed` (or `miss`)
//! that writes the cache — all of them fall in the high phase, which
//! comes first, so a miss's reply is not held for the long gaps of the
//! low rate (see `NOTES.md`) — and later ones are hits. Specs whose
//! verdict is a failure are left out: failures are never cached, so
//! every repeat would re-run the flow and time the CSC sweep instead of
//! the service.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asyncsynth::{Architecture, Json};
use corpus::LedgerRecord;
use server::protocol::Response;
use server::service::{Server, ServerConfig};
use stg::canon::digest_bytes;
use stg::Stg;

use crate::stats::Rng;

/// Requests per second of the low phase: a hit keeps a worker busy for
/// well under a millisecond, so the workers are nearly idle.
pub const RATE_LOW: f64 = 50.0;
/// Requests per second of the high phase. The backlog of hits starts
/// to grow between 2000 and 3000 req/s on two cores. A hit's reply
/// waits for the next request or the client's ~40 ms delayed ACK (see
/// `NOTES.md`); at this rate about 2.5% of the gaps exceed 40 ms, so
/// the hit p99 lies among the replies the delayed ACK releases. At 150
/// req/s and above it falls between the gaps and that timer, and moved
/// by up to 30% from seed to seed.
pub const RATE_HIGH: f64 = 100.0;
/// Requests in the high phase: the 168 variant misses plus 1032 hits,
/// so the hit p99 has more than ten samples beyond it.
pub const HIGH_REQUESTS: usize = 1200;
/// Requests in the low phase, all hits: 250 > 200 for the p95.
pub const LOW_REQUESTS: usize = 250;
/// Share of low-phase requests that ask for a variant again.
pub const VARIANT_REPEAT_SHARE: f64 = 0.1;
/// The high-rate latency limit behind `slo_met_share`: the client's
/// delayed-ACK timer, so a reply that waits for it misses the limit.
pub const SLO_MS: f64 = 40.0;
/// Quiet time between the phases, so no variant miss is still running
/// when the low phase asks for it again.
const PHASE_GAP_S: f64 = 0.5;
/// The variant architectures.
pub const ARCHS: [Architecture; 2] = [Architecture::CElement, Architecture::RsLatch];
/// The variant verification budgets, as multiples of the default bound.
/// A budget salts the cache key without changing the result (every
/// served spec verifies well inside the default bound), so the three
/// budgets triple the distinct misses `miss_ms.p50` is taken over.
pub const BUDGETS: [usize; 3] = [1, 2, 4];

/// A request variant: a non-default architecture and a verification
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub arch: Architecture,
    pub budget: usize,
}

/// Every variant, architecture-major.
pub fn variants() -> Vec<Variant> {
    ARCHS
        .iter()
        .flat_map(|&arch| BUDGETS.iter().map(move |&budget| Variant { arch, budget }))
        .collect()
}
/// How long after the last due time replies may still arrive before
/// the outstanding requests count as lost.
const REPLY_GRACE: Duration = Duration::from_secs(30);

/// One servable spec: its `.g` text and its pinned ledger record.
#[derive(Debug, Clone)]
pub struct Served {
    pub model: String,
    pub text: String,
    pub ledger: LedgerRecord,
}

/// The specs the service serves: every corpus spec pinned as
/// `synthesized`, in ledger order.
pub fn served_specs(
    specs: &[(&str, Stg)],
    ledger: &crate::expected::Expected,
) -> Result<Vec<Served>, String> {
    let mut served = Vec::new();
    for (family, spec) in specs {
        let record = ledger
            .get(family, spec.name())
            .ok_or_else(|| format!("no ledger record for {family}/{}", spec.name()))?;
        if record.outcome == "synthesized" {
            served.push(Served {
                model: spec.name().to_owned(),
                text: stg::parse::write_g(spec),
                ledger: record.clone(),
            });
        }
    }
    Ok(served)
}

/// Expected-record family of an architecture variant.
pub fn variant_family(arch: Architecture) -> String {
    format!("service-{}", arch.name())
}

/// The request line for `text`, as `variant` or with default options,
/// newline included.
pub fn request_line(text: &str, variant: Option<Variant>) -> String {
    let mut pairs = vec![("op", Json::str("synth")), ("spec", Json::str(text))];
    if let Some(v) = variant {
        pairs.push(("arch", Json::str(v.arch.name())));
        if v.budget > 1 {
            let bound = v.budget * asyncsynth::VerifyOptions::default().bound;
            pairs.push(("verify_bound", Json::num(bound)));
        }
    }
    Json::obj(pairs).render() + "\n"
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Low,
    High,
}

/// One scheduled request: which spec, which variant (0 = default
/// options, else `1 + ` index into [`variants`]) and when it is due,
/// in seconds after the schedule starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub phase: Phase,
    pub spec: usize,
    pub variant: usize,
    pub due_s: f64,
}

/// `n` exponential gaps at `rate`, stratified: the gaps are the
/// distribution's quantiles at `(i + 0.5) / n`, in seeded order. Every
/// seed thus gets the same gap distribution — so the same share of
/// requests wait on the next arrival — and only the order changes.
fn stratified_gaps(rng: &mut Rng, n: usize, rate: f64) -> Vec<f64> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    rng.shuffle(&mut gaps);
    gaps
}

/// `n` draws from `0..k`, each value equally often (up to one), in
/// seeded order.
fn stratified_draws(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut draws: Vec<usize> = (0..n).map(|i| i % k).collect();
    rng.shuffle(&mut draws);
    draws
}

/// The seeded open-loop schedule over `n_specs` served specs: Poisson
/// arrivals (stratified gaps) at [`RATE_HIGH`], then at [`RATE_LOW`].
/// Every variant is requested for the first time in the high phase,
/// once each, at seeded positions; [`VARIANT_REPEAT_SHARE`] of the low
/// phase asks for variants again. Hits are spread evenly over the specs.
pub fn schedule(seed: u64, n_specs: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x5EED_5E41_CE00_0001);
    let per_spec = variants().len();
    let n_variants = n_specs * per_spec;
    assert!(
        n_variants < HIGH_REQUESTS,
        "every variant fits in the high phase"
    );
    let variant = |v: usize| (v / per_spec, 1 + v % per_spec);
    let mut plan = Vec::with_capacity(LOW_REQUESTS + HIGH_REQUESTS);
    let phases = [
        (Phase::High, HIGH_REQUESTS, RATE_HIGH, n_variants),
        (
            Phase::Low,
            LOW_REQUESTS,
            RATE_LOW,
            (LOW_REQUESTS as f64 * VARIANT_REPEAT_SHARE) as usize,
        ),
    ];
    let mut t = 0.0;
    for (phase, n, rate, n_var) in phases {
        let mut variants = stratified_draws(&mut rng, n_var, n_variants).into_iter();
        let mut hits = stratified_draws(&mut rng, n - n_var, n_specs).into_iter();
        let mut slots: Vec<bool> = (0..n).map(|i| i < n_var).collect();
        rng.shuffle(&mut slots);
        // A reply can wait for the client's next request to carry the
        // ACK it needs, so the gap after each request is part of its
        // latency. The gaps after variants and after hits are
        // stratified separately so neither group's share of long gaps
        // depends on the seed.
        let after_variant = (0..n).filter(|&i| i > 0 && slots[i - 1]).count();
        let mut gaps_after_variant = stratified_gaps(&mut rng, after_variant, rate).into_iter();
        let mut gaps_after_hit = stratified_gaps(&mut rng, n - after_variant, rate).into_iter();
        for (i, &slot) in slots.iter().enumerate() {
            let gap = if i > 0 && slots[i - 1] {
                gaps_after_variant.next()
            } else {
                gaps_after_hit.next()
            };
            t += gap.expect("one gap per request");
            let (spec, variant) = if slot {
                variant(variants.next().expect("one draw per variant slot"))
            } else {
                (hits.next().expect("one draw per hit slot"), 0)
            };
            plan.push(Planned {
                phase,
                spec,
                variant,
                due_s: t,
            });
        }
        t += PHASE_GAP_S;
    }
    plan
}

/// A running daemon with its own cache directory.
pub struct Daemon {
    addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<()>>>,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Starts a two-worker server on an ephemeral port with a fresh
    /// cache directory.
    pub fn start(cache_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(cache_dir);
        let config = ServerConfig {
            workers: 2,
            cache_dir: Some(cache_dir.to_owned()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", &config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = std::thread::Builder::new()
            .name("bench-server".to_owned())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Daemon {
            addr,
            handle: Some(handle),
            cache_dir: cache_dir.to_owned(),
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    /// One request answered by one reply, on a connection of its own.
    pub fn call(&self, line: &str) -> Result<Response, String> {
        let mut conn = self.connect()?;
        conn.send(line)?;
        let reply = conn.recv()?.ok_or("connection closed")?;
        Response::parse_line(&reply)
    }

    /// The server's cache counters from a `metrics` request.
    pub fn cache_counters(&self) -> Result<BTreeMap<String, u64>, String> {
        match self.call(r#"{"op":"metrics"}"#)? {
            Response::Metrics { counters, .. } => Ok(counters
                .iter()
                .filter(|(k, _)| k.starts_with("cache_"))
                .map(|(k, v)| (k.to_owned(), v))
                .collect()),
            other => Err(format!("unexpected metrics reply {other:?}")),
        }
    }

    /// Shuts the server down, joins it and removes its cache.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.shutdown();
        self.remove_cache();
        result
    }

    fn remove_cache(&self) {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let reply = self.call(r#"{"op":"shutdown"}"#);
        let joined = handle.join();
        reply?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
        self.remove_cache();
    }
}

/// One client connection. The client sets `TCP_NODELAY` on its side so
/// that any small-write stall measured is the server's.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next reply line; `Ok(None)` on end of stream. Waits through
    /// read timeouts until [`REPLY_GRACE`] passes without a byte.
    pub fn recv(&mut self) -> Result<Option<String>, String> {
        let deadline = Instant::now() + REPLY_GRACE;
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => return Ok(None),
                Ok(_) if line.ends_with('\n') => return Ok(Some(line.trim_end().to_owned())),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() > deadline {
                        return Err("reply timed out".to_owned());
                    }
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub sent: Option<Instant>,
    pub accepted: Option<Instant>,
    pub done: Option<Instant>,
    /// `hit`, `miss`, `csc_resumed` for results; `rejected` or `error`
    /// otherwise; empty when the reply was lost.
    pub cache: String,
    /// The rendered summary of a result.
    pub summary: Option<String>,
    pub message: Option<String>,
}

/// Sends `lines` (each ending in a newline, so one request is one
/// write) on one pipelined connection, each at `start + due`,
/// and collects every request's outcome. Replies are matched to
/// requests in `accepted` order: each request draws exactly one
/// `accepted`, `rejected` or job-less `error` before its terminal
/// reply, in the order the requests were written.
pub fn drive(
    daemon: &Daemon,
    lines: &[(f64, String)],
    start: Instant,
) -> Result<Vec<Outcome>, String> {
    let (mut writer, mut reader) = daemon.connect()?.split();
    let n = lines.len();
    let (sent_tx, sent_rx) = mpsc::channel::<(usize, Instant)>();
    let reader_thread = std::thread::Builder::new()
        .name("bench-reader".to_owned())
        .spawn(move || read_replies(&mut reader, n))
        .map_err(|e| format!("spawn reader: {e}"))?;
    let sender: Result<(), String> = (|| {
        for (i, (due_s, line)) in lines.iter().enumerate() {
            let due = start + Duration::from_secs_f64(*due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let _ = sent_tx.send((i, sent));
        }
        Ok(())
    })();
    let replies = reader_thread
        .join()
        .map_err(|_| "reader thread panicked".to_owned())?;
    sender?;
    let mut outcomes = replies?;
    for (i, sent) in sent_rx.try_iter() {
        outcomes[i].sent = Some(sent);
    }
    Ok(outcomes)
}

fn read_replies(reader: &mut BufReader<TcpStream>, n: usize) -> Result<Vec<Outcome>, String> {
    let mut outcomes = vec![Outcome::default(); n];
    let mut next_ack = 0usize;
    let mut by_job: BTreeMap<u64, usize> = BTreeMap::new();
    let mut terminal = 0usize;
    let mut last_byte = Instant::now();
    let mut line = String::new();
    while terminal < n {
        line.clear();
        let read = reader.read_line(&mut line);
        let at = Instant::now();
        match read {
            Ok(0) => break,
            Ok(_) if !line.ends_with('\n') => continue,
            Ok(_) => last_byte = at,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if at.duration_since(last_byte) > REPLY_GRACE {
                    break;
                }
                continue;
            }
            Err(e) => return Err(format!("recv: {e}")),
        }
        let response = Response::parse_line(line.trim_end())?;
        let mut ack = |outcomes: &mut Vec<Outcome>| -> Result<usize, String> {
            let i = next_ack;
            if i >= n {
                return Err("more acknowledgements than requests".to_owned());
            }
            next_ack += 1;
            outcomes[i].accepted = Some(at);
            Ok(i)
        };
        match response {
            Response::Accepted { job, .. } => {
                let i = ack(&mut outcomes)?;
                by_job.insert(job, i);
            }
            Response::Rejected { reason, .. } => {
                let i = ack(&mut outcomes)?;
                outcomes[i].done = Some(at);
                outcomes[i].cache = "rejected".to_owned();
                outcomes[i].message = Some(reason);
                terminal += 1;
            }
            Response::Error { job: None, message } => {
                let i = ack(&mut outcomes)?;
                outcomes[i].done = Some(at);
                outcomes[i].cache = "error".to_owned();
                outcomes[i].message = Some(message);
                terminal += 1;
            }
            Response::Error {
                job: Some(job),
                message,
            } => {
                let i = *by_job.get(&job).ok_or("error for an unknown job")?;
                outcomes[i].done = Some(at);
                outcomes[i].cache = "error".to_owned();
                outcomes[i].message = Some(message);
                terminal += 1;
            }
            Response::Result {
                job,
                cache,
                summary,
            } => {
                let i = *by_job.get(&job).ok_or("result for an unknown job")?;
                outcomes[i].done = Some(at);
                outcomes[i].cache = cache;
                outcomes[i].summary = Some(summary.render());
                terminal += 1;
            }
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    Ok(outcomes)
}

/// Verdict drift of a result summary against a pinned record: outcome,
/// CSC pin, gate count and verification, plus the equation and netlist
/// digests when `digests` is set.
pub fn summary_drift(summary: &str, expected: &LedgerRecord, digests: bool) -> Vec<String> {
    let Ok(v) = Json::parse(summary) else {
        return vec!["unparsable summary".to_owned()];
    };
    let mut drift = Vec::new();
    let mut field = |name: &str, live: String, pinned: String| {
        if live != pinned {
            drift.push(format!("{name}: {live} != {pinned}"));
        }
    };
    field(
        "outcome",
        "synthesized".to_owned(),
        expected.outcome.clone(),
    );
    let csc = v.get("csc").and_then(|c| {
        Some((
            c.get("kind")?.as_str()?.to_owned(),
            c.get("states")?.as_usize()?,
        ))
    });
    let pinned_csc = expected
        .csc
        .as_ref()
        .map(|c| (c.kind.clone(), c.num_states));
    field("csc", format!("{csc:?}"), format!("{pinned_csc:?}"));
    field(
        "gates",
        format!("{:?}", v.get("gates").and_then(Json::as_usize)),
        format!("{:?}", expected.num_gates),
    );
    field(
        "verification",
        format!("{:?}", v.get("verification").and_then(Json::as_str)),
        format!("{:?}", expected.verification.as_deref()),
    );
    if digests {
        let digest = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(|s| digest_bytes(s.as_bytes()).to_hex())
        };
        field(
            "equations_digest",
            format!("{:?}", digest("equations")),
            format!("{:?}", expected.equations_digest),
        );
        field(
            "netlist_digest",
            format!("{:?}", digest("netlist")),
            format!("{:?}", expected.netlist_digest),
        );
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::{schedule, variants, Phase, HIGH_REQUESTS, LOW_REQUESTS};

    #[test]
    fn the_seed_fixes_the_schedule() {
        let a = schedule(1, 28);
        assert_eq!(a, schedule(1, 28), "same seed, same schedule");
        let b = schedule(2, 28);
        assert_ne!(a, b, "another seed, another schedule");
        assert_ne!(
            a.iter().map(|p| (p.spec, p.variant)).collect::<Vec<_>>(),
            b.iter().map(|p| (p.spec, p.variant)).collect::<Vec<_>>(),
            "the draws change with the seed, not only the times"
        );
    }

    #[test]
    fn every_variant_is_first_requested_in_the_high_phase() {
        let plan = schedule(3, 28);
        assert_eq!(plan.len(), LOW_REQUESTS + HIGH_REQUESTS);
        let high: Vec<_> = plan.iter().take_while(|p| p.phase == Phase::High).collect();
        assert_eq!(high.len(), HIGH_REQUESTS);
        let mut firsts: Vec<_> = high
            .iter()
            .filter(|p| p.variant > 0)
            .map(|p| (p.spec, p.variant))
            .collect();
        firsts.sort_unstable();
        let n = firsts.len();
        firsts.dedup();
        assert_eq!(
            (n, firsts.len()),
            (28 * variants().len(), 28 * variants().len()),
            "each variant once"
        );
        assert!(
            plan.windows(2).all(|w| w[0].due_s < w[1].due_s),
            "due times increase"
        );
    }
}
