//! One measuring run: set-up, the timed library phase, the daemon's
//! open-loop phase, the output checks and the metrics line.

use std::collections::BTreeMap;
use std::time::Instant;

use asyncsynth::{Backend, Json};
use corpus::LedgerRecord;
use stg::Stg;

use crate::expected::{expected_root, Expected};
use crate::flow::{self, StageCounters};
use crate::service::{self, Daemon, Outcome, Phase, Served};
use crate::stats::{geomean, median, percentile, Rng};
use crate::trace::Tracer;
use crate::workloads::{self, Item, Op};
use crate::{out_dir, Args};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes per run, at least (so `wall_s` is a median of three).
const MIN_PASSES: usize = 3;
/// Traced and untraced passes each of a traced run, at least.
const MIN_TRACED_PASSES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusCold,
    LogicWide,
    AnalysisLarge,
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        match s {
            "corpus-cold" => Ok(Workload::CorpusCold),
            "logic-wide" => Ok(Workload::LogicWide),
            "analysis-large" => Ok(Workload::AnalysisLarge),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus-cold",
            Workload::LogicWide => "logic-wide",
            Workload::AnalysisLarge => "analysis-large",
        }
    }

    /// The library phase's inputs.
    fn items(self) -> Vec<Item> {
        match self {
            Workload::CorpusCold => workloads::corpus_cold(),
            Workload::LogicWide => workloads::logic_wide(),
            Workload::AnalysisLarge => workloads::analysis_large(),
        }
    }
}

/// Checked outputs and the failures among them.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, drift: &[String]) {
        self.attempted += 1;
        if !drift.is_empty() {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED {what}: {}", drift.join("; "));
            }
        }
    }
}

pub fn evaluate_item(item: &Item, tracer: &mut Tracer, id: u64) -> (LedgerRecord, StageCounters) {
    match item.op {
        Op::Flow => flow::evaluate(&item.family, &item.spec, &item.options, tracer, id),
        Op::Check => flow::evaluate_check(&item.family, &item.spec, &item.options, tracer, id),
    }
}

/// The pinned ledger records of `specs`, verified on load.
pub fn load_ledger(specs: &[(&str, Stg)]) -> Result<Expected, String> {
    let keys: Vec<(String, String)> = specs
        .iter()
        .map(|(family, spec)| ((*family).to_owned(), spec.name().to_owned()))
        .collect();
    Expected::load(&corpus::ledger_root(), &keys)
}

/// The library phase's inputs with their `.g` texts and expectations.
struct Library {
    items: Vec<Item>,
    texts: Vec<String>,
    expected: Expected,
}

impl Library {
    fn new(items: Vec<Item>, expected_in: &std::path::Path) -> Result<Library, String> {
        let keys: Vec<(String, String)> = items
            .iter()
            .map(|i| (i.family.clone(), i.spec.name().to_owned()))
            .collect();
        Ok(Library {
            texts: items.iter().map(|i| stg::parse::write_g(&i.spec)).collect(),
            expected: Expected::load(expected_in, &keys)?,
            items,
        })
    }
}

/// Everything a run needs before timing starts.
struct Setup {
    library: Library,
    served: Vec<Served>,
    variants: Expected,
    daemon: Daemon,
    /// Per served spec and architecture: the summary its miss stored.
    references: Vec<Vec<Option<String>>>,
}

fn set_up(workload: Workload, k: usize, tally: &mut Tally) -> Result<Setup, String> {
    let expected_in = if workload == Workload::CorpusCold {
        corpus::ledger_root()
    } else {
        expected_root()
    };
    let library = Library::new(workload.items(), &expected_in)?;
    let corpus_specs = corpus::all_specs();
    let ledger = load_ledger(&corpus_specs)?;
    let served = service::served_specs(&corpus_specs, &ledger)?;
    let variant_keys: Vec<(String, String)> = served
        .iter()
        .flat_map(|s| service::ARCHS.map(|a| (service::variant_family(a), s.model.clone())))
        .collect();
    let variants = Expected::load(&expected_root(), &variant_keys)?;

    let daemon = Daemon::start(&out_dir().join(format!("cache-{}-{k}", std::process::id())))?;
    let outcomes = cold_pass(&daemon, &served, tally)?;
    let mut references = vec![vec![None; 1 + service::variants().len()]; served.len()];
    for (outcome, reference) in outcomes.into_iter().zip(&mut references) {
        reference[0] = outcome.summary;
    }
    Ok(Setup {
        library,
        served,
        variants,
        daemon,
        references,
    })
}

/// Sends every served spec at once to a daemon with an empty cache on
/// one pipelined connection; each must come back as a `miss` with its
/// ledger verdict.
fn cold_pass(
    daemon: &Daemon,
    served: &[Served],
    tally: &mut Tally,
) -> Result<Vec<Outcome>, String> {
    let lines: Vec<(f64, String)> = served
        .iter()
        .map(|s| (0.0, service::request_line(&s.text, None)))
        .collect();
    let outcomes = service::drive(daemon, &lines, Instant::now())?;
    for (s, outcome) in served.iter().zip(&outcomes) {
        let mut drift = match &outcome.summary {
            Some(summary) => service::summary_drift(summary, &s.ledger, false),
            None => vec![format!("{} reply: {:?}", outcome.cache, outcome.message)],
        };
        if outcome.summary.is_some() && outcome.cache != "miss" {
            drift.push(format!("expected a miss, got {}", outcome.cache));
        }
        tally.check(&format!("cold {}", s.model), &drift);
    }
    Ok(outcomes)
}

/// The seeded order in which a library pass visits its `n` specs.
fn spec_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// One timed pass of the library phase.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    verdict_ms: Vec<f64>,
    counters: StageCounters,
}

/// Runs every item once, in `order`, checking each record. With
/// tracing on, each spec's `.g` text is also parsed under a `parse`
/// span (and must give back the spec's digest).
fn library_pass(lib: &Library, order: &[usize], tracer: &mut Tracer, tally: &mut Tally) -> Pass {
    let mut pass = Pass::default();
    let mut checks: BTreeMap<String, Vec<LedgerRecord>> = BTreeMap::new();
    let start = Instant::now();
    for &i in order {
        let item = &lib.items[i];
        let t = Instant::now();
        let (record, counters) = evaluate_item(item, tracer, i as u64);
        pass.verdict_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.check(
            &format!("{}/{}", record.family, record.model),
            &lib.expected.check(&record),
        );
        pass.counters.merge(&counters);
        if tracer.enabled() {
            let span = tracer.open("parse", i as u64, None);
            let parsed = stg::parse::parse_g(&lib.texts[i]);
            tracer.close(span);
            let digest = parsed.map(|s| stg::canon::stg_digest(&s).to_hex());
            let drift = match digest {
                Ok(d) if d == record.stg_digest => Vec::new(),
                Ok(d) => vec![format!("re-parsed digest {d} != {}", record.stg_digest)],
                Err(e) => vec![format!("re-parse: {e}")],
            };
            tally.check(&format!("parse {}", record.model), &drift);
        }
        if item.op == Op::Check {
            checks.entry(record.model.clone()).or_default().push(record);
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    // Specs checked by both backends must get identical reports.
    for (model, records) in checks.iter().filter(|(_, r)| r.len() > 1) {
        let first = &records[0];
        for other in &records[1..] {
            let mut drift = Vec::new();
            if first.check.render() != other.check.render() {
                drift.push(format!(
                    "{} report differs from {}",
                    other.family, first.family
                ));
            }
            if first.metrics != other.metrics {
                drift.push(format!(
                    "{} counters differ from {}",
                    other.family, first.family
                ));
            }
            tally.check(&format!("backend parity {model}"), &drift);
        }
    }
    pass
}

/// A reply that should have been a hit: a result, from the cache, and
/// byte-identical to what the miss stored.
fn hit_drift(o: &Outcome, reference: Option<&str>) -> Vec<String> {
    let mut drift = Vec::new();
    match (&o.summary, reference) {
        (None, _) => drift.push(format!("{} reply: {:?}", o.cache, o.message)),
        (Some(_), _) if o.cache != "hit" => drift.push(format!("expected a hit, got {}", o.cache)),
        (Some(s), Some(r)) if s != r => {
            drift.push("hit summary differs from the stored miss".to_owned())
        }
        (Some(_), None) => drift.push("hit without a stored miss".to_owned()),
        _ => {}
    }
    drift
}

fn trace_request(tracer: &mut Tracer, id: u64, o: &Outcome) {
    if let (Some(sent), Some(done)) = (o.sent, o.done) {
        let root = tracer.record("request", id, None, sent, done);
        if let Some(accepted) = o.accepted {
            tracer.record("accept", id, root, sent, accepted);
            tracer.record("result", id, root, accepted, done);
        }
    }
}

/// What the open-loop phase measured.
#[derive(Debug, Default)]
struct ServiceRun {
    hit_low_ms: Vec<f64>,
    hit_high_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    high_total: usize,
    high_within_slo: usize,
    accept_ms: Vec<f64>,
    result_ms: Vec<f64>,
    lag_ms_max: f64,
    hits: u64,
    misses: u64,
    csc_resumed: u64,
    rejected: u64,
    errors: u64,
    stores: u64,
}

fn service_phase(
    setup: &mut Setup,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<ServiceRun, String> {
    let plan = service::schedule(seed, setup.served.len());
    let variants = service::variants();
    let variant_of = |v: usize| v.checked_sub(1).map(|i| variants[i]);
    let lines: Vec<(f64, String)> = plan
        .iter()
        .map(|p| {
            (
                p.due_s,
                service::request_line(&setup.served[p.spec].text, variant_of(p.variant)),
            )
        })
        .collect();
    let before = setup.daemon.cache_counters()?;
    // A short lead so the first request is not due before the sender runs.
    let start = Instant::now() + std::time::Duration::from_millis(20);
    let outcomes = service::drive(&setup.daemon, &lines, start)?;
    let after = setup.daemon.cache_counters()?;
    let delta = |key: &str| {
        after
            .get(key)
            .unwrap_or(&0)
            .saturating_sub(*before.get(key).unwrap_or(&0))
    };

    let mut run = ServiceRun {
        stores: delta("cache_stores"),
        ..ServiceRun::default()
    };
    for (i, (p, o)) in plan.iter().zip(&outcomes).enumerate() {
        trace_request(tracer, i as u64, o);
        let due = start + std::time::Duration::from_secs_f64(p.due_s);
        let latency_ms = o
            .done
            .map(|d| d.saturating_duration_since(due).as_secs_f64() * 1e3);
        if let Some(sent) = o.sent {
            run.lag_ms_max = run
                .lag_ms_max
                .max(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            if let Some(acc) = o.accepted {
                run.accept_ms
                    .push(acc.saturating_duration_since(sent).as_secs_f64() * 1e3);
                if let Some(done) = o.done {
                    run.result_ms
                        .push(done.saturating_duration_since(acc).as_secs_f64() * 1e3);
                }
            }
        }
        let served = &setup.served[p.spec];
        let what = format!("request {i} {} {:?}", served.model, variant_of(p.variant));
        let reference = setup.references[p.spec][p.variant].clone();
        let mut drift = match (&o.summary, variant_of(p.variant)) {
            (None, _) => vec![format!(
                "{} reply: {:?}",
                if o.cache.is_empty() { "lost" } else { &o.cache },
                o.message
            )],
            (Some(s), None) => service::summary_drift(s, &served.ledger, false),
            (Some(s), Some(v)) => {
                let family = service::variant_family(v.arch);
                match setup.variants.get(&family, &served.model) {
                    Some(expected) => service::summary_drift(s, expected, true),
                    None => vec![format!("no expected record {family}/{}", served.model)],
                }
            }
        };
        match o.cache.as_str() {
            "hit" => {
                run.hits += 1;
                drift.extend(hit_drift(o, reference.as_deref()));
            }
            "miss" | "csc_resumed" => {
                if o.cache == "miss" {
                    run.misses += 1;
                } else {
                    run.csc_resumed += 1;
                }
                if p.variant == 0 {
                    drift.push("a pre-warmed spec missed the cache".to_owned());
                }
                match &reference {
                    Some(r) if o.summary.as_ref() != Some(r) => {
                        drift.push("repeated miss differs".to_owned())
                    }
                    Some(_) => {}
                    None => setup.references[p.spec][p.variant].clone_from(&o.summary),
                }
                if let Some(ms) = latency_ms {
                    run.miss_ms.push(ms);
                }
            }
            "rejected" => run.rejected += 1,
            "error" => run.errors += 1,
            _ => {}
        }
        let ok = drift.is_empty();
        tally.check(&what, &drift);
        if let Some(ms) = latency_ms.filter(|_| ok && o.cache == "hit") {
            match p.phase {
                Phase::Low => run.hit_low_ms.push(ms),
                Phase::High => run.hit_high_ms.push(ms),
            }
        }
        if p.phase == Phase::High {
            run.high_total += 1;
            if ok && latency_ms.is_some_and(|ms| ms <= service::SLO_MS) {
                run.high_within_slo += 1;
            }
        }
    }
    Ok(run)
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Metric name, value and unit, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn need(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("too few samples for {what}"))
}

/// Runs one measurement and returns the result line.
pub fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let next = set_up(args.workload, k, &mut tally)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(previous) = setup.replace(next) {
            previous.daemon.stop()?;
        }
    }
    let mut setup = setup.expect("at least one set-up");
    let order = spec_order(args.seed, setup.library.items.len());

    // Warm-up pass: untimed, but checked and counted in set-up.
    let t = Instant::now();
    let mut untraced = Tracer::new(false);
    library_pass(&setup.library, &order, &mut untraced, &mut tally);
    let setup_s = need(median(&setup_s), "setup")? + t.elapsed().as_secs_f64();

    // Timed first phase. A traced run alternates untraced and traced
    // passes so `trace.overhead_ratio` compares like with like.
    let mut tracer = Tracer::new(args.trace);
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let mut k = 0;
    let min_passes = if args.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    while passes.len() < min_passes
        || (args.trace && traced.len() < min_passes)
        || started.elapsed().as_secs_f64() < args.seconds
    {
        let with_spans = args.trace && k % 2 == 1;
        let t: &mut Tracer = if with_spans {
            &mut tracer
        } else {
            &mut untraced
        };
        let pass = library_pass(&setup.library, &order, t, &mut tally);
        eprintln!(
            "perfbench: pass {k}{}: {:.4} s",
            if with_spans { " (traced)" } else { "" },
            pass.wall_s
        );
        if with_spans {
            traced.push(pass);
        } else {
            passes.push(pass);
        }
        k += 1;
    }
    // Traced wall time over untraced, from the alternating passes.
    let overhead = if args.trace {
        need(median(&passes_wall(&traced)), "traced wall")?
            / need(median(&passes_wall(&passes)), "wall")?
    } else {
        1.0
    };
    let service_run = service_phase(&mut setup, args.seed, &mut tracer, &mut tally)?;
    setup.daemon.stop()?;

    let metrics = if args.trace {
        let path = out_dir().join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, tracer.to_json().render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        per_layer(
            &tracer,
            &setup.library.items,
            &traced,
            &service_run,
            overhead,
        )?
    } else {
        end_to_end(setup_s, &passes, &service_run, &tally)?
    };
    Ok(result_line(&tally, &metrics))
}

fn passes_wall(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_s).collect()
}

fn end_to_end(
    setup_s: f64,
    passes: &[Pass],
    s: &ServiceRun,
    tally: &Tally,
) -> Result<Metrics, String> {
    let verdict_geomean = median(
        &passes
            .iter()
            .filter_map(|p| geomean(&p.verdict_ms))
            .collect::<Vec<_>>(),
    );
    Ok(vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", need(median(&passes_wall(passes)), "wall_s")?, "s"),
        (
            "verdict_ms.geomean",
            need(verdict_geomean, "verdict_ms.geomean")?,
            "ms",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        (
            "success_rate",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "hit_low_ms.p50",
            need(percentile(&s.hit_low_ms, 0.5), "hit_low_ms.p50")?,
            "ms",
        ),
        (
            "hit_low_ms.p95",
            need(percentile(&s.hit_low_ms, 0.95), "hit_low_ms.p95")?,
            "ms",
        ),
        (
            "hit_high_ms.p50",
            need(percentile(&s.hit_high_ms, 0.5), "hit_high_ms.p50")?,
            "ms",
        ),
        (
            "hit_high_ms.p99",
            need(percentile(&s.hit_high_ms, 0.99), "hit_high_ms.p99")?,
            "ms",
        ),
        (
            "miss_ms.p50",
            need(percentile(&s.miss_ms, 0.5), "miss_ms.p50")?,
            "ms",
        ),
        (
            "slo_met_share",
            s.high_within_slo as f64 / s.high_total.max(1) as f64,
            "ratio",
        ),
    ])
}

fn per_layer(
    tracer: &Tracer,
    items: &[Item],
    traced: &[Pass],
    s: &ServiceRun,
    overhead: f64,
) -> Result<Metrics, String> {
    // Self time per span name, summed within each traced pass; the
    // median over passes is reported.
    let self_us = tracer.self_times_us();
    let spans = tracer.spans();
    // Library spans are grouped into passes by their `flow` roots: a
    // pass visits every item once, so a span's pass is the count of
    // earlier `flow` spans with the same id.
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    let mut pass_of = vec![0usize; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        pass_of[i] = match (span.name, span.parent) {
            ("flow", _) => {
                let n = seen.entry(span.id).or_insert(0);
                *n += 1;
                *n - 1
            }
            ("parse", _) => seen.get(&span.id).map_or(0, |n| n.saturating_sub(1)),
            (_, Some(p)) => pass_of[p],
            (_, None) => 0,
        };
    }
    let mut sums: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
    for ((span, us), pass) in spans.iter().zip(&self_us).zip(&pass_of) {
        let name = match span.name {
            "check" if items[span.id as usize].options.backend == Backend::SymbolicSet => {
                "check.symbolic_set"
            }
            "check" => "check.explicit",
            other => other,
        };
        *sums.entry((name, *pass)).or_insert(0.0) += us / 1e3;
    }
    let stage_ms = |names: &[&str]| -> f64 {
        let passes = traced.len().max(1);
        let totals: Vec<f64> = (0..passes)
            .map(|p| {
                names
                    .iter()
                    .map(|n| sums.get(&(*n, p)).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect();
        median(&totals).unwrap_or(0.0)
    };
    let c = traced
        .last()
        .map(|p| p.counters.clone())
        .unwrap_or_default();
    let get = |m: &asyncsynth::telemetry::Counters, k: &str| m.get(k).unwrap_or(0) as f64;
    let evaluated = get(&c.csc, "sweep_evaluated");
    let applied = get(&c.csc, "csc_applied") + get(&c.synthesize, "csc_applied");
    let requests = s.hits + s.misses + s.csc_resumed;
    Ok(vec![
        ("parse.ms", stage_ms(&["parse"]), "ms"),
        (
            "check.ms",
            stage_ms(&["check.explicit", "check.symbolic_set"]),
            "ms",
        ),
        ("check.explicit_ms", stage_ms(&["check.explicit"]), "ms"),
        (
            "check.symbolic_set_ms",
            stage_ms(&["check.symbolic_set"]),
            "ms",
        ),
        ("check.states", get(&c.check, "states"), "count"),
        ("check.spaces_built", get(&c.check, "spaces_built"), "count"),
        ("csc.ms", stage_ms(&["csc"]), "ms"),
        ("csc.sweep_grid", get(&c.csc, "sweep_grid"), "count"),
        ("csc.sweep_pruned", get(&c.csc, "sweep_pruned"), "count"),
        ("csc.sweep_evaluated", evaluated, "count"),
        (
            "csc.accept_ratio",
            if evaluated > 0.0 {
                get(&c.csc, "sweep_accepted") / evaluated
            } else {
                0.0
            },
            "ratio",
        ),
        ("csc.applied", applied, "count"),
        ("synthesize.ms", stage_ms(&["synthesize"]), "ms"),
        ("synthesize.primes", get(&c.synthesize, "primes"), "count"),
        ("synthesize.gates", get(&c.synthesize, "gates"), "count"),
        ("verify.ms", stage_ms(&["verify"]), "ms"),
        (
            "verify.states_explored",
            get(&c.verify, "states_explored"),
            "count",
        ),
        ("cache.hits", s.hits as f64, "count"),
        ("cache.misses", s.misses as f64, "count"),
        ("cache.csc_resumed", s.csc_resumed as f64, "count"),
        ("cache.stores", s.stores as f64, "count"),
        (
            "cache.hit_ratio",
            s.hits as f64 / requests.max(1) as f64,
            "ratio",
        ),
        (
            "server.accept_ms.p50",
            need(percentile(&s.accept_ms, 0.5), "accept p50")?,
            "ms",
        ),
        (
            "server.accept_ms.p99",
            need(percentile(&s.accept_ms, 0.99), "accept p99")?,
            "ms",
        ),
        (
            "server.result_ms.p50",
            need(percentile(&s.result_ms, 0.5), "result p50")?,
            "ms",
        ),
        (
            "server.result_ms.p99",
            need(percentile(&s.result_ms, 0.99), "result p99")?,
            "ms",
        ),
        ("server.rejected", s.rejected as f64, "count"),
        ("server.errors", s.errors as f64, "count"),
        ("load.lag_ms.max", s.lag_ms_max, "ms"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ])
}

fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use corpus::ledger;

    use super::{library_pass, result_line, spec_order, Library, Tally};
    use crate::trace::Tracer;
    use crate::workloads;

    #[test]
    fn the_seed_fixes_the_spec_order() {
        assert_eq!(spec_order(5, 45), spec_order(5, 45));
        assert_ne!(spec_order(5, 45), spec_order(6, 45));
        let mut sorted = spec_order(5, 45);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..45).collect::<Vec<_>>(), "every spec once");
    }

    /// A wrong expectation cannot be hidden: the pass counts the
    /// mismatch and the result line reports `correct: false`.
    #[test]
    fn a_wrong_expected_record_fails_the_run() {
        let root = std::env::temp_dir().join(format!("perfbench-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut items = workloads::logic_wide();
        items.truncate(1);
        let mut tracer = Tracer::new(false);
        let (mut record, _) = super::evaluate_item(&items[0], &mut tracer, 0);
        ledger::store(&root, &record).expect("store");
        let lib = Library::new(items.clone(), &root).expect("load");
        let mut tally = Tally::default();
        library_pass(&lib, &[0], &mut tracer, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        record.netlist_digest = Some("0".repeat(64));
        ledger::store(&root, &record).expect("store");
        let lib = Library::new(items, &root).expect("load");
        let mut tally = Tally::default();
        library_pass(&lib, &[0], &mut tracer, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        let line = result_line(&tally, &Vec::new());
        assert!(
            line.starts_with(r#"{"correct":false,"attempted":1,"failed":1,"#),
            "{line}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
