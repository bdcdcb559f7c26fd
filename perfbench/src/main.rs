//! The asyncsynth benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <corpus-cold|logic-wide|analysis-large> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --pin
//! ```
//!
//! Every run has the same shape: set-up (three times, median reported),
//! a timed library phase of `--seconds`, then the daemon's open-loop
//! phase. Every output is checked against a pinned record. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (from a run with spans) with `--trace 1`.
//! `--pin` rewrites the benchmark's own expected records and nothing
//! else; no run ever pins implicitly. See `perfbench/NOTES.md`.

mod expected;
mod flow;
mod report;
mod service;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use corpus::ledger;

fn usage() -> &'static str {
    "usage: perfbench --workload <corpus-cold|logic-wide|analysis-large> \
     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --pin"
}

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: report::Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--pin"] {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// Scratch space of a run (cache directories, trace files), inside the
/// benchmark's directory and ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match parsed {
        None => pin(),
        Some(args) => report::run(&args).map(|line| println!("{line}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Re-pins the benchmark's expected records: `logic-wide`,
/// `analysis-large` and the service's architecture variants. Run it
/// only after an intended change to what the flow computes, and review
/// the diff like any other.
fn pin() -> Result<(), String> {
    let root = expected::expected_root();
    let mut tracer = trace::Tracer::new(false);
    let mut items = workloads::logic_wide();
    items.extend(workloads::analysis_large());
    for (i, item) in items.iter().enumerate() {
        let (record, _) = report::evaluate_item(item, &mut tracer, i as u64);
        ledger::store(&root, &record).map_err(|e| format!("store: {e}"))?;
        eprintln!(
            "pinned {}/{}: {}",
            record.family, record.model, record.outcome
        );
    }
    let corpus_specs = corpus::all_specs();
    let ledger = report::load_ledger(&corpus_specs)?;
    for served in service::served_specs(&corpus_specs, &ledger)? {
        // The service sees the `.g` text, so its expectation is the
        // flow on the re-parsed spec, not on the generated one.
        let spec =
            stg::parse::parse_g(&served.text).map_err(|e| format!("{}: {e}", served.model))?;
        for arch in service::ARCHS {
            let options = asyncsynth::SynthesisOptions {
                architecture: arch,
                ..Default::default()
            };
            let record =
                corpus::LedgerRecord::evaluate(&service::variant_family(arch), &spec, &options);
            if record.outcome != "synthesized" {
                return Err(format!(
                    "{}/{}: {}",
                    record.family, record.model, record.outcome
                ));
            }
            ledger::store(&root, &record).map_err(|e| format!("store: {e}"))?;
            eprintln!("pinned {}/{}", record.family, record.model);
        }
    }
    Ok(())
}
