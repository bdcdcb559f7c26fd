//! The library side: the staged flow, timed stage by stage, projected
//! onto the corpus ledger's record type so every verdict can be diffed
//! against a pinned record.
//!
//! [`evaluate`] follows `corpus::LedgerRecord::evaluate` step for step
//! (same stages, same projection), but opens a span around each staged
//! call so the traced run can attribute time to `check`, `csc`,
//! `synthesize` and `verify`. The pinned ledger is the check that the
//! two stay equivalent: any divergence is a record mismatch.

use asyncsynth::summary::report_to_json;
use asyncsynth::telemetry::Counters;
use asyncsynth::{
    flow_metrics, FlowEvent, PipelineError, Synthesis, SynthesisOptions, SynthesisSummary,
};
use corpus::ledger::{outcome_name, CscPin};
use corpus::LedgerRecord;
use stg::canon::{digest_bytes, stg_digest};
use stg::Stg;

use crate::trace::{SpanId, Tracer};

/// Outcome name of a `check`-only evaluation that passed the §2.1
/// properties.
const CHECKED: &str = "checked";

/// Deterministic per-stage counters of one evaluation, keyed by stage.
#[derive(Debug, Default, Clone)]
pub struct StageCounters {
    pub check: Counters,
    pub csc: Counters,
    pub synthesize: Counters,
    pub verify: Counters,
}

impl StageCounters {
    pub fn merge(&mut self, other: &StageCounters) {
        self.check.merge(&other.check);
        self.csc.merge(&other.csc);
        self.synthesize.merge(&other.synthesize);
        self.verify.merge(&other.verify);
    }
}

fn empty_record(family: &str, spec: &Stg) -> LedgerRecord {
    LedgerRecord {
        family: family.to_owned(),
        model: spec.name().to_owned(),
        stg_digest: stg_digest(spec).to_hex(),
        num_signals: spec.num_signals(),
        check: asyncsynth::Json::Null,
        outcome: String::new(),
        csc: None,
        equations_digest: None,
        netlist_digest: None,
        num_gates: None,
        verification: None,
        states_explored: None,
        metrics: Counters::new(),
        wall_ms: 0,
    }
}

/// Counters of the events a stage appended to the log it inherited.
fn stage_slice(events: &[FlowEvent], before: usize) -> Counters {
    flow_metrics(events.get(before..).unwrap_or(&[]))
}

/// Runs `check` and records what a failed check leaves behind, exactly
/// as the ledger does.
fn timed_check(
    spec: &Stg,
    options: &SynthesisOptions,
    tracer: &mut Tracer,
    id: u64,
    parent: SpanId,
    record: &mut LedgerRecord,
    counters: &mut StageCounters,
) -> Option<asyncsynth::Checked> {
    let span = tracer.open("check", id, parent);
    let checked = Synthesis::with_options(spec.clone(), options.clone()).check();
    tracer.close(span);
    match checked {
        Err(PipelineError::NotImplementable(report)) => {
            record.check = report_to_json(&report);
            record.outcome = "not_implementable".to_owned();
            record.metrics.set("states", report.num_states as u64);
            record
                .metrics
                .set("csc_conflicts", report.csc_conflict_pairs as u64);
            counters.check.set("states", report.num_states as u64);
            None
        }
        Err(e) => {
            record.outcome = outcome_name(&e).to_owned();
            record.metrics = flow_metrics(e.events());
            counters.check = record.metrics.clone();
            None
        }
        Ok(checked) => {
            record.check = report_to_json(checked.report());
            counters.check = flow_metrics(checked.events());
            Some(checked)
        }
    }
}

/// The full staged flow on `spec`: its ledger record plus per-stage
/// counters. Spans (when tracing) nest `check`, `csc`, `synthesize`
/// and `verify` under one `flow` span carrying `id`.
pub fn evaluate(
    family: &str,
    spec: &Stg,
    options: &SynthesisOptions,
    tracer: &mut Tracer,
    id: u64,
) -> (LedgerRecord, StageCounters) {
    let mut record = empty_record(family, spec);
    let mut counters = StageCounters::default();
    let root = tracer.open("flow", id, None);
    if let Some(checked) = timed_check(spec, options, tracer, id, root, &mut record, &mut counters)
    {
        let result = staged_rest(checked, tracer, id, root, &mut counters);
        match result {
            Ok(verified) => {
                let summary = SynthesisSummary::from_verified(&verified, options);
                record.outcome = "synthesized".to_owned();
                record.csc = summary.transformation.as_ref().map(|t| CscPin {
                    kind: t.kind.clone(),
                    num_states: t.num_states,
                });
                record.equations_digest = Some(digest_bytes(summary.equations.as_bytes()).to_hex());
                record.netlist_digest = Some(digest_bytes(summary.netlist.as_bytes()).to_hex());
                record.num_gates = Some(summary.num_gates);
                record.verification = Some(summary.verification.clone());
                record.states_explored = summary.composed_states;
                record.metrics = summary.metrics;
            }
            Err(e) => {
                record.outcome = outcome_name(&e).to_owned();
                record.metrics = flow_metrics(e.events());
            }
        }
    }
    tracer.close(root);
    (record, counters)
}

/// `resolve_csc → synthesize → verify`, one span per staged call. A
/// stage's counters are the events it added to the inherited log; a
/// failing stage's come from the error's log.
fn staged_rest(
    checked: asyncsynth::Checked,
    tracer: &mut Tracer,
    id: u64,
    root: SpanId,
    counters: &mut StageCounters,
) -> Result<asyncsynth::Verified, PipelineError> {
    let mut seen = checked.events().len();
    let span = tracer.open("csc", id, root);
    let resolved = checked.resolve_csc();
    tracer.close(span);
    let resolved = resolved.inspect_err(|e| counters.csc = stage_slice(e.events(), seen))?;
    counters.csc = stage_slice(resolved.events(), seen);
    seen = resolved.events().len();

    let span = tracer.open("synthesize", id, root);
    let synthesized = resolved.synthesize();
    tracer.close(span);
    let synthesized =
        synthesized.inspect_err(|e| counters.synthesize = stage_slice(e.events(), seen))?;
    counters.synthesize = stage_slice(synthesized.events(), seen);
    seen = synthesized.events().len();

    let span = tracer.open("verify", id, root);
    let verified = synthesized.verify();
    tracer.close(span);
    let verified = verified.inspect_err(|e| counters.verify = stage_slice(e.events(), seen))?;
    counters.verify = stage_slice(verified.events(), seen);
    Ok(verified)
}

/// `check` only: the record holds the §2.1 report and the exploration
/// counters; the outcome is [`CHECKED`] or `not_implementable`.
pub fn evaluate_check(
    family: &str,
    spec: &Stg,
    options: &SynthesisOptions,
    tracer: &mut Tracer,
    id: u64,
) -> (LedgerRecord, StageCounters) {
    let mut record = empty_record(family, spec);
    let mut counters = StageCounters::default();
    let root = tracer.open("flow", id, None);
    if let Some(checked) = timed_check(spec, options, tracer, id, root, &mut record, &mut counters)
    {
        record.outcome = CHECKED.to_owned();
        record.metrics = flow_metrics(checked.events());
    }
    tracer.close(root);
    (record, counters)
}
