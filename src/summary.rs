//! The serialisable result of a synthesis run.
//!
//! A [`Verified`] stage artifact owns live objects (a boxed state space,
//! netlists, covers) that make sense in-process but not on a wire or on
//! disk. [`SynthesisSummary`] is its stable, self-contained projection:
//! everything a client of the synthesis service — or a warm cache hit —
//! needs to report a result, with a deterministic JSON encoding
//! (`from_json(to_json(s)) == s`, byte-identical re-rendering).

use crate::json::Json;
use crate::pipeline::{flow_metrics, SynthesisOptions, Verification, Verified};
use telemetry::Counters;

/// A CSC transformation, in serialisable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscSummary {
    /// The method used (`signal insertion`, `concurrency reduction`, `mixed`).
    pub kind: String,
    /// Which transitions were split / ordered.
    pub description: String,
    /// State count of the transformed specification.
    pub num_states: usize,
}

/// The flow's complete, serialisable outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisSummary {
    /// Model name of the specification actually synthesised.
    pub model: String,
    /// State-space backend used.
    pub backend: String,
    /// Target architecture.
    pub architecture: String,
    /// Number of states of the final specification.
    pub num_states: usize,
    /// The applied CSC transformation, if any.
    pub transformation: Option<CscSummary>,
    /// Pretty-printed logic equations.
    pub equations: String,
    /// The netlist, in `describe()` text form.
    pub netlist: String,
    /// Gate count of the netlist.
    pub num_gates: usize,
    /// Library-mapping cell count, when the netlist fits the library.
    pub mapping_cells: Option<usize>,
    /// Library-mapping area estimate.
    pub mapping_area: Option<usize>,
    /// Verification outcome: `passed`, `skipped` or `not_run`.
    pub verification: String,
    /// Composed states explored by the verifier, when it ran.
    pub composed_states: Option<usize>,
    /// Deterministic operation counters derived from the event log
    /// (see [`flow_metrics`]): thread-count-invariant, drift-gated by
    /// the corpus ledger. Advisory counters (BDD nodes, decoded
    /// states) deliberately never appear here — summaries are shared
    /// across cache keys, which only the deterministic set preserves.
    pub metrics: Counters,
    /// The flow's diagnostic event log, rendered.
    pub events: Vec<String>,
}

impl SynthesisSummary {
    /// Projects a [`Verified`] artifact (plus the options that produced
    /// it) onto the serialisable summary.
    #[must_use]
    pub fn from_verified(v: &Verified, options: &SynthesisOptions) -> Self {
        let (verification, composed_states) = match &v.verification {
            Verification::Passed(r) => ("passed".to_owned(), Some(r.states_explored)),
            Verification::Skipped => ("skipped".to_owned(), None),
            Verification::NotRun => ("not_run".to_owned(), None),
        };
        SynthesisSummary {
            model: v.spec.name().to_owned(),
            backend: options.backend.name().to_owned(),
            architecture: options.architecture.name().to_owned(),
            num_states: v.num_states(),
            transformation: v.transformation.as_ref().map(|t| CscSummary {
                kind: t.kind.to_string(),
                description: t.description.clone(),
                num_states: t.num_states,
            }),
            equations: v.equations_text.clone(),
            netlist: v.circuit.netlist().describe(),
            num_gates: v.circuit.netlist().num_gates(),
            mapping_cells: v.mapping.as_ref().map(synth::library::Mapping::num_cells),
            mapping_area: v.mapping.as_ref().map(synth::library::Mapping::area),
            verification,
            composed_states,
            metrics: flow_metrics(v.events()),
            events: v.events().iter().map(ToString::to_string).collect(),
        }
    }

    /// Encodes the summary as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt_num = |n: Option<usize>| n.map_or(Json::Null, Json::num);
        Json::obj(vec![
            ("model", Json::str(&self.model)),
            ("backend", Json::str(&self.backend)),
            ("architecture", Json::str(&self.architecture)),
            ("states", Json::num(self.num_states)),
            (
                "csc",
                self.transformation.as_ref().map_or(Json::Null, |t| {
                    Json::obj(vec![
                        ("kind", Json::str(&t.kind)),
                        ("description", Json::str(&t.description)),
                        ("states", Json::num(t.num_states)),
                    ])
                }),
            ),
            ("equations", Json::str(&self.equations)),
            ("netlist", Json::str(&self.netlist)),
            ("gates", Json::num(self.num_gates)),
            ("mapping_cells", opt_num(self.mapping_cells)),
            ("mapping_area", opt_num(self.mapping_area)),
            ("verification", Json::str(&self.verification)),
            ("composed_states", opt_num(self.composed_states)),
            ("metrics", counters_to_json(&self.metrics)),
            (
                "events",
                Json::Arr(self.events.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Decodes a summary from the JSON produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(ToOwned::to_owned)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let opt_num_field = |key: &str| v.get(key).and_then(Json::as_usize);
        let transformation = match v.get("csc") {
            None | Some(Json::Null) => None,
            Some(t) => Some(CscSummary {
                kind: t
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("missing csc.kind")?
                    .to_owned(),
                description: t
                    .get("description")
                    .and_then(Json::as_str)
                    .ok_or("missing csc.description")?
                    .to_owned(),
                num_states: t
                    .get("states")
                    .and_then(Json::as_usize)
                    .ok_or("missing csc.states")?,
            }),
        };
        let events = v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("missing events array")?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(ToOwned::to_owned)
                    .ok_or_else(|| "non-string event".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SynthesisSummary {
            model: str_field("model")?,
            backend: str_field("backend")?,
            architecture: str_field("architecture")?,
            num_states: num_field("states")?,
            transformation,
            equations: str_field("equations")?,
            netlist: str_field("netlist")?,
            num_gates: num_field("gates")?,
            mapping_cells: opt_num_field("mapping_cells"),
            mapping_area: opt_num_field("mapping_area"),
            verification: str_field("verification")?,
            composed_states: opt_num_field("composed_states"),
            metrics: counters_from_json(v.get("metrics").ok_or("missing metrics object")?)?,
            events,
        })
    }
}

/// Encodes a [`Counters`] map as a JSON object (keys already sorted, so
/// the rendering is byte-stable).
#[must_use]
pub fn counters_to_json(counters: &Counters) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(name, value)| {
                let value = usize::try_from(value).unwrap_or(usize::MAX);
                (name.to_owned(), Json::num(value))
            })
            .collect(),
    )
}

/// Decodes a [`Counters`] map from a JSON object of numbers.
///
/// # Errors
///
/// A description of the first non-numeric entry (or a non-object value).
pub fn counters_from_json(v: &Json) -> Result<Counters, String> {
    let Json::Obj(pairs) = v else {
        return Err("metrics is not an object".to_owned());
    };
    let mut counters = Counters::new();
    for (name, value) in pairs {
        let value = value
            .as_u64()
            .ok_or_else(|| format!("non-numeric metric {name:?}"))?;
        counters.set(name, value);
    }
    Ok(counters)
}

/// Encodes a §2.1 implementability report as JSON (the `check`
/// operation's payload, also cached under [`crate::pipeline::CacheStage::Check`]).
#[must_use]
pub fn report_to_json(report: &stg::properties::ImplementabilityReport) -> Json {
    Json::obj(vec![
        ("bounded", Json::Bool(report.bounded)),
        ("consistent", Json::Bool(report.consistent)),
        ("states", Json::num(report.num_states)),
        (
            "unique_state_coding",
            Json::Bool(report.unique_state_coding),
        ),
        (
            "complete_state_coding",
            Json::Bool(report.complete_state_coding),
        ),
        ("csc_conflict_pairs", Json::num(report.csc_conflict_pairs)),
        ("persistent", Json::Bool(report.persistent)),
        (
            "persistency_violations",
            Json::num(report.persistency_violations),
        ),
        ("deadlock_free", Json::Bool(report.deadlock_free)),
        ("implementable", Json::Bool(report.is_implementable())),
        (
            "error",
            report
                .error
                .as_ref()
                .map_or(Json::Null, |e| Json::str(e.to_string())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::SynthesisSummary;
    use crate::json::Json;
    use crate::pipeline::{Synthesis, SynthesisOptions};

    #[test]
    fn summary_json_round_trips() {
        let options = SynthesisOptions::default();
        let verified = Synthesis::with_options(stg::examples::vme_read(), options.clone())
            .run()
            .expect("vme read synthesises");
        let summary = SynthesisSummary::from_verified(&verified, &options);
        assert_eq!(summary.verification, "passed");
        assert!(summary.transformation.is_some(), "Fig. 3 needs CSC repair");
        let text = summary.to_json().render();
        let back =
            SynthesisSummary::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, summary);
        assert_eq!(back.to_json().render(), text, "byte-stable re-rendering");
    }
}
