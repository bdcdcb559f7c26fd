//! Parity and regression tests for the parallel, pruned, memoising CSC
//! candidate sweep: the engine may only change *when* work happens —
//! never *what* comes out. Serial vs parallel (1, 2, N threads) and
//! pruned vs unpruned sweeps must produce identical candidate rankings,
//! descriptions and winning equations on the three VME controllers and
//! micropipeline(2); the reduction and mixed searches are also checked
//! on the resident-BDD backend. Bound-skipped candidates must be
//! reported, and no pipeline path may rebuild the winning candidate's
//! state space. The explicit sweeps derive each candidate's state graph
//! from the base graph instead of rebuilding it; the oracle tests at the
//! end compare every first-step derivation over the corpus with the
//! token-game rebuild.

use asyncsynth::{
    run_cached_with, Backend, FlowEvent, FlowObserver, SweepOptions, Synthesis, SynthesisOptions,
};
use petri::reach::ReachError;
use petri::TransitionId;
use stg::{Refinement, SignalEdge, SignalKind, StateGraph, Stg, StgBuilder, StgError};
use synth::csc::{
    add_ordering_arc, concurrency_reduction_sweep, insert_state_signal, insertion_sweep,
    resolve_by_signal_insertion_with, resolve_mixed_sweep, Sweep,
};

/// Specs with CSC conflicts — the raw candidate-grid parity matrix.
/// (The CSC-clean `vme_read_csc` is covered by the flow-level parity
/// test below: sweeping a clean controller accepts almost the whole
/// grid and pays exact minimisation per candidate, which no pipeline
/// path ever does — prohibitively slow for a debug-mode unit test.)
fn sweep_specs() -> Vec<(&'static str, stg::Stg)> {
    vec![
        ("vme_read", stg::examples::vme_read()),
        ("vme_read_write", stg::examples::vme_read_write()),
        ("micropipeline-2", stg::examples::micropipeline(2)),
    ]
}

/// All four controllers — the end-to-end parity and no-rebuild matrix.
fn flow_specs() -> Vec<(&'static str, stg::Stg)> {
    let mut specs = sweep_specs();
    specs.push(("vme_read_csc", stg::examples::vme_read_csc()));
    specs
}

fn opts(threads: usize, prune: bool) -> SweepOptions {
    SweepOptions {
        threads,
        prune,
        ..SweepOptions::default()
    }
}

/// The full observable outcome of a sweep: every candidate's
/// description and state count, in rank order, plus the winner's
/// synthesised equations (from its carried space — no rebuild).
fn fingerprint(sweep: &Sweep, spec_name: &str) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = sweep
        .candidates
        .iter()
        .map(|c| (c.description.clone(), c.num_states))
        .collect();
    if let Some(winner) = sweep.candidates.first() {
        let space = winner
            .space
            .as_deref()
            .unwrap_or_else(|| panic!("{spec_name}: winner must carry its space"));
        let circuit = synth::complex_gate::synthesize_complex_gates(&winner.stg, space)
            .unwrap_or_else(|e| panic!("{spec_name}: winner synthesises: {e}"));
        out.push((circuit.display_equations(&winner.stg), usize::MAX));
    }
    out
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    for (name, spec) in sweep_specs() {
        let serial = insertion_sweep(&spec, Backend::Explicit, &opts(1, false));
        let baseline = fingerprint(&serial, name);
        for threads in [2, 0] {
            let parallel = insertion_sweep(&spec, Backend::Explicit, &opts(threads, false));
            assert_eq!(
                fingerprint(&parallel, name),
                baseline,
                "{name}: {threads}-thread sweep must match serial"
            );
            assert_eq!(
                parallel.stats, serial.stats,
                "{name}: sweep counters must be thread-independent"
            );
        }
    }
}

#[test]
fn pruned_sweep_is_identical_and_actually_prunes() {
    let mut pruned_somewhere = false;
    for (name, spec) in sweep_specs() {
        let unpruned = insertion_sweep(&spec, Backend::Explicit, &opts(1, false));
        for threads in [1, 2] {
            let pruned = insertion_sweep(&spec, Backend::Explicit, &opts(threads, true));
            assert_eq!(
                fingerprint(&pruned, name),
                fingerprint(&unpruned, name),
                "{name}: pruning must not change the ranking"
            );
            assert_eq!(
                pruned.stats.pruned + pruned.stats.evaluated,
                pruned.stats.grid,
                "{name}: every pair is pruned or evaluated"
            );
            pruned_somewhere |= pruned.stats.pruned > 0;
        }
    }
    assert!(
        pruned_somewhere,
        "conflict-locality pruning must fire on at least one controller"
    );
}

#[test]
fn flow_output_is_byte_identical_across_sweep_configurations() {
    // End-to-end: the complete synthesis summary — equations, netlist,
    // diagnostics, everything a client or cache sees — must not depend
    // on the sweep's thread count (events and metrics included: the
    // sweep counters are deterministic). Pruning changes only the
    // counters — in the event log and in the metric set — so its
    // comparison strips both; the cache-key test below is the flip
    // side: pruning splits cache entries for exactly this reason.
    for (name, spec) in flow_specs() {
        let run = |threads: usize, prune: bool| {
            let mut options = SynthesisOptions::default();
            options.sweep.threads = threads;
            options.sweep.prune = prune;
            let verified = Synthesis::with_options(spec.clone(), options.clone())
                .run()
                .unwrap_or_else(|e| panic!("{name} synthesises: {e}"));
            asyncsynth::SynthesisSummary::from_verified(&verified, &options)
        };
        let serial = run(1, true);
        let parallel = run(0, true);
        assert_eq!(
            parallel.to_json().render(),
            serial.to_json().render(),
            "{name}: flow output must be byte-identical across thread counts"
        );
        let mut unpruned = run(1, false);
        let mut pruned = serial.clone();
        unpruned.events.clear();
        pruned.events.clear();
        unpruned.metrics = asyncsynth::telemetry::Counters::new();
        pruned.metrics = asyncsynth::telemetry::Counters::new();
        assert_eq!(
            unpruned.to_json().render(),
            pruned.to_json().render(),
            "{name}: pruning must not change the synthesised result"
        );
    }
}

#[test]
fn trace_counters_are_byte_identical_across_sweep_threads() {
    // The acceptance bar of the telemetry layer: a traced run's span
    // tree, projected to its deterministic fields (no wall times, no
    // advisory counters), must render byte-identically whatever the
    // sweep's thread count — per stage and per CSC candidate, not just
    // at the flow root.
    for (name, spec) in flow_specs() {
        let run = |threads: usize| {
            let mut options = SynthesisOptions::default();
            options.sweep.threads = threads;
            let mut trace = asyncsynth::TraceBuilder::new();
            let run = run_cached_with(&spec, &options, None, &mut trace)
                .unwrap_or_else(|e| panic!("{name} synthesises: {e}"));
            let span = trace.finish(run.summary.metrics.clone(), run.advisory.clone());
            (span.render_deterministic(), run.summary.metrics.render())
        };
        let (serial_span, serial_metrics) = run(1);
        assert!(
            serial_metrics.contains("\"states_explored\":"),
            "{name}: the metric set covers verification work: {serial_metrics}"
        );
        for threads in [2, 0] {
            let (span, metrics) = run(threads);
            assert_eq!(
                span, serial_span,
                "{name}: deterministic span projection must not depend on {threads} threads"
            );
            assert_eq!(
                metrics, serial_metrics,
                "{name}: summary metrics must not depend on {threads} threads"
            );
        }
    }
}

#[test]
fn reduction_and_mixed_sweeps_are_deterministic_across_threads() {
    // vme_read has reduction candidates; vme_read_write needs the mixed
    // search (a reduction plus a state signal). The resident backend is
    // exercised on the small controller — a debug-mode resident sweep
    // of the full Fig. 5 move grid would dominate the suite's runtime.
    let read = stg::examples::vme_read();
    let read_write = stg::examples::vme_read_write();
    let describe = |r: &Option<synth::csc::CscResolutionWithSpace>| {
        r.as_ref().map(|r| (r.description.clone(), r.num_states))
    };
    for backend in [Backend::Explicit, Backend::SymbolicSet] {
        let reduction_baseline = concurrency_reduction_sweep(&read, backend, &opts(1, false), None);
        for threads in [2, 0] {
            for prune in [false, true] {
                let reduction =
                    concurrency_reduction_sweep(&read, backend, &opts(threads, prune), None);
                assert_eq!(
                    describe(&reduction.0),
                    describe(&reduction_baseline.0),
                    "{backend}: reduction winner must be scan-order deterministic"
                );
                assert_eq!(
                    reduction.1, reduction_baseline.1,
                    "{backend}: reduction counters must be thread-independent \
                     (early exit counts exactly the indices up to the winner)"
                );
            }
        }
    }
    let mixed_baseline =
        resolve_mixed_sweep(&read_write, 5, Backend::Explicit, &opts(1, false), None);
    for threads in [2, 0] {
        for prune in [false, true] {
            let mixed = resolve_mixed_sweep(
                &read_write,
                5,
                Backend::Explicit,
                &opts(threads, prune),
                None,
            );
            assert_eq!(
                describe(&mixed.0),
                describe(&mixed_baseline.0),
                "mixed resolution must be deterministic"
            );
        }
    }
    let winner = mixed_baseline.0.expect("Fig. 5 resolves");
    assert!(
        winner.space.is_some(),
        "mixed resolution carries its validated space"
    );
    // Resident-backend mixed parity on the single-conflict controller.
    let resident_serial =
        resolve_mixed_sweep(&read, 5, Backend::SymbolicSet, &opts(1, false), None);
    let resident_parallel =
        resolve_mixed_sweep(&read, 5, Backend::SymbolicSet, &opts(0, true), None);
    assert_eq!(
        describe(&resident_parallel.0),
        describe(&resident_serial.0),
        "resident mixed resolution must be deterministic"
    );
}

#[test]
fn insertion_resolution_carries_its_space() {
    // Regression: `resolve_by_signal_insertion_with` used to convert the
    // winner via `Into`, dropping the validated space and forcing
    // callers to rebuild it.
    for spec in [stg::examples::vme_read(), stg::examples::vme_read_csc()] {
        for backend in [Backend::Explicit, Backend::SymbolicSet] {
            let r = resolve_by_signal_insertion_with(&spec, backend)
                .expect("resolution exists (or CSC already holds)");
            let space = r.space.as_ref().expect("resolution carries its space");
            assert_eq!(r.num_states, space.num_states());
        }
    }
}

/// Records every stage callback and event — proves which stages built
/// state spaces (the probe idiom of `tests/cache.rs`).
#[derive(Default)]
struct Probe {
    per_stage: Vec<(String, Vec<String>)>,
}

impl FlowObserver for Probe {
    fn stage(&mut self, stage: &str, events: &[FlowEvent]) {
        self.per_stage.push((
            stage.to_owned(),
            events.iter().map(ToString::to_string).collect(),
        ));
    }
}

#[test]
fn no_pipeline_path_rebuilds_the_winning_candidates_space() {
    // The check stage builds the one and only state space; the CSC
    // sweeps seed from it and hand the winner's validated space to
    // synthesis. A second "state space built" event would be a rebuild.
    for (name, spec) in flow_specs() {
        let mut probe = Probe::default();
        run_cached_with(&spec, &SynthesisOptions::default(), None, &mut probe)
            .unwrap_or_else(|e| panic!("{name} synthesises: {e}"));
        for (stage, events) in &probe.per_stage {
            let builds = events
                .iter()
                .filter(|e| e.starts_with("state space built"))
                .count();
            if stage == "check" {
                assert_eq!(builds, 1, "{name}: the check stage builds the space");
            } else {
                assert_eq!(
                    builds, 0,
                    "{name}: stage {stage} must not rebuild a state space: {events:?}"
                );
            }
        }
    }
}

#[test]
fn bound_skipped_candidates_are_reported_never_silent() {
    // A bound below every candidate's state count: the sweep finds
    // nothing, but says exactly how many candidates it skipped.
    let spec = stg::examples::vme_read();
    let tight = SweepOptions {
        threads: 1,
        bound: 4,
        ..SweepOptions::default()
    };
    let sweep = insertion_sweep(&spec, Backend::Explicit, &tight);
    assert!(sweep.candidates.is_empty(), "nothing fits 4 states");
    assert!(
        sweep.stats.skipped_by_bound > 0,
        "skipped candidates are counted: {:?}",
        sweep.stats
    );

    // Through the pipeline, the failure itself carries the diagnosis.
    let mut options = SynthesisOptions::default();
    options.sweep.bound = 4;
    options.csc = asyncsynth::CscStrategy::SignalInsertion;
    let err = Synthesis::with_options(spec, options)
        .run()
        .expect_err("no candidate fits 4 states");
    let message = err.to_string();
    assert!(
        message.contains("exceeded the state bound"),
        "the error names the bound skips: {message}"
    );
    match err {
        asyncsynth::PipelineError::CscUnresolved { events } => {
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    FlowEvent::CscSweep { stats, .. } if stats.skipped_by_bound > 0
                )),
                "the sweep event records the skips: {events:?}"
            );
        }
        other => panic!("expected CscUnresolved, got {other:?}"),
    }
}

#[test]
fn sweep_cache_keys_share_across_threads_but_split_on_bound_and_prune() {
    let spec = stg::examples::vme_read();
    let base = SynthesisOptions::default();
    let key = |options: &SynthesisOptions| {
        asyncsynth::cache_key(&spec, options, asyncsynth::CacheStage::Full).to_hex()
    };
    let mut threads = base.clone();
    threads.sweep.threads = 7;
    let mut prune = base.clone();
    prune.sweep.prune = false;
    let mut bound = base.clone();
    bound.sweep.bound = 4;
    assert_eq!(
        key(&threads),
        key(&base),
        "thread count is output-neutral and must share cache entries"
    );
    assert_ne!(
        key(&prune),
        key(&base),
        "pruning changes the cached diagnostics and must split cache entries"
    );
    assert_ne!(
        key(&bound),
        key(&base),
        "the bound can change results and must split cache entries"
    );
}

// ---------------------------------------------------------------------
// Derived vs rebuilt candidates
// ---------------------------------------------------------------------

/// What a state graph build produced, in comparable form: every state's
/// marking and code, the arc list in order, the initial values — or the
/// error.
type GraphImage = Result<
    (
        Vec<(Vec<u32>, Vec<bool>)>,
        Vec<(usize, usize, usize)>,
        Vec<bool>,
    ),
    StgError,
>;

fn image(built: Result<StateGraph, StgError>) -> GraphImage {
    built.map(|sg| {
        let states = sg
            .states()
            .iter()
            .map(|s| (s.marking.as_counts().to_vec(), s.code.clone()))
            .collect();
        let arcs = sg
            .ts()
            .arcs()
            .iter()
            .map(|&(from, t, to)| (from, t.index(), to))
            .collect();
        (states, arcs, sg.initial_values().to_vec())
    })
}

/// The error class the sweeps act on.
fn error_class(image: &GraphImage) -> &'static str {
    match image {
        Ok(_) => "ok",
        Err(StgError::Reach(ReachError::StateLimit(_))) => "state-limit",
        Err(_) => "invalid",
    }
}

/// Every first-step move of `spec` — ordering arcs, then insertions —
/// with the rebuilt candidate STG and the label source a sweep derives
/// it with.
fn first_step_moves(spec: &Stg) -> Vec<(Refinement, Stg, Stg)> {
    let transitions: Vec<TransitionId> = spec.net().transitions().collect();
    let splittable: Vec<TransitionId> = transitions
        .iter()
        .copied()
        .filter(|&t| {
            spec.label(t)
                .is_some_and(|l| spec.signal_kind(l.signal).is_non_input())
        })
        .collect();
    let mut moves = Vec::new();
    for &from in &transitions {
        for &to in &splittable {
            if from != to {
                let rebuilt = add_ordering_arc(spec, from, to);
                moves.push((Refinement::OrderingArc { from, to }, rebuilt, spec.clone()));
            }
        }
    }
    let mut template: Option<Stg> = None;
    for &plus in &splittable {
        for &minus in &splittable {
            if plus != minus {
                let rebuilt = insert_state_signal(spec, plus, minus);
                let template = template.get_or_insert_with(|| rebuilt.clone()).clone();
                moves.push((
                    Refinement::SignalInsertion { plus, minus },
                    rebuilt,
                    template,
                ));
            }
        }
    }
    moves
}

/// The template claim the sweeps rest on: every insertion of one step
/// has the same signal table and transition labels.
fn assert_same_labels(candidate: &Stg, template: &Stg, what: &str) {
    assert_eq!(
        candidate.signal_names(),
        template.signal_names(),
        "{what}: signals"
    );
    for s in candidate.signals() {
        assert_eq!(
            candidate.signal_kind(s),
            template.signal_kind(s),
            "{what}: kinds"
        );
    }
    let transitions = candidate.net().num_transitions();
    assert_eq!(
        transitions,
        template.net().num_transitions(),
        "{what}: transitions"
    );
    for t in candidate.net().transitions() {
        assert_eq!(
            candidate.label(t),
            template.label(t),
            "{what}: label of {t}"
        );
        assert_eq!(
            candidate.label_string(t),
            template.label_string(t),
            "{what}: label text of {t}"
        );
    }
    assert_eq!(
        candidate.initial_values(),
        template.initial_values(),
        "{what}: initial values"
    );
}

/// Derives every first-step move of `spec` from its base graph and
/// compares it with the rebuild at each bound; returns the number of
/// comparisons per error class.
fn derived_matches_rebuilt(
    spec: &Stg,
    bounds: &[usize],
) -> std::collections::BTreeMap<&'static str, usize> {
    let base = StateGraph::build(spec).expect("base builds");
    let mut classes = std::collections::BTreeMap::new();
    for (refinement, rebuilt, labels) in first_step_moves(spec) {
        let what = format!("{} {refinement:?}", spec.name());
        if matches!(refinement, Refinement::SignalInsertion { .. }) {
            assert_same_labels(&rebuilt, &labels, &what);
        }
        for &bound in bounds {
            let expected = image(StateGraph::build_bounded(&rebuilt, bound));
            let derived = image(StateGraph::derive_bounded(
                &base,
                spec.net(),
                &labels,
                refinement,
                bound,
            ));
            assert_eq!(
                derived, expected,
                "{what} at bound {bound}: derived graph differs"
            );
            *classes.entry(error_class(&derived)).or_default() += 1;
        }
    }
    classes
}

#[test]
fn derived_candidates_match_rebuilt_ones_over_the_corpus() {
    // The oracle of the explicit sweeps: every first-step ordering arc
    // and insertion of every corpus spec that fails CSC, derived from the
    // base graph, equals the token-game rebuild of the candidate STG —
    // states, markings, codes, arc order, initial values and errors — at
    // the default sweep bound and at bounds that cut candidates off.
    let bounds = [synth::csc::DEFAULT_SWEEP_BOUND, 5, 20, 60];
    let mut classes = std::collections::BTreeMap::new();
    let mut specs = 0;
    for (_, spec) in corpus::all_specs() {
        let Ok(base) = StateGraph::build(&spec) else {
            continue;
        };
        if stg::encoding::has_csc(&spec, &base) {
            continue;
        }
        specs += 1;
        for (class, n) in derived_matches_rebuilt(&spec, &bounds) {
            *classes.entry(class).or_insert(0) += n;
        }
    }
    assert!(specs > 0, "the corpus has specs that fail CSC");
    for class in ["ok", "state-limit", "invalid"] {
        assert!(
            classes.get(class).copied().unwrap_or(0) > 0,
            "the oracle covers {class} outcomes: {classes:?}"
        );
    }
}

/// `a+ → x+ → a- → x-` plus an output `c` whose only edge is dead, with
/// explicit initial values that set `c = 1`.
fn toggle_with_frozen_signal() -> Stg {
    let mut b = StgBuilder::new("frozen");
    let a = b.add_signal("a", SignalKind::Input);
    let x = b.add_signal("x", SignalKind::Output);
    let c = b.add_signal("c", SignalKind::Output);
    let a_plus = b.add_edge(a, SignalEdge::Rise);
    let x_plus = b.add_edge(x, SignalEdge::Rise);
    let a_minus = b.add_edge(a, SignalEdge::Fall);
    let x_minus = b.add_edge(x, SignalEdge::Fall);
    let c_minus = b.add_edge(c, SignalEdge::Fall);
    b.connect(a_plus, x_plus);
    b.connect(x_plus, a_minus);
    b.connect(a_minus, x_minus);
    let p = b.connect(x_minus, a_plus);
    b.mark_place(p, 1);
    let never = b.add_place("never", 0);
    b.arc_pt(never, c_minus);
    b.set_initial_values(vec![false, false, true]);
    b.build()
}

#[test]
fn insertion_infers_initial_values_and_ordering_arcs_keep_them() {
    // `insert_state_signal` drops explicit initial values, so the
    // never-switching `c` is inferred low; `add_ordering_arc` keeps the
    // explicit high value. The derivation must follow each.
    let spec = toggle_with_frozen_signal();
    let base = StateGraph::build(&spec).expect("base builds");
    let t = |name: &str| spec.net().transition_by_name(name).expect("transition");
    let insertion = Refinement::SignalInsertion {
        plus: t("x+"),
        minus: t("x-"),
    };
    let rebuilt = insert_state_signal(&spec, t("x+"), t("x-"));
    let derived =
        StateGraph::derive_bounded(&base, spec.net(), &rebuilt, insertion, 1000).expect("derives");
    assert_eq!(derived.initial_values(), &[false, false, false, false]);
    assert_eq!(
        image(Ok(derived)),
        image(StateGraph::build_bounded(&rebuilt, 1000))
    );

    let arc = Refinement::OrderingArc {
        from: t("a+"),
        to: t("x-"),
    };
    let rebuilt = add_ordering_arc(&spec, t("a+"), t("x-"));
    let derived = StateGraph::derive_bounded(&base, spec.net(), &spec, arc, 1000).expect("derives");
    assert_eq!(derived.initial_values(), &[false, false, true]);
    assert_eq!(
        image(Ok(derived)),
        image(StateGraph::build_bounded(&rebuilt, 1000))
    );
    // And the whole first-step grid, at every bound.
    derived_matches_rebuilt(&spec, &[1000, 3, 5]);
}

#[test]
fn insertion_before_a_choice_only_transition_is_unbounded() {
    // `o+` consumes only the choice place it shares with `i+`, so the
    // inserted `csc0+` has an empty preset: it fires again and again and
    // its link place reaches 2 tokens. Derivation and rebuild must fail
    // alike, with the same offending marking.
    let mut b = StgBuilder::new("choice");
    let i = b.add_signal("i", SignalKind::Input);
    let o = b.add_signal("o", SignalKind::Output);
    let choice = b.add_place("choice", 1);
    let o_plus = b.add_edge(o, SignalEdge::Rise);
    let o_minus = b.add_edge(o, SignalEdge::Fall);
    let i_plus = b.add_edge(i, SignalEdge::Rise);
    let i_minus = b.add_edge(i, SignalEdge::Fall);
    b.arc_pt(choice, o_plus);
    b.arc_pt(choice, i_plus);
    b.connect(o_plus, o_minus);
    b.connect(i_plus, i_minus);
    b.arc_tp(o_minus, choice);
    b.arc_tp(i_minus, choice);
    let spec = b.build();
    let base = StateGraph::build(&spec).expect("base builds");
    let rebuilt = insert_state_signal(&spec, o_plus, o_minus);
    let derived = StateGraph::derive_bounded(
        &base,
        spec.net(),
        &rebuilt,
        Refinement::SignalInsertion {
            plus: o_plus,
            minus: o_minus,
        },
        1000,
    );
    assert!(
        matches!(derived, Err(StgError::Reach(ReachError::BoundExceeded(_)))),
        "{derived:?}"
    );
    assert_eq!(
        image(derived),
        image(StateGraph::build_bounded(&rebuilt, 1000))
    );
    derived_matches_rebuilt(&spec, &[1000, 2, 4]);
}
