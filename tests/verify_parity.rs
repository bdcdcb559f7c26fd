//! Verification-engine backend parity: the composed engine must be
//! observationally identical on the explicit and `symbolic-set`
//! backends, and must run set-level on resident symbolic spaces above
//! the materialise limit, where the pipeline previously refused
//! per-state verification outright.

use asyncsynth::{Backend, Synthesis, SynthesisOptions, SynthesisSummary};
use stg::examples::{micropipeline, vme_read, vme_read_csc, vme_read_write};
use stg::{SignalEdge, SignalKind, StateSpace, Stg, StgBuilder};
use synth::complex_gate::synthesize_complex_gates;
use synth::{GateKind, NetId, Netlist};
use verify::{verify_circuit, VerifyOptions};

const BACKENDS: [Backend; 2] = [Backend::Explicit, Backend::SymbolicSet];

fn specs() -> Vec<(&'static str, Stg)> {
    vec![
        ("vme_read", vme_read()),
        ("vme_read_csc", vme_read_csc()),
        ("vme_read_write", vme_read_write()),
        ("micropipeline2", micropipeline(2)),
    ]
}

/// Direct engine parity: identical reports — hazards, violations,
/// decoded witnesses and `states_explored` — on both backends.
#[test]
fn reports_identical_across_backends() {
    for (name, spec) in specs() {
        // Synthesise once on the explicit backend; CSC-clean specs only
        // (the others go through the flow-level test below).
        let space = Backend::Explicit.build(&spec).unwrap();
        let Ok(circuit) = synthesize_complex_gates(&spec, &*space) else {
            continue;
        };
        let nets: Vec<NetId> = spec.signals().map(|s| circuit.signal_net(s)).collect();
        let reference = verify_circuit(&spec, &*space, circuit.netlist(), &nets);
        let space = Backend::SymbolicSet.build(&spec).unwrap();
        let report = verify_circuit(&spec, &*space, circuit.netlist(), &nets);
        assert_eq!(report, reference, "{name}: symbolic-set diverges");
    }
}

/// The backends the flow-level byte-parity matrix covers. Debug builds
/// stick to the explicit backend — the resident backend's CSC sweeps
/// are slow unoptimised, and the `verify-differential` CI job runs the
/// full two-backend matrix in release — while the cheap
/// *verify-report* parity above covers both backends in every profile.
fn flow_backends() -> &'static [Backend] {
    if cfg!(debug_assertions) {
        &[Backend::Explicit]
    } else {
        &BACKENDS
    }
}

/// Runs the default flow of `spec` on `backend`.
fn run(name: &str, spec: &Stg, backend: Backend) -> (asyncsynth::Verified, SynthesisOptions) {
    let options = SynthesisOptions {
        backend,
        ..Default::default()
    };
    let verified = Synthesis::with_options(spec.clone(), options.clone())
        .run()
        .unwrap_or_else(|e| panic!("{name} ({backend}): {e}"));
    (verified, options)
}

/// Flow-level byte parity: the rendered `SynthesisSummary` JSON —
/// equations, netlist, verification, the whole event log — is identical
/// whatever the backend.
#[test]
fn pipeline_output_byte_identical_across_backends() {
    for (name, spec) in specs() {
        let render = |backend: Backend| {
            let (verified, options) = run(name, &spec, backend);
            let text = SynthesisSummary::from_verified(&verified, &options)
                .to_json()
                .render();
            // The summary names its backend, so cross-backend
            // comparison normalises that one field; everything else
            // must be byte-equal.
            text.replace(
                &format!("\"backend\":\"{}\"", backend.name()),
                "\"backend\":\"*\"",
            )
            .replace(&format!("({})", backend.name()), "(*)")
        };
        let reference = render(Backend::Explicit);
        for &backend in flow_backends() {
            assert_eq!(render(backend), reference, "{name}: {backend} flow bytes");
        }
    }
}

/// The telemetry split: the deterministic metric set of the summary is
/// byte-identical across (in release, where the flow matrix runs) both
/// backends — while the advisory counters legitimately vary and ride
/// outside the summary, on [`asyncsynth::Verified::advisory_metrics`].
#[test]
fn deterministic_metrics_identical_while_advisory_counters_ride_outside() {
    for (name, spec) in specs() {
        let metrics = |backend: Backend| {
            let (verified, options) = run(name, &spec, backend);
            let summary = SynthesisSummary::from_verified(&verified, &options);
            (
                summary.metrics.render(),
                verified.advisory_metrics().clone(),
            )
        };
        let (reference, _) = metrics(Backend::Explicit);
        for &backend in flow_backends() {
            let (rendered, advisory) = metrics(backend);
            assert_eq!(rendered, reference, "{name}: {backend} metrics");
            if backend != Backend::Explicit {
                assert!(
                    advisory.get("bdd_nodes").is_some(),
                    "{name}: the resident backend reports its BDD size: {advisory:?}"
                );
            }
        }
    }
}

/// A wide, CSC-clean controller whose state count is combinatorial:
/// `pairs` independent `x_i+ → y_i+ → x_i- → y_i-` handshakes (4 states
/// each, all codes distinct) plus one free-running output toggle `w`,
/// for `2 · 4^pairs` states.
fn wide_handshakes(pairs: usize) -> Stg {
    let mut b = StgBuilder::new(format!("wide-{pairs}"));
    let sigs: Vec<_> = (0..pairs)
        .map(|i| {
            (
                b.add_signal(format!("x{i}"), SignalKind::Input),
                b.add_signal(format!("y{i}"), SignalKind::Output),
            )
        })
        .collect();
    for (x, y) in sigs {
        let xp = b.add_edge(x, SignalEdge::Rise);
        let yp = b.add_edge(y, SignalEdge::Rise);
        let xm = b.add_edge(x, SignalEdge::Fall);
        let ym = b.add_edge(y, SignalEdge::Fall);
        b.connect(xp, yp);
        b.connect(yp, xm);
        b.connect(xm, ym);
        let p = b.connect(ym, xp);
        b.mark_place(p, 1);
    }
    let w = b.add_signal("w", SignalKind::Output);
    let wp = b.add_edge(w, SignalEdge::Rise);
    let wm = b.add_edge(w, SignalEdge::Fall);
    b.connect(wp, wm);
    let p = b.connect(wm, wp);
    b.mark_place(p, 1);
    b.build()
}

/// The circuit the wide controller implements: `y_i = buffer(x_i)`,
/// `w = ¬w`.
fn wide_circuit(spec: &Stg) -> (Netlist, Vec<NetId>) {
    use boolmin::Expr;
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = vec![NetId::from_index(0); spec.num_signals()];
    for s in spec.signals() {
        if spec.signal_kind(s) == SignalKind::Input {
            nets[s.index()] = n.add_input(spec.signal_name(s));
        }
    }
    for s in spec.signals() {
        if spec.signal_kind(s) == SignalKind::Input {
            continue;
        }
        let name = spec.signal_name(s).to_owned();
        nets[s.index()] = if name == "w" {
            let own = NetId::from_index(n.num_nets());
            n.add_gate("w", GateKind::Complex(Expr::not(Expr::Var(0))), vec![own])
        } else {
            let x = n.net_by_name(&name.replace('y', "x")).expect("input net");
            n.add_gate(&name, GateKind::Complex(Expr::Var(0)), vec![x])
        };
    }
    (n, nets)
}

/// The probe the tentpole is named for: a resident `SymbolicSet` space
/// with 131 072 states — double the 2^16 materialise limit — verifies
/// set-level through the composed engine, decoding *zero* states and
/// never materialising a per-state view. Before this engine the
/// pipeline refused any per-state verification on such spaces.
#[test]
fn verification_runs_on_resident_space_above_materialise_limit() {
    let spec = wide_handshakes(8);
    let space = stg::SymbolicSetSpace::build(&spec).expect("resident build");
    assert!(
        StateSpace::num_states(&space) > stg::MATERIALISE_LIMIT,
        "probe space must exceed the materialise limit"
    );
    let (netlist, nets) = wide_circuit(&spec);
    let report = verify_circuit(&spec, &space, &netlist, &nets);
    assert!(report.is_speed_independent(), "{}", report.summary());
    assert_eq!(report.states_explored, 2 * 4usize.pow(8));
    assert_eq!(
        space.decoded_states(),
        0,
        "verification must not decode a single state"
    );
    assert!(
        !space.is_materialised(),
        "verification must not materialise the per-state view"
    );
}

/// A flow-level bound hit is reported as a *bounded* run: the failure
/// carries `Violation::StateLimit` and the event log gains the
/// distinguishing `VerificationBounded` entry.
#[test]
fn bounded_verification_is_surfaced_as_an_event() {
    let options = SynthesisOptions {
        verify: VerifyOptions::default().with_bound(10),
        ..Default::default()
    };
    let err = Synthesis::with_options(vme_read_csc(), options)
        .run()
        .expect_err("a 10-state bound cannot cover the composed space");
    match err {
        asyncsynth::PipelineError::CandidatesExhausted { last, events } => {
            match *last {
                asyncsynth::PipelineError::VerificationFailed(report) => {
                    assert!(report.hit_state_limit(), "{}", report.summary());
                }
                other => panic!("unexpected inner error: {other}"),
            }
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    asyncsynth::FlowEvent::VerificationBounded { bound: 10, .. }
                )),
                "bounded event missing from {events:?}"
            );
        }
        other => panic!("unexpected error: {other}"),
    }
}
