//! Verification tests: Fig. 8 circuits accepted, Fig. 9b-style
//! decompositions rejected.

use boolmin::Expr;
use stg::examples::{toggle, vme_read_csc};
use stg::StateGraph;
use synth::complex_gate::synthesize_complex_gates;
use synth::decompose::{decompose, resubstitute};
use synth::latch_arch::{synthesize_latch_circuit, LatchStyle};
use synth::{GateKind, NetId, Netlist};

use crate::verify_circuit;

fn signal_nets_of<C>(
    stg: &stg::Stg,
    net_of: impl Fn(stg::SignalId) -> NetId,
    _c: &C,
) -> Vec<NetId> {
    stg.signals().map(net_of).collect()
}

#[test]
fn complex_gate_vme_is_speed_independent() {
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let nets = signal_nets_of(&stg, |s| circuit.signal_net(s), &circuit);
    let report = verify_circuit(&stg, &sg, circuit.netlist(), &nets);
    assert!(report.is_speed_independent(), "{}", report.summary());
}

#[test]
fn latch_architectures_are_speed_independent() {
    // Fig. 8: both the C-element and the RS-latch implementations are
    // hazard-free — certified per §3.4 by (a) the strict Muller-model
    // check on the atomic equivalent and (b) the monotonous-cover
    // condition on the set/reset networks.
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    for style in [LatchStyle::CElement, LatchStyle::RsLatch] {
        let circ = synthesize_latch_circuit(&stg, &sg, style).unwrap();
        let (atomic, nets) = circ.atomic_netlist(&stg);
        let report = verify_circuit(&stg, &sg, &atomic, &nets);
        assert!(
            report.is_speed_independent(),
            "style {style:?}: {}",
            report.summary()
        );
        let violations = synth::latch_arch::monotonic_violations(&stg, &sg, &circ.covers);
        assert!(violations.is_empty(), "style {style:?}: {violations:?}");
    }
}

#[test]
fn naive_decomposition_is_hazardous_fig9b() {
    // The naive two-input decomposition keeps D = LDTACK·csc0 and uses
    // map0 = csc0 + LDTACK' only inside csc0 — the paper's Fig. 9b shape.
    // map0's falling edge is never acknowledged: hazard.
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let dec = decompose(&stg, &circuit, 2);
    let nets = signal_nets_of(&stg, |s| dec.signal_net(s), &dec);
    let report = verify_circuit(&stg, &sg, dec.netlist(), &nets);
    assert!(
        !report.hazards.is_empty(),
        "expected a hazard: {}",
        report.summary()
    );
    assert!(report
        .hazards
        .iter()
        .any(|h| h.gate_output.starts_with("map")));
}

#[test]
fn resubstituted_decomposition_is_speed_independent_fig9a() {
    // Resubstitution rewrites D = LDTACK·map0, giving map0 the multiple
    // acknowledgment of Fig. 9a; the checker accepts it.
    let stg = vme_read_csc();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let dec = decompose(&stg, &circuit, 2);
    let resub = resubstitute(&stg, &sg, &dec);
    let nets = signal_nets_of(&stg, |s| resub.signal_net(s), &resub);
    let report = verify_circuit(&stg, &sg, resub.netlist(), &nets);
    assert!(report.is_speed_independent(), "{}", report.summary());
    // The D gate now reads map0.
    let d_net = resub.signal_net(stg.signal_by_name("D").unwrap());
    let d_gate = resub.netlist().driver_of(d_net).unwrap();
    let input_names: Vec<&str> = resub.netlist().gates()[d_gate]
        .inputs
        .iter()
        .map(|n| resub.netlist().net_name(*n))
        .collect();
    assert!(
        input_names.iter().any(|n| n.starts_with("map")),
        "D should be fed by the shared map net: {input_names:?}"
    );
}

#[test]
fn wrong_gate_is_rejected() {
    // Implement toggle's x with an inverter instead of a buffer: the
    // circuit immediately produces x+ when the spec does not allow it.
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let not = Expr::not(Expr::Var(0));
    let x = n.add_gate("x", GateKind::Complex(not), vec![a]);
    let report = verify_circuit(&stg, &sg, &n, &[a, x]);
    assert!(!report.is_speed_independent());
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, crate::Violation::UnexpectedOutput { .. })));
}

#[test]
fn stuck_circuit_is_rejected() {
    // Implement x as constant 0: the spec expects x+ after a+, but the
    // circuit never produces it.
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let x = n.add_gate("x", GateKind::Complex(Expr::Const(false)), vec![]);
    let report = verify_circuit(&stg, &sg, &n, &[a, x]);
    assert!(!report.is_speed_independent());
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, crate::Violation::OutputStuck { .. })));
}

#[test]
fn correct_toggle_accepted() {
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let circuit = synthesize_complex_gates(&stg, &sg).unwrap();
    let nets: Vec<NetId> = stg.signals().map(|s| circuit.signal_net(s)).collect();
    let report = verify_circuit(&stg, &sg, circuit.netlist(), &nets);
    assert!(report.is_speed_independent(), "{}", report.summary());
}

// ---------------------------------------------------------------------
// The marking tracker against the explicit state-graph oracle
// ---------------------------------------------------------------------

use stg::examples::{micropipeline, vme_read, vme_read_write};
use stg::{Backend, StateSpace};

use crate::engine::{explore, SpecTracker};
use crate::VerificationReport;

/// One verification under each spec tracker: the explicit state-graph
/// oracle and the production marking tracker.
fn both_trackers(
    stg: &stg::Stg,
    sg: &dyn StateSpace,
    netlist: &Netlist,
    nets: &[NetId],
    bound: usize,
) -> (VerificationReport, VerificationReport) {
    let explicit = explore(stg, sg, netlist, nets, bound, SpecTracker::explicit(sg));
    let marking = SpecTracker::marking(sg.initial_marking());
    let composed = explore(stg, sg, netlist, nets, bound, marking);
    (explicit, composed)
}

/// The oracle inputs: the four specs of `tests/verify_parity.rs`
/// (CSC-resolved by the mixed sweep where needed), each with its
/// complex-gate circuit and its naive fan-in-2 decomposition, on both
/// backends.
fn oracle_cases() -> Vec<(String, stg::Stg, Backend, Netlist, Vec<NetId>)> {
    let specs = [
        ("vme_read_csc", vme_read_csc()),
        ("vme_read", vme_read()),
        ("vme_read_write", vme_read_write()),
        ("micropipeline2", micropipeline(2)),
    ];
    let mut cases = Vec::new();
    for (name, spec) in specs {
        let sg = StateGraph::build(&spec).unwrap();
        let spec = match synthesize_complex_gates(&spec, &sg) {
            Ok(_) => spec,
            Err(_) => {
                synth::csc::resolve_mixed(&spec, 3)
                    .unwrap_or_else(|| panic!("{name}: a mixed resolution restores CSC"))
                    .stg
            }
        };
        let sg = StateGraph::build(&spec).unwrap();
        let circuit = synthesize_complex_gates(&spec, &sg).unwrap();
        let dec = decompose(&spec, &circuit, 2);
        for backend in [Backend::Explicit, Backend::SymbolicSet] {
            let nets = spec.signals().map(|s| circuit.signal_net(s)).collect();
            let label = format!("{name}/{backend}/complex");
            cases.push((
                label,
                spec.clone(),
                backend,
                circuit.netlist().clone(),
                nets,
            ));
            let nets = spec.signals().map(|s| dec.signal_net(s)).collect();
            let label = format!("{name}/{backend}/decomposed");
            cases.push((label, spec.clone(), backend, dec.netlist().clone(), nets));
        }
    }
    cases
}

#[test]
fn strategies_explore_identically_on_passing_and_failing_circuits() {
    // Reports — hazards, violations, decoded witnesses, states_explored
    // — must be byte-for-byte equal under both trackers, on circuits
    // that pass and on circuits that fail.
    let mut verdicts = (0, 0);
    for (label, spec, backend, netlist, nets) in oracle_cases() {
        let sg = backend.build(&spec).unwrap();
        let (explicit, composed) =
            both_trackers(&spec, &*sg, &netlist, &nets, crate::DEFAULT_VERIFY_BOUND);
        assert_eq!(explicit, composed, "{label}");
        if explicit.is_speed_independent() {
            verdicts.0 += 1;
        } else {
            verdicts.1 += 1;
        }
    }
    assert!(
        verdicts.0 > 0 && verdicts.1 > 0,
        "the oracle must see both passing and failing circuits: {verdicts:?}"
    );
}

#[test]
fn bound_hit_is_reported_identically_by_both_strategies() {
    for (label, spec, backend, netlist, nets) in oracle_cases() {
        let sg = backend.build(&spec).unwrap();
        let (explicit, composed) = both_trackers(&spec, &*sg, &netlist, &nets, 5);
        assert_eq!(explicit, composed, "{label}");
        assert!(explicit.hit_state_limit(), "{label}: bound must be hit");
        assert_eq!(explicit.states_explored, 5, "{label}");
        assert!(
            explicit
                .violations
                .iter()
                .any(|v| matches!(v, crate::Violation::StateLimit(5))),
            "{label}"
        );
    }
}

#[test]
fn witnesses_decode_the_offending_state() {
    // The inverter-for-buffer circuit produces x+ when the spec does
    // not allow it; the violation must carry the decoded composed state
    // instead of an opaque index.
    let stg = toggle();
    let sg = StateGraph::build(&stg).unwrap();
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let not = Expr::not(Expr::Var(0));
    let x = n.add_gate("x", GateKind::Complex(not), vec![a]);
    let report = verify_circuit(&stg, &sg, &n, &[a, x]);
    let witness = report
        .violations
        .iter()
        .find_map(|v| match v {
            crate::Violation::UnexpectedOutput { witness, .. } => Some(witness),
            _ => None,
        })
        .expect("unexpected-output violation");
    assert_eq!(witness.nets.len(), 2, "one entry per net");
    assert_eq!(witness.nets[0].0, "a");
    assert_eq!(witness.nets[1].0, "x");
    assert_eq!(witness.spec_code.len(), stg.num_signals());
    // Display is self-contained (code + net values).
    let text = report.violations[0].to_string();
    assert!(text.contains("code"), "{text}");
    assert!(text.contains("a="), "{text}");
}
