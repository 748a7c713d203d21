//! Workspace smoke test: the paper's Fig. 2 hazard as an executable
//! check, end to end through the two flow pipelines.
//!
//! An ISW-masked AND gadget is first-order probing secure as designed.
//! Feeding it through the classical flow (which ignores the `no_reassoc`
//! barriers) re-associates the gadget's XOR trees and materializes a
//! wire whose distribution depends on the unmasked secret — the exact
//! failure mode motivating the paper. The security-aware flow preserves
//! the gadget and the probing guarantee.

use seceda_core::{run_classical_flow, run_secure_flow};
use seceda_fia::duplicate_with_compare;
use seceda_netlist::{CellKind, Netlist};
use seceda_sca::{first_order_leaks, mask_netlist, ProbingModel};

/// The single-AND gadget of Fig. 2: `y = a & b`, ISW-masked to 3 shares.
fn masked_and() -> (seceda_sca::MaskedNetlist, ProbingModel) {
    let mut nl = Netlist::new("and");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let y = nl.add_gate(CellKind::And, &[a, b]);
    nl.mark_output(y, "y");
    let masked = mask_netlist(&nl);
    let model = ProbingModel::of(&masked);
    (masked, model)
}

#[test]
fn gadget_is_probing_secure_as_designed() {
    let (masked, model) = masked_and();
    assert!(
        first_order_leaks(&masked.netlist, &model).is_empty(),
        "the ISW gadget must have no first-order leaks before synthesis"
    );
}

#[test]
fn classical_flow_introduces_first_order_leak() {
    let (masked, model) = masked_and();
    let report = run_classical_flow(&masked.netlist).expect("classical flow");
    let leaks = first_order_leaks(&report.result, &model);
    assert!(
        !leaks.is_empty(),
        "unconstrained re-association must expose a secret-dependent wire (Fig. 2)"
    );
    // the classical flow performs no security evaluation at all
    assert!(!report.equivalence_checked);
    assert!(report.security.metrics.is_empty());
}

#[test]
fn secure_flow_preserves_probing_security() {
    let (masked, model) = masked_and();
    let report = run_secure_flow(&masked.netlist).expect("secure flow");
    assert!(
        first_order_leaks(&report.result, &model).is_empty(),
        "the security-aware flow must keep the gadget first-order secure"
    );
    // and it proves it did not change the function
    assert!(report.equivalence_checked);
    assert!(
        report.security.all_pass(),
        "secure-flow report must pass: {:?}",
        report.security
    );
}

#[test]
fn secure_flow_keeps_a_duplicated_masked_design_probing_secure() {
    // duplication with comparison composes with masking share-wise; its
    // copies must keep the gadget's barriers, or the secure flow
    // re-associates them like the classical one
    for last in [CellKind::And, CellKind::Xor] {
        let mut nl = Netlist::new("and3");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(last, &[ab, c]);
        nl.mark_output(y, "y");
        let masked = mask_netlist(&nl);
        let model = ProbingModel::of(&masked);
        let dwc = duplicate_with_compare(&masked.netlist);
        let report = run_secure_flow(&dwc.netlist).expect("secure flow");
        assert!(
            first_order_leaks(&report.result, &model).is_empty(),
            "masked-then-duplicated {last:?} design must stay first-order secure"
        );
    }
}

#[test]
fn both_flows_preserve_function() {
    // even the classical flow is functionally correct — the hazard is
    // *only* visible to an attacker probing internal wires
    let (masked, _) = masked_and();
    let classical = run_classical_flow(&masked.netlist).expect("classical flow");
    let secure = run_secure_flow(&masked.netlist).expect("secure flow");
    for pattern in 0u32..(1 << masked.netlist.inputs().len().min(12)) {
        let inputs: Vec<bool> = (0..masked.netlist.inputs().len())
            .map(|i| (pattern >> i) & 1 == 1)
            .collect();
        let want = masked.netlist.evaluate(&inputs);
        assert_eq!(classical.result.evaluate(&inputs), want);
        assert_eq!(secure.result.evaluate(&inputs), want);
    }
}
