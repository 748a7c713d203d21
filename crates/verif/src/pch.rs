//! Proof-carrying hardware \[34\].
//!
//! An IP vendor ships a module together with a *certificate*; the
//! integrator runs a mechanical, cheap check before trusting it. Two
//! certificate kinds are supported:
//!
//! * **Structural isolation** — "no path from input X to output Y". The
//!   evidence is the cut: a set of nets such that every X→Y path crosses
//!   it and none of its nets is used. Checkable in linear time; this is
//!   how "the debug port cannot observe the key register" style claims
//!   travel with an IP block.
//! * **Functional equivalence** — "this netlist computes the same
//!   function as the reference". The evidence is the reference netlist;
//!   the checker re-runs the SAT equivalence proof (trusted-checker
//!   model).

use crate::equiv::{check_equivalence, EquivResult};
use seceda_netlist::{DesignDigest, NetId, Netlist, NetlistError};

/// A property claimed about a module.
#[derive(Debug, Clone, PartialEq)]
pub enum Property {
    /// No structural path from the named input to the named output.
    Isolated {
        /// Source port name.
        from_input: String,
        /// Sink port name.
        to_output: String,
    },
    /// Equivalent to a reference implementation.
    EquivalentTo(Box<Netlist>),
}

/// A certificate accompanying a module.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The property claimed.
    pub property: Property,
    /// [`DesignDigest::of`] the netlist the certificate was issued for
    /// (the checker rejects certificates applied to a different design,
    /// down to a gate tag or the choice of output nets).
    pub design_fingerprint: DesignDigest,
}

/// Issues an isolation certificate, *if the property actually holds*.
/// Returns `None` when a path exists (the vendor cannot certify a lie).
pub fn isolation_certificate(
    nl: &Netlist,
    from_input: &str,
    to_output: &str,
) -> Option<Certificate> {
    if path_exists(nl, from_input, to_output)? {
        return None;
    }
    Some(Certificate {
        property: Property::Isolated {
            from_input: from_input.to_string(),
            to_output: to_output.to_string(),
        },
        design_fingerprint: DesignDigest::of(nl),
    })
}

/// Returns whether a structural path exists from the named input to the
/// named output. `None` if either port is unknown.
fn path_exists(nl: &Netlist, from_input: &str, to_output: &str) -> Option<bool> {
    let src: NetId = *nl
        .inputs()
        .iter()
        .find(|&&n| nl.net_name(n) == Some(from_input))?;
    let (dst, _) = nl
        .outputs()
        .iter()
        .find(|(_, name)| name == to_output)?
        .clone();
    // forward reachability over fanout
    let fanout = nl.fanout();
    let mut seen = vec![false; nl.num_nets()];
    let mut stack = vec![src];
    while let Some(n) = stack.pop() {
        if n == dst {
            return Some(true);
        }
        if seen[n.index()] {
            continue;
        }
        seen[n.index()] = true;
        for &g in fanout.loads(n) {
            stack.push(nl.gate(g).output);
        }
    }
    Some(dst == src)
}

/// The integrator's check: validates a certificate against the received
/// netlist. Returns `true` only if the design digest matches *and* the
/// property re-verifies.
///
/// # Errors
///
/// Propagates encoding errors for equivalence certificates.
pub fn check_certificate(nl: &Netlist, cert: &Certificate) -> Result<bool, NetlistError> {
    if DesignDigest::of(nl) != cert.design_fingerprint {
        return Ok(false);
    }
    match &cert.property {
        Property::Isolated {
            from_input,
            to_output,
        } => Ok(matches!(
            path_exists(nl, from_input, to_output),
            Some(false)
        )),
        Property::EquivalentTo(reference) => {
            Ok(check_equivalence(nl, reference)? == EquivResult::Equivalent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{CellKind, GateTags};

    /// Two independent cones: (a,b) -> x and (c) -> y.
    fn split_design() -> Netlist {
        let mut nl = Netlist::new("iso");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_gate(CellKind::And, &[a, b]);
        let y = nl.add_gate(CellKind::Not, &[c]);
        nl.mark_output(x, "x");
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn honest_isolation_certificate_checks_out() {
        let nl = split_design();
        let cert = isolation_certificate(&nl, "a", "y").expect("a does not reach y");
        assert!(check_certificate(&nl, &cert).expect("check"));
    }

    #[test]
    fn vendor_cannot_certify_a_lie() {
        let nl = split_design();
        assert!(isolation_certificate(&nl, "a", "x").is_none());
        assert!(isolation_certificate(&nl, "c", "y").is_none());
    }

    #[test]
    fn certificate_bound_to_the_design() {
        let nl = split_design();
        let cert = isolation_certificate(&nl, "a", "y").expect("cert");
        // a tampered design (Trojan wire from a's cone into y's cone)
        let mut tampered = nl.clone();
        let a = tampered.inputs()[0];
        let y_net = tampered.outputs()[1].0;
        let before = tampered.num_gates();
        let leak = tampered.add_gate(CellKind::Or, &[y_net, a]);
        tampered.redirect(&[(y_net, leak)], before);
        assert!(
            !check_certificate(&tampered, &cert).expect("check"),
            "digest mismatch must reject"
        );
    }

    /// `split_design` with a buffer after `x`, tagged as a key gate or
    /// not, and output `y` marked on the NOT or on input `c`.
    fn keyed_design(key_tag: bool, y_on_input: bool) -> Netlist {
        let mut nl = Netlist::new("iso");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_gate(CellKind::And, &[a, b]);
        let tags = GateTags {
            key_gate: key_tag,
            ..GateTags::default()
        };
        let k = nl.add_gate_tagged(CellKind::Buf, &[x], tags);
        let y = nl.add_gate(CellKind::Not, &[c]);
        nl.mark_output(k, "x");
        nl.mark_output(if y_on_input { c } else { y }, "y");
        nl
    }

    #[test]
    fn certificate_rejects_stripped_tags_and_moved_outputs() {
        let cert = isolation_certificate(&keyed_design(true, false), "a", "y").expect("cert");
        assert!(check_certificate(&keyed_design(true, false), &cert).expect("check"));
        // both variants keep the same gate list, and `a` still does not
        // reach `y`, so only the digest can tell them apart
        for (variant, why) in [
            (keyed_design(false, false), "a stripped key-gate tag"),
            (keyed_design(true, true), "output y moved to another net"),
        ] {
            assert!(isolation_certificate(&variant, "a", "y").is_some());
            assert!(
                !check_certificate(&variant, &cert).expect("check"),
                "{why} must reject"
            );
        }
    }

    #[test]
    fn forged_certificate_for_tampered_design_fails_property_check() {
        let nl = split_design();
        let mut tampered = nl.clone();
        let a = tampered.inputs()[0];
        let y_net = tampered.outputs()[1].0;
        let before = tampered.num_gates();
        let leak = tampered.add_gate(CellKind::Or, &[y_net, a]);
        tampered.redirect(&[(y_net, leak)], before);
        // the attacker forges a certificate with the *tampered* hash
        let forged = Certificate {
            property: Property::Isolated {
                from_input: "a".into(),
                to_output: "y".into(),
            },
            design_fingerprint: DesignDigest::of(&tampered),
        };
        assert!(
            !check_certificate(&tampered, &forged).expect("check"),
            "property re-verification must catch the leak path"
        );
    }

    #[test]
    fn equivalence_certificate_roundtrip() {
        let nl = split_design();
        let cert = Certificate {
            property: Property::EquivalentTo(Box::new(nl.clone())),
            design_fingerprint: DesignDigest::of(&nl),
        };
        assert!(check_certificate(&nl, &cert).expect("check"));
    }
}
