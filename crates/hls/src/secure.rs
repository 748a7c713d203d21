//! Security-driven HLS transforms (Table II, HLS row).

use crate::dfg::{Dfg, NodeId, Op};
use crate::schedule::{allocate, Schedule};

/// A register-flushing plan for sensitive values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushPlan {
    /// `(node, flush_cycle)`: the register holding `node`'s value is
    /// overwritten in `flush_cycle` (one past its last use).
    pub flushes: Vec<(NodeId, u32)>,
    /// Sensitive residence cycles *without* flushing (values linger in
    /// registers until the end of the schedule).
    pub residence_without: u64,
    /// Sensitive residence cycles *with* flushing.
    pub residence_with: u64,
}

/// Nodes carrying secret-derived values (simple forward taint).
fn sensitive_nodes(dfg: &Dfg) -> Vec<bool> {
    let mut sensitive = vec![false; dfg.len()];
    for (i, n) in dfg.nodes().iter().enumerate() {
        sensitive[i] = match &n.op {
            Op::Input { secret, .. } => *secret,
            _ => n.args.iter().any(|a| sensitive[a.index()]),
        };
    }
    sensitive
}

/// Computes the register-flushing countermeasure: every sensitive value
/// is scheduled for overwrite one cycle after its last use, and the plan
/// quantifies the reduction in sensitive register residence (the window
/// a probing or cold-boot style adversary can read).
pub fn flush_plan(dfg: &Dfg, schedule: &Schedule) -> FlushPlan {
    let sensitive = sensitive_nodes(dfg);
    let users = dfg.users();
    let end = schedule.latency();
    let mut flushes = Vec::new();
    let mut without = 0u64;
    let mut with = 0u64;
    for i in 0..dfg.len() {
        if !sensitive[i] || matches!(dfg.nodes()[i].op, Op::Output(_)) {
            continue;
        }
        let born = schedule.cycle[i];
        let last_use = users[i]
            .iter()
            .map(|u| schedule.cycle[u.index()])
            .max()
            .unwrap_or(born);
        let flush_cycle = last_use + 1;
        flushes.push((NodeId(i as u32), flush_cycle));
        without += (end.max(born) - born) as u64;
        with += (flush_cycle - born) as u64;
    }
    FlushPlan {
        flushes,
        residence_without: without,
        residence_with: with,
    }
}

/// A DFG augmented with PUF-based metering \[19\].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeteredDfg {
    /// The augmented graph: outputs are gated on an activation check.
    pub dfg: Dfg,
    /// The chip-specific activation code the designer must supply
    /// (derived from the PUF response input `puf_response`).
    pub activation_code: u16,
}

/// Adds active metering: the design reads a `puf_response` input,
/// compares it against an obfuscated expected value, and ANDs a
/// pass/fail mask into every output. An unactivated chip (wrong PUF
/// response / missing code) produces garbage — the foundry cannot sell
/// working over-produced parts.
pub fn add_metering(dfg: &Dfg, expected_response: u16) -> MeteredDfg {
    // Rebuild the graph: copy everything except the Output nodes, then
    // append the activation check and re-emit outputs gated on it.
    let mut metered = Dfg::new(format!("{}_metered", dfg.name()));
    let mut map: Vec<Option<NodeId>> = vec![None; dfg.len()];
    let mut pending_outputs: Vec<(String, NodeId)> = Vec::new();
    for (i, n) in dfg.nodes().iter().enumerate() {
        match &n.op {
            Op::Output(name) => {
                let value = map[n.args[0].index()].expect("topological");
                pending_outputs.push((name.clone(), value));
            }
            op => {
                let args: Vec<NodeId> = n
                    .args
                    .iter()
                    .map(|a| map[a.index()].expect("topological"))
                    .collect();
                map[i] = Some(metered.node(op.clone(), &args));
            }
        }
    }
    let puf = metered.input("puf_response", false);
    let expect = metered.node(Op::Const(expected_response), &[]);
    // diff == 0 iff the chip supplied the right activation code; every
    // output is XORed with it, so a wrong code corrupts all outputs
    // while the right one is functionally transparent.
    let diff = metered.node(Op::Xor, &[puf, expect]);
    for (name, value) in pending_outputs {
        let gated = metered.node(Op::Xor, &[value, diff]);
        metered.output(name, gated);
    }
    MeteredDfg {
        dfg: metered,
        activation_code: expected_response,
    }
}

/// Result of BISA-style self-authentication fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfAuthDfg {
    /// The filled graph, with an extra `auth_sig` output.
    pub dfg: Dfg,
    /// Number of authentication ops inserted (= idle slots filled).
    pub fill_ops: usize,
    /// The signature value `auth_sig` must produce on a genuine chip.
    pub expected_signature: u16,
}

/// BISA-style self-authentication \[20\]: fills the idle FU slots of a
/// schedule with a chain of checkable authentication ops producing a
/// known signature. A Trojan inserted into the former "dead space" now
/// displaces logic whose absence is detectable by a signature mismatch.
pub fn self_authentication_fill(dfg: &Dfg, schedule: &Schedule) -> SelfAuthDfg {
    let alloc = allocate(dfg, schedule);
    let idle: usize = alloc.idle_slots.values().sum();
    let mut filled = dfg.clone();
    let mut chain = filled.node(Op::Const(0x5EC1), &[]);
    let mut expected: u16 = 0x5EC1;
    for k in 0..idle {
        let c = (0x9E37u16).wrapping_mul(k as u16 + 1) ^ 0x0BAD;
        let cnode = filled.node(Op::Const(c), &[]);
        chain = filled.node(Op::Xor, &[chain, cnode]);
        expected ^= c;
    }
    filled.output("auth_sig", chain);
    SelfAuthDfg {
        dfg: filled,
        fill_ops: idle,
        expected_signature: expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::asap;

    fn crypto_like() -> Dfg {
        let mut dfg = Dfg::new("c");
        let key = dfg.input("key", true);
        let pt = dfg.input("pt", false);
        let x = dfg.node(Op::Xor, &[key, pt]);
        let y = dfg.node(Op::Mul, &[x, x]);
        dfg.output("ct", y);
        dfg
    }

    #[test]
    fn sensitivity_propagates() {
        let dfg = crypto_like();
        let s = sensitive_nodes(&dfg);
        assert!(s[0], "key is secret");
        assert!(!s[1], "pt is public");
        assert!(s[2] && s[3], "derived values are sensitive");
    }

    #[test]
    fn flushing_shrinks_residence() {
        let dfg = crypto_like();
        let schedule = asap(&dfg);
        let plan = flush_plan(&dfg, &schedule);
        assert!(!plan.flushes.is_empty());
        assert!(
            plan.residence_with < plan.residence_without,
            "flushing must shorten sensitive windows: {} vs {}",
            plan.residence_with,
            plan.residence_without
        );
    }

    #[test]
    fn self_authentication_signature_checks_out() {
        let dfg = crypto_like();
        let schedule = asap(&dfg);
        let auth = self_authentication_fill(&dfg, &schedule);
        let outs = auth
            .dfg
            .run(&[("key".to_string(), 1u16), ("pt".to_string(), 2)], 0);
        let sig = outs
            .iter()
            .find(|(n, _)| n == "auth_sig")
            .expect("signature output")
            .1;
        assert_eq!(sig, auth.expected_signature);
        // tampering with the fill (modelled as one missing op) breaks it
        assert_ne!(sig ^ 0x9E37, auth.expected_signature);
    }

    #[test]
    fn metering_gates_functionality() {
        let dfg = crypto_like();
        let metered = add_metering(&dfg, 0xA5A5);
        let inputs_ok = vec![
            ("key".to_string(), 0x1234u16),
            ("pt".to_string(), 0x0F0F),
            ("puf_response".to_string(), 0xA5A5),
        ];
        let inputs_bad = vec![
            ("key".to_string(), 0x1234u16),
            ("pt".to_string(), 0x0F0F),
            ("puf_response".to_string(), 0x0000),
        ];
        let golden = dfg.run(&inputs_ok[..2], 0);
        let activated = metered.dfg.run(&inputs_ok, 0);
        let unactivated = metered.dfg.run(&inputs_bad, 0);
        assert_eq!(golden[0].1, activated[0].1, "activation restores function");
        assert_ne!(golden[0].1, unactivated[0].1, "unactivated chips misbehave");
    }
}
