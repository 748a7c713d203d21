//! Per-net leakage identification — "identification of leaking gates"
//! (Table II, logic-synthesis × SCA).

use crate::cpa::pearson;
use seceda_netlist::{NetId, Netlist, NetlistError};
use seceda_sim::CycleSim;
use seceda_testkit::rng::{Rng, SeedableRng, StdRng};

/// A net whose value correlates with a secret.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakingNet {
    /// The offending net.
    pub net: NetId,
    /// |Pearson correlation| between net value and the secret bit.
    pub correlation: f64,
}

/// Finds nets correlated with a designated secret input bit.
///
/// Runs `trials` random-stimulus simulations and computes, per net, the
/// correlation between the net value and the value of
/// `inputs[secret_input]`. Nets above `threshold` are reported, sorted by
/// descending correlation. For a perfectly masked circuit the list is
/// empty (up to sampling noise); for the circuit broken by classical
/// synthesis the materialized secret wire tops the list with
/// correlation ≈ 1.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `secret_input` is out of range or `trials < 2`.
pub fn leaking_nets(
    nl: &Netlist,
    secret_input: usize,
    trials: usize,
    threshold: f64,
    seed: u64,
) -> Result<Vec<LeakingNet>, NetlistError> {
    assert!(
        secret_input < nl.inputs().len(),
        "secret input out of range"
    );
    assert!(trials >= 2, "need at least two trials");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = CycleSim::new(nl)?;
    let mut secret_col = Vec::with_capacity(trials);
    let mut net_cols: Vec<Vec<f64>> = vec![Vec::with_capacity(trials); nl.num_nets()];
    for _ in 0..trials {
        let inputs: Vec<bool> = (0..nl.inputs().len()).map(|_| rng.gen()).collect();
        secret_col.push(inputs[secret_input] as u8 as f64);
        let values = sim.step_nets(&inputs)?;
        for (n, &v) in values.iter().enumerate() {
            net_cols[n].push(v as u8 as f64);
        }
    }
    let mut leaks: Vec<LeakingNet> = net_cols
        .iter()
        .enumerate()
        .map(|(n, col)| LeakingNet {
            net: NetId::from_index(n),
            correlation: pearson(&secret_col, col).abs(),
        })
        .filter(|l| l.correlation > threshold)
        .collect();
    leaks.sort_by(|a, b| {
        b.correlation
            .partial_cmp(&a.correlation)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(leaks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::CellKind;

    #[test]
    fn direct_wire_leaks_perfectly() {
        let mut nl = Netlist::new("w");
        let s = nl.add_input("secret");
        let o = nl.add_input("other");
        let y = nl.add_gate(CellKind::Buf, &[s]);
        let z = nl.add_gate(CellKind::Xor, &[s, o]); // masked by `other`
        nl.mark_output(y, "y");
        nl.mark_output(z, "z");
        let leaks = leaking_nets(&nl, 0, 400, 0.5, 3).expect("analysis");
        // the secret input itself and the buffer output leak
        assert!(leaks.iter().any(|l| l.net == y));
        assert!(leaks.iter().all(|l| l.net != z), "XOR-masked wire is clean");
        assert!(leaks[0].correlation > 0.99);
    }

    #[test]
    fn masked_gadget_has_no_leaking_nets() {
        use crate::isw::mask_netlist;
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(CellKind::And, &[a, b]);
        nl.mark_output(y, "y");
        let masked = mask_netlist(&nl);
        // correlate against share 0 of input a — a share alone tells
        // nothing, and no internal net may correlate with it strongly
        // ... but shares *do* flow through the gadget, so instead check
        // correlation against a *reconstructed secret* is impossible
        // here; we simply confirm the analysis runs and the output
        // shares do not individually expose the AND of the secrets.
        let leaks = leaking_nets(&masked.netlist, 0, 400, 0.9, 4).expect("analysis");
        // only nets trivially wired to the probed share may exceed 0.9
        for l in &leaks {
            let driver_ok = masked.netlist.net(l.net).driver.is_none()
                || masked
                    .netlist
                    .gate(masked.netlist.net(l.net).driver.expect("driver"))
                    .inputs
                    .len()
                    <= 1;
            assert!(driver_ok, "unexpected strong correlation at {:?}", l.net);
        }
    }
}
