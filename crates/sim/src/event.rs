//! Event-driven timing simulation with glitch reporting.
//!
//! The paper (Sec. III-E) stresses that *glitches* — transient signal
//! toggles within a clock cycle caused by unequal path delays — influence
//! information leakage and must be visible to pre-silicon power
//! verification. This module simulates a single input transition with
//! per-gate nominal delays and records every toggle event.

use crate::tape::{FanOut, Tape};
use seceda_netlist::{Netlist, NetlistError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A single signal toggle at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToggleEvent {
    /// Simulation time of the toggle (gate-delay units).
    pub time: f64,
    /// Index of the net that toggled.
    pub net: usize,
    /// The new value after the toggle.
    pub value: bool,
}

/// Summary of one input-transition simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct GlitchReport {
    /// All toggle events in time order.
    pub events: Vec<ToggleEvent>,
    /// Per-net toggle counts.
    pub toggles: Vec<usize>,
    /// Number of nets that toggled more than once (glitching nets).
    pub glitching_nets: usize,
    /// Total number of transient (superfluous) toggles.
    pub glitch_toggles: usize,
    /// Time of the last event (settling time).
    pub settle_time: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    net: usize,
    value: bool,
    seq: u64,
}

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap by time (then sequence for determinism)
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Event-driven delay simulator for combinational netlists.
#[derive(Debug, Clone)]
pub struct EventSim<'a> {
    nl: &'a Netlist,
    tape: Tape,
    fanout: FanOut,
    /// Per topo position: the gate's delay, by default its
    /// [`CellKind::tree_delay`](seceda_netlist::CellKind::tree_delay)
    /// at its fan-in.
    delay: Vec<f64>,
}

impl<'a> EventSim<'a> {
    /// Builds an event simulator.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] on cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let tape = Tape::new(nl)?;
        let delay = (0..tape.len())
            .map(|p| tape.op(p).tree_delay(tape.fan_in(p)))
            .collect();
        let fanout = FanOut::new(nl, &tape);
        Ok(EventSim {
            nl,
            tape,
            fanout,
            delay,
        })
    }

    /// Overrides the delay of one gate (used by path-delay fingerprinting
    /// to model Trojan-induced slowdowns and process variation). A DFF
    /// never schedules an event, so its delay is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn set_gate_delay(&mut self, gate: usize, delay: f64) {
        if let Some(p) = self.tape.pos_of(gate) {
            self.delay[p] = delay;
        }
    }

    /// Simulates the transition `from -> to` on the primary inputs and
    /// reports all toggle activity including glitches.
    ///
    /// The circuit starts settled at `from`; at time 0 the inputs switch
    /// to `to` simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or input widths mismatch.
    pub fn transition(&self, from: &[bool], to: &[bool]) -> GlitchReport {
        assert!(
            self.tape.num_dffs() == 0,
            "EventSim::transition requires combinational logic"
        );
        let mut sp = seceda_trace::span("sim.transition");
        sp.attr("gates", self.nl.num_gates());
        assert_eq!(to.len(), from.len(), "input width mismatch");
        let mut values = self.tape.eval(from, None, &[]);

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        // `projected` tracks the value each net will hold after all
        // currently scheduled events execute (transport-delay model).
        let mut projected = values.clone();
        for (k, &pi) in self.nl.inputs().iter().enumerate() {
            if values[pi.index()] != to[k] {
                projected[pi.index()] = to[k];
                heap.push(Event {
                    time: 0.0,
                    net: pi.index(),
                    value: to[k],
                    seq,
                });
                seq += 1;
            }
        }

        let mut events: Vec<ToggleEvent> = Vec::new();
        let mut toggles = vec![0usize; self.nl.num_nets()];
        let mut settle_time = 0.0f64;
        let mut guard = 0usize;
        let guard_limit = 64 * self.nl.num_gates().max(64);

        while let Some(ev) = heap.pop() {
            guard += 1;
            assert!(guard <= guard_limit, "event explosion (oscillation?)");
            if values[ev.net] == ev.value {
                continue; // superseded event
            }
            values[ev.net] = ev.value;
            events.push(ToggleEvent {
                time: ev.time,
                net: ev.net,
                value: ev.value,
            });
            toggles[ev.net] += 1;
            settle_time = settle_time.max(ev.time);
            for &p in self.fanout.readers(ev.net) {
                let p = p as usize;
                let new_out = self.tape.gate(p, &values);
                let out = self.tape.out(p);
                // schedule if this differs from the value the net is
                // already projected to settle at — this is what lets a
                // short pulse (glitch) schedule both its edges
                if new_out != projected[out] {
                    projected[out] = new_out;
                    heap.push(Event {
                        time: ev.time + self.delay[p],
                        net: out,
                        value: new_out,
                        seq,
                    });
                    seq += 1;
                }
            }
        }

        debug_assert_eq!(
            values,
            self.tape.eval(to, None, &[]),
            "event sim must settle to DC value"
        );
        seceda_trace::counter("sim.events_processed", events.len() as u64);
        sp.attr("events", events.len());
        sp.attr("settle_time", settle_time);
        let glitching_nets = toggles.iter().filter(|&&t| t > 1).count();
        // A functional transition needs at most 1 toggle per net; anything
        // beyond that is a glitch.
        let glitch_toggles: usize = toggles.iter().map(|&t| t.saturating_sub(1)).sum();
        GlitchReport {
            events,
            toggles,
            glitching_nets,
            glitch_toggles,
            settle_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seceda_netlist::{CellKind, Netlist};

    /// The classic glitch circuit: y = a & !a settles at 0 but pulses when
    /// `a` rises, because the inverter path is slower.
    fn glitcher() -> Netlist {
        let mut nl = Netlist::new("glitch");
        let a = nl.add_input("a");
        let na = nl.add_gate(CellKind::Not, &[a]);
        let y = nl.add_gate(CellKind::And, &[a, na]);
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn static_hazard_detected() {
        let nl = glitcher();
        let sim = EventSim::new(&nl).expect("sim");
        let report = sim.transition(&[false], &[true]);
        // y pulses 0 -> 1 -> 0: two toggles on one net
        let y_net = nl.outputs()[0].0.index();
        assert_eq!(report.toggles[y_net], 2, "events: {:?}", report.events);
        assert_eq!(report.glitching_nets, 1);
        assert!(report.glitch_toggles >= 1);
    }

    #[test]
    fn no_glitch_on_balanced_path() {
        let mut nl = Netlist::new("buf");
        let a = nl.add_input("a");
        let y = nl.add_gate(CellKind::Buf, &[a]);
        nl.mark_output(y, "y");
        let sim = EventSim::new(&nl).expect("sim");
        let report = sim.transition(&[false], &[true]);
        assert_eq!(report.glitching_nets, 0);
        assert_eq!(report.toggles[y.index()], 1);
    }

    #[test]
    fn no_transition_no_events() {
        let nl = glitcher();
        let sim = EventSim::new(&nl).expect("sim");
        let report = sim.transition(&[true], &[true]);
        assert!(report.events.is_empty());
    }

    #[test]
    fn delay_override_lengthens_settling() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let x = nl.add_gate(CellKind::Buf, &[a]);
        let y = nl.add_gate(CellKind::Buf, &[x]);
        nl.mark_output(y, "y");
        let mut sim = EventSim::new(&nl).expect("sim");
        let base = sim.transition(&[false], &[true]).settle_time;
        sim.set_gate_delay(0, 10.0);
        let slowed = sim.transition(&[false], &[true]).settle_time;
        assert!(slowed > base + 5.0);
    }
}
