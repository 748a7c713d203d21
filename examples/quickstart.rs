//! Quickstart: build a design, run the classical and the security-centric
//! EDA flow over it, and see what each one reports; then run the
//! classical flow of Fig. 1 over the toy-cipher datapath.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use seceda_cipher::ToyCipher;
use seceda_core::{run_classical_flow, run_secure_flow, FlowReport};
use seceda_netlist::{CellKind, Netlist};
use seceda_sca::mask_netlist;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A tiny sensitive datapath: one AND of two secret bits.
    let mut design = Netlist::new("and_gadget");
    let a = design.add_input("a");
    let b = design.add_input("b");
    let y = design.add_gate(CellKind::And, &[a, b]);
    design.mark_output(y, "y");
    println!("design `{}`: {} gates", design.name(), design.num_gates());

    // 2. Protect it with 3-share ISW masking (the countermeasure of the
    //    paper's Sec. II-B example). The gadget gates carry ordering
    //    barriers.
    let masked = mask_netlist(&design);
    println!(
        "masked: {} gates, {} fresh random bits per evaluation",
        masked.netlist.num_gates(),
        masked.num_randoms
    );

    // 3. Run the CLASSICAL flow of the paper's Fig. 1 over the masked
    //    netlist: it optimizes through the masking barriers.
    let classical = run_classical_flow(&masked.netlist)?;
    println!("\n=== classical flow (Fig. 1) ===");
    print_stages(&classical);

    // 4. Run the SECURITY-CENTRIC flow: same stages, but synthesis honors
    //    the barriers and every stage contributes a security check.
    let secure = run_secure_flow(&masked.netlist)?;
    println!("\n=== security-centric flow ===");
    print_stages(&secure);
    println!("\nsecurity metrics after the secure flow:");
    for metric in &secure.security.metrics {
        println!("  {metric}");
    }
    println!(
        "\nformal equivalence of secure-flow output: {}",
        secure.equivalence_checked
    );

    // 5. The punchline: count surviving masking barriers.
    let barriers = |nl: &Netlist| nl.gates().iter().filter(|g| g.tags.no_reassoc).count();
    println!(
        "\nmasking barrier gates: input {}, classical flow {}, secure flow {}",
        barriers(&masked.netlist),
        barriers(&classical.result),
        barriers(&secure.result),
    );
    println!("(the classical flow silently optimized the countermeasure away — Fig. 2)");

    // 6. Fig. 1 on a full datapath: the classical flow over the toy
    //    cipher, with the security work each stage omits.
    let cipher = run_classical_flow(&ToyCipher::netlist())?;
    println!("\n=== classical flow (Fig. 1) on the toy-cipher datapath ===");
    print_stages(&cipher);
    Ok(())
}

/// One line of PPA per flow stage, then the stage's security notes.
fn print_stages(flow: &FlowReport) {
    for stage in &flow.stages {
        println!(
            "  {:<38} {:>4} gates, area {:>6.1} GE, delay {:>5.1}",
            stage.stage, stage.gates, stage.area_ge, stage.delay
        );
        for note in &stage.security_notes {
            println!("      - {note}");
        }
    }
}
