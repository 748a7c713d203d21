//! Regenerates the paper's Table I and Table II with measured evidence.
//!
//! ```sh
//! cargo run --release --example tables
//! ```

fn main() {
    println!("{}", seceda_core::table1());
    println!();
    println!("{}", seceda_core::table2());
}
