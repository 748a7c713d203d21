//! Differential properties of the interned name table against a
//! `HashMap<String, usize>` oracle.
//!
//! Random interleavings of `intern`, `lookup` and clone-then-intern run
//! over a name pool that holds the empty name, long names, non-ASCII
//! names and names that are prefixes of one another, with enough
//! distinct names to grow the table's index several times.

use seceda_netlist::{Netlist, Symbol, SymbolTable};
use seceda_testkit::prelude::*;
use seceda_testkit::prop::TestCaseError;
use std::collections::HashMap;

/// Name `k` of the pool: `k = 0` is the empty name; the rest are short
/// numbered names (`s1`, `s12`, `s123` share prefixes), long names, and
/// names with multi-byte characters.
fn name(k: usize) -> String {
    match k % 4 {
        _ if k == 0 => String::new(),
        0 | 1 => format!("s{}", k / 2),
        2 => format!("{}{k}", "long_name_".repeat(1 + k % 13)),
        _ => format!("é{k}\u{2003}"),
    }
}

/// Every symbol of `table` resolves to the oracle's name, and every
/// oracle name looks up to its symbol.
fn agrees(table: &SymbolTable, oracle: &HashMap<String, usize>) -> Result<(), TestCaseError> {
    if table.len() != oracle.len() || table.is_empty() != oracle.is_empty() {
        return Err(TestCaseError::Fail(format!(
            "{} symbols, oracle {}",
            table.len(),
            oracle.len()
        )));
    }
    for (text, &id) in oracle {
        if table.resolve(Symbol::from_index(id)) != text {
            return Err(TestCaseError::Fail(format!("symbol {id} resolves wrong")));
        }
        if table.lookup(text) != Some(Symbol::from_index(id)) {
            return Err(TestCaseError::Fail(format!("`{text}` looks up wrong")));
        }
    }
    Ok(())
}

/// Interns `text` into `table` and `oracle`, checking the id: the
/// existing one, or the next dense one on first sight.
fn intern_both(
    table: &mut SymbolTable,
    oracle: &mut HashMap<String, usize>,
    text: &str,
) -> Result<(), TestCaseError> {
    let next = oracle.len();
    let want = *oracle.entry(text.to_string()).or_insert(next);
    let got = table.intern(text).index();
    if got == want {
        Ok(())
    } else {
        Err(TestCaseError::Fail(format!(
            "`{text}` interned as {got}, oracle {want}"
        )))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn table_matches_hashmap_oracle(
        ops in collection::vec((0u8..8, 0usize..1500), 200..2500),
    ) {
        let mut table = SymbolTable::new();
        let mut oracle: HashMap<String, usize> = HashMap::new();
        for &(op, k) in &ops {
            let text = name(k);
            match op {
                // lookup never interns
                0 | 1 => {
                    let got = table.lookup(&text).map(Symbol::index);
                    prop_assert_eq!(got, oracle.get(&text).copied(), "lookup `{}`", text);
                    prop_assert_eq!(table.len(), oracle.len());
                }
                // interning on a clone leaves the original unchanged
                2 => {
                    let mut copy = table.clone();
                    let mut copy_oracle = oracle.clone();
                    intern_both(&mut copy, &mut copy_oracle, &text)?;
                    agrees(&table, &oracle)?;
                    agrees(&copy, &copy_oracle)?;
                }
                // carry on with a clone that gained the name
                3 => {
                    let mut copy = table.clone();
                    intern_both(&mut copy, &mut oracle, &text)?;
                    table = copy;
                }
                _ => intern_both(&mut table, &mut oracle, &text)?,
            }
        }
        agrees(&table, &oracle)?;
    }
}

#[test]
fn netlist_clones_share_names_until_one_adds_a_name() {
    let mut nl = Netlist::new("shared");
    let names: Vec<String> = (0..600).map(name).collect();
    let syms: Vec<Symbol> = names.iter().map(|n| nl.intern(n)).collect();
    let mut copy = nl.clone();
    // known names intern to the same symbols in the clone
    for (n, &s) in names.iter().zip(&syms) {
        assert_eq!(copy.intern(n), s);
    }
    let distinct = nl.symbols().len();
    let fresh = copy.intern("only_in_the_copy");
    assert_eq!(fresh.index(), distinct);
    assert_eq!(nl.symbols().lookup("only_in_the_copy"), None);
    assert_eq!(nl.symbols().len(), distinct);
    for (n, &s) in names.iter().zip(&syms) {
        assert_eq!(nl.symbols().resolve(s), n);
        assert_eq!(copy.symbols().resolve(s), n);
    }
}
