//! Interned signal names.
//!
//! Real benchmark designs name every net; storing those names as
//! per-net `String`s costs a heap allocation and 24 bytes of inline
//! storage per signal. A [`SymbolTable`] interns each distinct name
//! once and hands out dense `u32` [`Symbol`]s, so a `Net` carries an
//! `Option<Symbol>` (8 bytes, no allocation) and name equality is an
//! integer compare.
//!
//! The table itself is three flat vectors: one `String` arena holding
//! every name back to back, the arena end offset of each symbol, and an
//! open-addressing index of symbols probed by a keyed hash of the name.
//! Interning allocates nothing per name, and copying the table (as a
//! netlist clone does when it adds a name) copies three buffers.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// An interned name: a dense index into the owning [`SymbolTable`].
///
/// Symbols are only meaningful relative to the table (and therefore the
/// [`crate::Netlist`]) that produced them; resolve them back to text
/// with [`SymbolTable::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the dense index of this symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `Symbol` from a dense index (for per-symbol side tables).
    pub fn from_index(index: usize) -> Self {
        Symbol(u32::try_from(index).expect("symbol index overflow"))
    }
}

/// An index slot holding no symbol.
const EMPTY: u32 = u32::MAX;

/// The index starts at this many slots on the first intern.
const MIN_SLOTS: usize = 16;

/// A deduplicating string interner.
///
/// `intern` is amortized O(1) and hashes its name once; `resolve` is
/// two array reads. The table never forgets a string, so symbols stay
/// valid for the lifetime of the owning netlist, and they are handed
/// out densely in first-sight order.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Every interned name, back to back, in symbol order.
    arena: String,
    /// `ends[s]` is the arena offset one past the last byte of symbol
    /// `s`; symbol `s` starts where symbol `s - 1` ends.
    ends: Vec<u32>,
    /// Open-addressing hash index with linear probing: each slot holds
    /// a symbol or [`EMPTY`]. Its length is zero or a power of two, and
    /// at most half of it is full.
    index: Vec<u32>,
}

/// Hashes a name for the index: a folded multiply (the two halves of a
/// 128-bit product, XORed) per 16 bytes, keyed by a seed drawn once per
/// process. Symbols and their order never depend on the hash, only the
/// index slots do; with the seed unknown, a netlist's author cannot
/// pick names that all probe one run of slots.
fn hash(name: &str) -> u64 {
    static SEED: OnceLock<[u64; 2]> = OnceLock::new();
    let [s0, s1] = *SEED.get_or_init(|| {
        let keys = RandomState::new();
        [keys.hash_one(0u8), keys.hash_one(1u8)]
    });
    let fold = |x: u64, y: u64| {
        let p = u128::from(x) * u128::from(y);
        p as u64 ^ (p >> 64) as u64
    };
    let word = |b: &[u8]| match b.len() {
        8 => u64::from_le_bytes(b.try_into().expect("8 bytes")),
        _ => u64::from(u32::from_le_bytes(b.try_into().expect("4 bytes"))),
    };
    let bytes = name.as_bytes();
    let mut h = s0 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        h = fold(word(&c[..8]) ^ h, word(&c[8..]) ^ s1);
    }
    // the tail as two words, by overlapping reads (or first, middle and
    // last byte): for a fixed length, which `h` carries, every byte is read
    let t = chunks.remainder();
    let n = t.len();
    let (lo, hi) = match n {
        8.. => (word(&t[..8]), word(&t[n - 8..])),
        4.. => (word(&t[..4]), word(&t[n - 4..])),
        1.. => (
            u64::from(t[0]) | u64::from(t[n / 2]) << 8 | u64::from(t[n - 1]) << 16,
            0,
        ),
        0 => (0, 0),
    };
    fold(lo ^ h, hi ^ s1)
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `names` names before its index or
    /// offsets grow (parsers know the design size up front).
    pub(crate) fn with_capacity(names: usize) -> Self {
        let mut table = SymbolTable::default();
        if names > 0 {
            table.ends.reserve(names);
            table.index = vec![EMPTY; (2 * names).next_power_of_two().max(MIN_SLOTS)];
        }
        table
    }

    /// Interns `name`, returning the existing symbol if the exact string
    /// was interned before.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let h = hash(name);
        match self.find(name, h) {
            Ok(sym) => sym,
            Err(slot) => self.insert(name, slot),
        }
    }

    /// Interns `name` into a table shared by netlist clones: one hash,
    /// and the shared table is copied (`Arc::make_mut`) only when the
    /// name is new to it.
    pub(crate) fn intern_shared(table: &mut Arc<SymbolTable>, name: &str) -> Symbol {
        let h = hash(name);
        match table.find(name, h) {
            Ok(sym) => sym,
            // the copy's index is slot-for-slot the original's
            Err(slot) => Arc::make_mut(table).insert(name, slot),
        }
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different table and is out of range.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.arena[self.span(sym)]
    }

    /// The arena byte range of `sym`.
    fn span(&self, sym: Symbol) -> std::ops::Range<usize> {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Looks up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.find(name, hash(name)).ok()
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The home slot of hash `h`: its top bits, so every bit of the
    /// final multiply reaches the index.
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Probes for `name` (whose hash is `h`): its symbol, or the empty
    /// slot where it would go.
    fn find(&self, name: &str, h: u64) -> Result<Symbol, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = self.home(h);
        loop {
            match self.index[slot] {
                EMPTY => return Err(slot),
                s if self.arena.as_bytes()[self.span(Symbol(s))] == *name.as_bytes() => {
                    return Ok(Symbol(s))
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Appends `name` as a new symbol; `slot` is the empty slot that
    /// [`SymbolTable::find`] returned for it.
    fn insert(&mut self, name: &str, slot: usize) -> Symbol {
        let sym = Symbol::from_index(self.ends.len());
        assert!(sym.0 != EMPTY, "symbol index overflow");
        self.arena.push_str(name);
        self.ends
            .push(u32::try_from(self.arena.len()).expect("symbol arena overflow"));
        if 2 * self.ends.len() > self.index.len() {
            self.grow();
        } else {
            self.index[slot] = sym.0;
        }
        sym
    }

    /// Doubles the index (or creates it) and re-slots every symbol.
    fn grow(&mut self) {
        let slots = (2 * self.index.len()).max(MIN_SLOTS);
        self.index.clear();
        self.index.resize(slots, EMPTY);
        let mask = slots - 1;
        for s in 0..self.ends.len() {
            let sym = Symbol::from_index(s);
            let mut slot = self.home(hash(self.resolve(sym)));
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = sym.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("x"), None);
        let x = t.intern("x");
        assert_eq!(t.lookup("x"), Some(x));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn symbols_are_dense() {
        let mut t = SymbolTable::new();
        for i in 0..100 {
            let s = t.intern(&format!("n{i}"));
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn empty_name_and_zero_bytes_are_distinct() {
        let mut t = SymbolTable::new();
        let e = t.intern("");
        let z = t.intern("\0");
        let zz = t.intern("\0\0\0\0\0\0\0\0\0");
        assert_eq!((e.index(), z.index(), zz.index()), (0, 1, 2));
        assert_eq!(t.resolve(e), "");
        assert_eq!(t.lookup(""), Some(e));
        assert_eq!(t.resolve(zz).len(), 9);
    }

    #[test]
    fn shared_intern_copies_only_on_a_miss() {
        let mut a = Arc::new(SymbolTable::new());
        let x = SymbolTable::intern_shared(&mut a, "x");
        let mut b = Arc::clone(&a);
        assert_eq!(SymbolTable::intern_shared(&mut b, "x"), x);
        assert!(Arc::ptr_eq(&a, &b), "a hit must not copy the table");
        let y = SymbolTable::intern_shared(&mut b, "y");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((a.len(), b.len()), (1, 2));
        assert_eq!(b.resolve(y), "y");
        assert_eq!(a.lookup("y"), None);
    }
}
