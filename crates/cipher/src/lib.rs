//! # seceda-cipher
//!
//! Cryptographic workload substrate for the `seceda` toolkit.
//!
//! Side-channel, fault-injection and test experiments all need a concrete
//! victim. This crate provides two, in both software-model and gate-level
//! form:
//!
//! * [`Aes128`] — the full AES-128 block cipher (FIPS-197), the standard
//!   side-channel target, plus a gate-level generator of its registered
//!   first-round S-box slice, the CPA victim;
//! * [`ToyCipher`] — a 16-bit SPN ("PRESENT-like": 4-bit S-boxes and a
//!   bit permutation) small enough for exhaustive fault analysis, with a
//!   full-datapath netlist generator.
//!
//! # Example
//!
//! ```
//! use seceda_cipher::Aes128;
//!
//! let key = [0u8; 16];
//! let aes = Aes128::new(&key);
//! let ct = aes.encrypt_block(&[0u8; 16]);
//! assert_eq!(ct[0], 0x66); // AES-128(0,0) starts 66 e9 4b d4 ...
//! ```

mod aes;
mod netlist_gen;
mod toy;

pub use aes::{Aes128, AES_SBOX};
pub use netlist_gen::{sbox_first_round_registered, table_lookup};
pub use toy::{ToyCipher, TOY_PERM, TOY_ROUNDS, TOY_SBOX};
