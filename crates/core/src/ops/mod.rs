//! The hardware-oblivious operator set (paper §4.1).
//!
//! Each module is the Rust analogue of one Ocelot operator family. All
//! operator host-code is written exclusively against [`crate::OcelotContext`]
//! and the kernel programming model — none of it inspects the device kind.

pub mod aggregate;
pub mod calc;
pub mod groupby;
pub mod hash_table;
pub mod join;
pub mod rowexpr;
pub mod select;
pub mod sort_radix;
