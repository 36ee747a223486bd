//! # ocelot-monet — hand-tuned baseline operators (MS and MP)
//!
//! The paper evaluates Ocelot against MonetDB in two configurations
//! (§5.1): *sequential MonetDB* (MS), which runs the operators on a single
//! CPU core, and *parallel MonetDB* (MP), which uses the Mitosis/Dataflow
//! optimizers to partition the input across all cores. This crate
//! re-implements that baseline operator set in Rust:
//!
//! * [`sequential`] — single-threaded, hand-tuned operators (selection,
//!   fetch join / projection, arithmetic maps, aggregation, grouping, hash
//!   join, sorting) written directly against column slices.
//! * [`parallel`] — the MP analogue, which is no second operator set but
//!   the mitosis pattern: partition the input into per-core slices, run the
//!   sequential operator on every slice, merge the partial results. There
//!   is one shape per kind of merge (row selection, candidate selection,
//!   length-preserving output, pair output, reduction) and two merges that
//!   are algorithms (grouping, the stable sorted-runs merge). At one thread
//!   each shape is one call of the sequential operator, so MS is MP at one
//!   thread.
//! * [`hash_table`] — the bucket-chained hash table MonetDB-style joins are
//!   built on.
//!
//! **One grouping.** [`sequential::group_by_columns`] groups any number of
//! key columns in one pass: each row's key tuple becomes a mixed-radix code
//! over the columns' observed ranges, looked up in a table indexed by the
//! code when the code space is no larger than the row count, and in an
//! open-addressed table otherwise (over the codes, or over the key tuples
//! when the code space overflows `u64`). Ids follow first appearance and
//! representatives are first rows. [`parallel::par_group_by_columns`] runs
//! the same pass per slice and merges the slices' groups with it again, so
//! its ids are the sequential ones.
//!
//! **Predicated compaction.** Every operator that keeps some of its rows —
//! the selections and the join probes — keeps them without a branch on the
//! data: each candidate is written at the output cursor and the cursor
//! advances by the predicate, so it runs at the same speed at any
//! selectivity. Selections and hash probes allocate room for every row
//! scanned; positional probes count first and allocate exactly.
//!
//! These operators are deliberately *hardware-conscious*: they know they run
//! on a CPU, they use per-thread private state and merge steps instead of
//! atomics, and the sequential variants avoid all synchronisation. That is
//! exactly the comparison point the paper argues a hardware-oblivious design
//! must hold its own against.

pub mod hash_table;
pub mod parallel;
pub mod sequential;
mod slots;

pub use hash_table::MonetHashTable;
