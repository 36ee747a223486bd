//! Parallel (multi-core) baseline execution — the paper's "MP"
//! configuration.
//!
//! MonetDB parallelises queries with the *Mitosis* and *Dataflow* optimizers
//! (§5.1): the input is horizontally partitioned, each partition is
//! processed by the sequential operator on its own core, and the partial
//! results are merged. This module holds no operators of its own: it holds
//! that pattern, on top of [`partition::run_partitions`] (scoped OS
//! threads), as one shape per kind of merge. Each shape runs a
//! [`crate::sequential`] operator over every slice:
//!
//! * row selection ([`select_rows`]) — each slice's OIDs shifted by its
//!   first row, the lists concatenated;
//! * candidate selection ([`select_candidates`]) — the lists concatenated;
//! * length-preserving output ([`collect_partitions`]) — one vector, each
//!   slice writing its own range;
//! * pair output ([`join_pairs`]) — the probe-side OIDs shifted, the pairs
//!   concatenated;
//! * reduction ([`reduce`]) — the partials folded in partition order,
//!   starting from the first.
//!
//! Two merges are algorithms of their own: [`par_group_by_columns`] merges
//! the slices' groups to the sequential ids, and [`sort_runs`] merges the
//! slices' sorted runs stably. At one thread every shape is one call of the
//! sequential operator over the whole input (given no rows, the selection
//! and pair shapes return empty lists without one).

pub mod aggregate;
pub mod group;
pub mod join;
pub mod partition;
pub mod project;
pub mod select;
pub mod sort;

pub use aggregate::*;
pub use group::*;
pub use join::*;
pub use partition::*;
pub use project::*;
pub use select::*;
pub use sort::*;
