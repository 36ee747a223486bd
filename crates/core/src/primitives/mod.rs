//! Data-parallel primitives the Ocelot operators are composed of.
//!
//! Every primitive is itself written against the kernel programming model,
//! so the operator layer never contains device-specific code:
//!
//! * [`prefix_sum`] — exclusive scans (the building block of every
//!   "unknown result size" operator, paper §4.1.2/§4.1.5),
//! * [`gather`] — the parallel gather used by projections (paper §4.1.2),
//! * [`reduce`] — hierarchical reductions for ungrouped aggregation
//!   (paper §4.1.7),
//! * [`bitmap`] — the bitmap representation of selection results and its
//!   popcount (paper §4.1.1),
//! * `histogram` — work-group digit count tables, the counting half of the
//!   radix sort's passes and of radix partitioning (paper §4.1.3).

pub mod bitmap;
pub mod gather;
pub(crate) mod histogram;
pub mod prefix_sum;
pub mod reduce;
