//! # ocelot-storage — a MonetDB-like column-store substrate
//!
//! The paper integrates Ocelot into MonetDB and reuses its storage layer:
//! Binary Association Tables (BATs), a catalog, and four-byte column types
//! (§3.1, §3.3). This crate provides that substrate for the Rust
//! reproduction:
//!
//! * [`Bat`] — a single column with MonetDB-style descriptor flags
//!   (`sorted`, `key`, and the `ocelot_owned` flag the paper adds in §4.3)
//!   and the data-decided density of a key column ([`DenseKey`]),
//!   backed by 128-byte-aligned storage ([`alignment::AlignedVec`], matching
//!   the SSE-alignment change the paper made to MonetDB's allocator).
//! * [`ColumnType`] / [`Value`] — the supported four-byte data types:
//!   integers, reals, OIDs, dates (stored as day numbers) and
//!   dictionary-encoded strings.
//! * [`StringDictionary`] — equality-only string support via dictionary
//!   codes (the paper's Ocelot supports no string operation beyond equality,
//!   Appendix A).
//! * [`Catalog`] / [`Table`] — named collections of equally-long BATs.
//!
//! Both the hand-tuned baseline operators (`ocelot-monet`) and the
//! hardware-oblivious operators (`ocelot-core`) consume and produce BATs, so
//! results are directly comparable.

pub mod alignment;
pub mod bat;
pub mod catalog;
pub mod chunked;
pub mod dictionary;
pub mod types;

pub use alignment::AlignedVec;
pub use bat::{Bat, BatRef, BatSummary, ColumnData, DenseKey};
pub use catalog::{Catalog, Table};
pub use chunked::{ChunkData, ChunkSource, ChunkedColumn, ChunkedTable, RowGroup};
pub use dictionary::StringDictionary;
pub use types::{CmpOp, ColumnType, Oid, Value};
