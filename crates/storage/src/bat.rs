//! Binary Association Tables (BATs).
//!
//! MonetDB stores every column as a BAT: a two-column table whose *head*
//! holds (virtual, dense) OIDs and whose *tail* holds the values. This
//! reproduction models the common case the paper relies on — dense heads —
//! so a [`Bat`] is simply a typed value array plus descriptor flags:
//!
//! * `sorted` — tail values are non-decreasing (lets the group-by operator
//!   take its sorted fast path, §4.1.6),
//! * `key`    — tail values are unique (lets joins skip the counting pass,
//!   §4.1.5),
//! * `summary` — min/max and a sampled distinct count of the tail, computed
//!   on first request and kept with the (immutable) BAT, so query
//!   compilation scans a column for them once, not once per compile,
//! * `dense_base` — whether the tail is `base, base + 1, …` (MonetDB's
//!   dense "void" column: value `v` *is* row `v − base`), decided from the
//!   data on first request and kept like the summary — a property of the
//!   values, never a hint,
//! * `ocelot_owned` — the flag the paper added to MonetDB's BAT descriptor
//!   (§4.3): while set, the BAT's contents live in a device buffer managed
//!   by Ocelot's Memory Manager and MonetDB must not touch it until an
//!   explicit `sync` hands ownership back.

use crate::alignment::AlignedVec;
use crate::types::{ColumnType, Oid, Value};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared handle to a BAT.
pub type BatRef = Arc<Bat>;

/// Typed tail storage of a BAT.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 32-bit integers (also dates and dictionary codes).
    Int(AlignedVec<i32>),
    /// 32-bit floats.
    Real(AlignedVec<f32>),
    /// Tuple identifiers.
    Oid(AlignedVec<Oid>),
}

impl ColumnData {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Real(v) => v.len(),
            ColumnData::Oid(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Summary statistics of a BAT's tail (see [`Bat::summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatSummary {
    /// Smallest tail value (as `f64`, covering integer and real columns;
    /// OID columns report their dense bounds).
    pub min: f64,
    /// Largest tail value.
    pub max: f64,
    /// Estimated number of distinct values, from a stride sample.
    pub ndv: usize,
}

/// The shape of a dense key column ([`Bat::dense_base`]): its `rows` rows
/// hold `base, base + 1, …`, so key `v` names row `v − base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DenseKey {
    /// The value of row 0.
    pub base: i32,
    /// The column's row count.
    pub rows: usize,
}

impl DenseKey {
    /// The row key `value` names, if it lies in `base .. base + rows`.
    #[inline]
    pub fn row(self, value: i32) -> Option<usize> {
        let offset = (value as u32).wrapping_sub(self.base as u32) as usize;
        (offset < self.rows).then_some(offset)
    }
}

/// A single column (BAT) with MonetDB-style descriptor flags.
#[derive(Debug)]
pub struct Bat {
    name: String,
    ty: ColumnType,
    data: ColumnData,
    sorted: bool,
    key: bool,
    summary: OnceLock<BatSummary>,
    dense_base: OnceLock<Option<i32>>,
    ocelot_owned: AtomicBool,
}

impl Bat {
    /// Creates an integer-typed BAT.
    pub fn from_i32(name: &str, values: Vec<i32>) -> Bat {
        Bat::from_i32_typed(name, values, ColumnType::Int)
    }

    /// Creates an integer-word BAT with an explicit logical type (`Int`,
    /// `Date` or `StrCode`).
    pub fn from_i32_typed(name: &str, values: Vec<i32>, ty: ColumnType) -> Bat {
        assert!(
            ty.is_integer_like() && ty != ColumnType::Oid,
            "from_i32_typed requires an integer-word logical type"
        );
        Bat {
            name: name.to_string(),
            ty,
            data: ColumnData::Int(AlignedVec::from_slice(&values)),
            sorted: false,
            key: false,
            summary: OnceLock::new(),
            dense_base: OnceLock::new(),
            ocelot_owned: AtomicBool::new(false),
        }
    }

    /// Creates a float-typed BAT.
    pub fn from_f32(name: &str, values: Vec<f32>) -> Bat {
        Bat {
            name: name.to_string(),
            ty: ColumnType::Real,
            data: ColumnData::Real(AlignedVec::from_slice(&values)),
            sorted: false,
            key: false,
            summary: OnceLock::new(),
            dense_base: OnceLock::new(),
            ocelot_owned: AtomicBool::new(false),
        }
    }

    /// Creates an OID-typed BAT (e.g. a selection result or join index).
    pub fn from_oids(name: &str, values: Vec<Oid>) -> Bat {
        Bat {
            name: name.to_string(),
            ty: ColumnType::Oid,
            data: ColumnData::Oid(AlignedVec::from_slice(&values)),
            sorted: false,
            key: false,
            summary: OnceLock::new(),
            dense_base: OnceLock::new(),
            ocelot_owned: AtomicBool::new(false),
        }
    }

    /// Marks the BAT as sorted (non-decreasing tail). Consumed by the
    /// group-by operator's sorted fast path.
    pub fn with_sorted(mut self, sorted: bool) -> Bat {
        self.sorted = sorted;
        self
    }

    /// Marks the BAT as a key column (unique tail values). Consumed by the
    /// join operators to skip the result-counting pass.
    pub fn with_key(mut self, key: bool) -> Bat {
        self.key = key;
        self
    }

    /// Wraps the BAT in the shared handle used across the engine.
    pub fn into_ref(self) -> BatRef {
        Arc::new(self)
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical column type.
    pub fn column_type(&self) -> ColumnType {
        self.ty
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the BAT holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the tail is known to be sorted.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Whether the tail is known to hold unique values.
    pub fn is_key(&self) -> bool {
        self.key
    }

    /// Min/max and sampled distinct count of the tail. The tail never
    /// changes, so the scan happens on the first call only.
    pub fn summary(&self) -> BatSummary {
        *self.summary.get_or_init(|| self.compute_summary())
    }

    /// Whether [`Bat::summary`] has been computed (observability for tests
    /// asserting that a warm compile scans nothing).
    pub fn has_summary(&self) -> bool {
        self.summary.get().is_some()
    }

    /// `Some(base)` when the tail is `base, base + 1, …, base + len − 1`
    /// with no `i32` overflow: the column is dense, and value `v` is row
    /// `v − base`. Only an integer-word tail can be dense (never a float or
    /// an OID column), and an empty one is not. Decided from the data by
    /// one scan — stopping at the first value out of step — on the first
    /// call only; the tail never changes.
    pub fn dense_base(&self) -> Option<i32> {
        *self.dense_base.get_or_init(|| {
            let values = self.as_i32()?;
            let base = *values.first()?;
            let last = base.checked_add(i32::try_from(values.len() - 1).ok()?)?;
            values.iter().copied().eq(base..=last).then_some(base)
        })
    }

    /// Whether [`Bat::dense_base`] has been decided (observability for tests
    /// asserting that a warm compile scans nothing).
    pub fn has_dense_base(&self) -> bool {
        self.dense_base.get().is_some()
    }

    fn compute_summary(&self) -> BatSummary {
        fn bounds<T: Copy + Into<f64>>(values: &[T]) -> (f64, f64) {
            values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| {
                let v: f64 = (*v).into();
                (lo.min(v), hi.max(v))
            })
        }
        let rows = self.len();
        let (min, max) = match &self.data {
            ColumnData::Int(v) => bounds(v.as_slice()),
            ColumnData::Real(v) => bounds(v.as_slice()),
            ColumnData::Oid(_) => (0.0, rows.saturating_sub(1) as f64),
        };
        // Sampled distinct count: a stride sample of ≤ 4096 words. If nearly
        // every sampled value is distinct, assume the column is key-like and
        // scale to the row count; otherwise the sample's distinct count is
        // the (low-cardinality) estimate.
        let stride = (rows / 4096).max(1);
        let sample: Vec<u32> = (0..rows).step_by(stride).map(|idx| self.word_at(idx)).collect();
        let distinct = sample.iter().collect::<HashSet<_>>().len().max(1);
        let ndv = if distinct * 10 >= sample.len() * 9 { rows.max(1) } else { distinct };
        BatSummary { min, max, ndv }
    }

    /// The tail storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Integer view of the tail, if this is an integer-word column.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match &self.data {
            ColumnData::Int(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Float view of the tail, if this is a real column.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match &self.data {
            ColumnData::Real(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// OID view of the tail, if this is an OID column.
    pub fn as_oid(&self) -> Option<&[Oid]> {
        match &self.data {
            ColumnData::Oid(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The value at position `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn value_at(&self, idx: usize) -> Value {
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[idx]),
            ColumnData::Real(v) => Value::Real(v[idx]),
            ColumnData::Oid(v) => Value::Oid(v[idx]),
        }
    }

    /// Raw 32-bit word at position `idx` (bit pattern, regardless of type).
    pub fn word_at(&self, idx: usize) -> u32 {
        match &self.data {
            ColumnData::Int(v) => v[idx] as u32,
            ColumnData::Real(v) => v[idx].to_bits(),
            ColumnData::Oid(v) => v[idx],
        }
    }

    /// The whole tail as raw 32-bit words (used when uploading to a device
    /// buffer).
    pub fn to_words(&self) -> Vec<u32> {
        (0..self.len()).map(|i| self.word_at(i)).collect()
    }

    /// Whether the BAT is currently owned by Ocelot (paper §3.4 / §4.3).
    pub fn is_ocelot_owned(&self) -> bool {
        self.ocelot_owned.load(Ordering::Acquire)
    }

    /// Transfers ownership to Ocelot.
    pub fn set_ocelot_owned(&self, owned: bool) {
        self.ocelot_owned.store(owned, Ordering::Release);
    }
}

impl Clone for Bat {
    fn clone(&self) -> Self {
        Bat {
            name: self.name.clone(),
            ty: self.ty,
            data: self.data.clone(),
            sorted: self.sorted,
            key: self.key,
            summary: self.summary.clone(),
            dense_base: self.dense_base.clone(),
            ocelot_owned: AtomicBool::new(self.is_ocelot_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_constructors_and_views() {
        let ints = Bat::from_i32("a", vec![3, 1, 2]);
        assert_eq!(ints.column_type(), ColumnType::Int);
        assert_eq!(ints.as_i32(), Some(&[3, 1, 2][..]));
        assert!(ints.as_f32().is_none());
        assert_eq!(ints.len(), 3);

        let reals = Bat::from_f32("b", vec![1.5, 2.5]);
        assert_eq!(reals.column_type(), ColumnType::Real);
        assert_eq!(reals.as_f32(), Some(&[1.5, 2.5][..]));

        let oids = Bat::from_oids("c", vec![0, 1, 2, 3]);
        assert_eq!(oids.column_type(), ColumnType::Oid);
        assert_eq!(oids.as_oid(), Some(&[0, 1, 2, 3][..]));
    }

    #[test]
    fn values_and_words() {
        let bat = Bat::from_f32("x", vec![1.0, -2.0]);
        assert_eq!(bat.value_at(0), Value::Real(1.0));
        assert_eq!(bat.word_at(1), (-2.0f32).to_bits());
        assert_eq!(bat.to_words().len(), 2);

        let ints = Bat::from_i32("y", vec![-1]);
        assert_eq!(ints.word_at(0), (-1i32) as u32);
        assert_eq!(ints.value_at(0), Value::Int(-1));
    }

    #[test]
    fn descriptor_flags() {
        let bat = Bat::from_i32("a", vec![1, 2, 3]).with_sorted(true).with_key(true);
        assert!(bat.is_sorted());
        assert!(bat.is_key());
        assert!(!bat.is_ocelot_owned());
        bat.set_ocelot_owned(true);
        assert!(bat.is_ocelot_owned());
        bat.set_ocelot_owned(false);
        assert!(!bat.is_ocelot_owned());
    }

    #[test]
    fn date_and_strcode_logical_types() {
        let dates = Bat::from_i32_typed("d", vec![100, 200], ColumnType::Date);
        assert_eq!(dates.column_type(), ColumnType::Date);
        let codes = Bat::from_i32_typed("s", vec![0, 1, 0], ColumnType::StrCode);
        assert_eq!(codes.column_type(), ColumnType::StrCode);
    }

    #[test]
    #[should_panic(expected = "integer-word logical type")]
    fn real_logical_type_rejected_for_i32_storage() {
        Bat::from_i32_typed("bad", vec![1], ColumnType::Real);
    }

    #[test]
    fn clone_preserves_flags() {
        let bat = Bat::from_i32("a", vec![1]).with_sorted(true);
        bat.set_ocelot_owned(true);
        let copy = bat.clone();
        assert!(copy.is_sorted());
        assert!(copy.is_ocelot_owned());
        assert_eq!(copy.as_i32(), Some(&[1][..]));
    }

    #[test]
    fn summary_is_computed_once_and_covers_every_type() {
        let ints = Bat::from_i32("a", (0..10_000).map(|i| (i % 7) - 3).collect());
        assert!(!ints.has_summary());
        assert_eq!(ints.summary(), BatSummary { min: -3.0, max: 3.0, ndv: 7 });
        assert!(ints.has_summary() && ints.clone().has_summary());
        let keys = Bat::from_i32("k", (0..10_000).collect());
        assert_eq!(keys.summary().ndv, 10_000, "key-like samples scale to the row count");
        let reals = Bat::from_f32("r", vec![2.5, -1.0, 9.0]);
        assert_eq!((reals.summary().min, reals.summary().max), (-1.0, 9.0));
        let oids = Bat::from_oids("o", vec![5, 5, 5]);
        assert_eq!((oids.summary().min, oids.summary().max), (0.0, 2.0));
        assert_eq!(Bat::from_i32("e", vec![]).summary().ndv, 1);
    }

    #[test]
    fn empty_bat() {
        let bat = Bat::from_i32("empty", vec![]);
        assert!(bat.is_empty());
        assert_eq!(bat.to_words(), Vec::<u32>::new());
    }
}
