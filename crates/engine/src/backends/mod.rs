//! The paper's four evaluated configurations behind the [`crate::Backend`]
//! trait, as two backends: [`MonetBackend`] is the MonetDB baseline — MS at
//! one thread, MP at the machine's parallelism — and [`OcelotBackend`] runs
//! the hardware-oblivious operators on any Ocelot device.

pub mod monet;
pub mod ocelot;

pub use monet::MonetBackend;
pub use ocelot::OcelotBackend;

use ocelot_storage::{BatRef, ColumnData, Oid};
use std::sync::Arc;

/// Host-side column representation of the MonetDB baseline: a typed, reference-counted vector for intermediates, or a
/// view of the catalog's BAT for base columns — binding copies nothing, as
/// in MonetDB.
#[derive(Debug, Clone)]
pub enum HostColumn {
    /// 32-bit integers (also dates and dictionary codes).
    I32(Arc<Vec<i32>>),
    /// 32-bit floats.
    F32(Arc<Vec<f32>>),
    /// Tuple identifiers.
    Oid(Arc<Vec<Oid>>),
    /// A base column, viewed in place.
    Bat(BatRef),
}

/// The values of a [`HostColumn`], whichever storage backs them.
#[derive(Debug, Clone, Copy)]
pub enum HostView<'a> {
    /// 32-bit integers.
    I32(&'a [i32]),
    /// 32-bit floats.
    F32(&'a [f32]),
    /// Tuple identifiers.
    Oid(&'a [Oid]),
}

impl HostColumn {
    /// The typed values.
    pub fn view(&self) -> HostView<'_> {
        match self {
            HostColumn::I32(v) => HostView::I32(v),
            HostColumn::F32(v) => HostView::F32(v),
            HostColumn::Oid(v) => HostView::Oid(v),
            HostColumn::Bat(bat) => match bat.data() {
                ColumnData::Int(v) => HostView::I32(v.as_slice()),
                ColumnData::Real(v) => HostView::F32(v.as_slice()),
                ColumnData::Oid(v) => HostView::Oid(v.as_slice()),
            },
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self.view() {
            HostView::I32(v) => v.len(),
            HostView::F32(v) => v.len(),
            HostView::Oid(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Integer view (panics if this is not an integer column).
    pub fn as_i32(&self) -> &[i32] {
        match self.view() {
            HostView::I32(v) => v,
            other => panic!("expected an i32 column, found {other:?}"),
        }
    }

    /// Float view (panics if this is not a float column).
    pub fn as_f32(&self) -> &[f32] {
        match self.view() {
            HostView::F32(v) => v,
            other => panic!("expected an f32 column, found {other:?}"),
        }
    }

    /// OID view (panics if this is not an OID column).
    pub fn as_oids(&self) -> &[Oid] {
        match self.view() {
            HostView::Oid(v) => v,
            other => panic!("expected an OID column, found {other:?}"),
        }
    }
}

/// Partition bits the host baseline uses for a Grace-style partitioned
/// FK/PK join: one partition per ~64k build rows (cache-sized hash tables),
/// with the `rows / ndv` skew factor inflating the count the same way the
/// device path does. Zero bits means "monolithic join is already fine".
pub(crate) fn grace_bits(build_rows: usize, ndv_hint: usize) -> u32 {
    const TARGET_ROWS: usize = 1 << 16;
    let skew = (build_rows.max(1) / ndv_hint.max(1)).max(1);
    let wanted = (build_rows.max(1) * skew).div_ceil(TARGET_ROWS);
    wanted.next_power_of_two().trailing_zeros().min(8)
}

/// Splits a key column into `2^bits` partitions of `(keys, original_rows)`
/// by a multiplicative hash — rows with equal keys land in the same
/// partition on both join sides.
pub(crate) fn grace_partition(keys: &[i32], bits: u32) -> Vec<(Vec<i32>, Vec<Oid>)> {
    let parts = 1usize << bits;
    let mut out: Vec<(Vec<i32>, Vec<Oid>)> = vec![(Vec::new(), Vec::new()); parts];
    for (row, &key) in keys.iter().enumerate() {
        let p = ((key as u32).wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize;
        out[p].0.push(key);
        out[p].1.push(row as Oid);
    }
    out
}

/// Merges per-partition join pairs back into the global probe-row order the
/// monolithic join produces (build keys are unique, so probe-OID order is
/// total).
pub(crate) fn grace_merge(mut pairs: Vec<(Oid, Oid)>) -> (Vec<Oid>, Vec<Oid>) {
    pairs.sort_unstable();
    (pairs.iter().map(|(f, _)| *f).collect(), pairs.iter().map(|(_, p)| *p).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_column_views() {
        let ints = HostColumn::I32(Arc::new(vec![1, 2]));
        assert_eq!(ints.len(), 2);
        assert_eq!(ints.as_i32(), &[1, 2]);
        let floats = HostColumn::F32(Arc::new(vec![0.5]));
        assert_eq!(floats.as_f32(), &[0.5]);
        let oids = HostColumn::Oid(Arc::new(vec![7, 8, 9]));
        assert_eq!(oids.as_oids(), &[7, 8, 9]);
        assert!(!oids.is_empty());
    }

    #[test]
    #[should_panic(expected = "expected an i32 column")]
    fn wrong_view_panics() {
        HostColumn::F32(Arc::new(vec![0.5])).as_i32();
    }

    #[test]
    fn bat_conversion_preserves_type() {
        use ocelot_storage::Bat;
        let bat = Bat::from_i32("a", vec![3]).into_ref();
        let ints = HostColumn::Bat(Arc::clone(&bat));
        assert_eq!(ints.as_i32(), &[3]);
        // A view, not a copy: the column reads the BAT's own storage.
        assert!(std::ptr::eq(ints.as_i32(), bat.as_i32().unwrap()));
        let floats = HostColumn::Bat(Bat::from_f32("b", vec![1.5]).into_ref());
        assert_eq!(floats.as_f32(), &[1.5]);
        let oids = HostColumn::Bat(Bat::from_oids("c", vec![9]).into_ref());
        assert_eq!((oids.as_oids(), oids.len()), (&[9][..], 1));
    }
}
