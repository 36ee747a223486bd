//! Output vectors written in place.
//!
//! An operator whose output length is known up front (a grouping's ids, a
//! length-preserving operator's output over several partitions) allocates
//! its result once and writes every element straight into it through
//! [`Slots`] — front to back, each slot once. Mitosis hands every partition
//! the [`Slots`] of its own row range of that one vector, so per-partition
//! outputs are never concatenated.
//!
//! An operator that keeps some of its candidates (a selection, a join
//! probe) writes through [`Kept`] instead: every candidate is written at
//! the cursor, and the cursor advances past it only when it is kept — no
//! branch on the predicate, so a selection costs the same at any
//! selectivity (Ross, "Selection conditions in main memory", TODS 2004).

use ocelot_storage::Oid;
use std::mem::MaybeUninit;

/// The not-yet-written elements of an output vector (or of one partition's
/// range of it), filled front to back.
pub(crate) struct Slots<'a, T> {
    slots: &'a mut [MaybeUninit<T>],
    filled: usize,
}

impl<'a, T> Slots<'a, T> {
    pub(crate) fn new(slots: &'a mut [MaybeUninit<T>]) -> Self {
        Slots { slots, filled: 0 }
    }

    /// Number of elements these slots hold once full.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Writes the next element (panics when the slots are full).
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        self.slots[self.filled].write(value);
        self.filled += 1;
    }

    /// Writes the next elements from `values` until either runs out.
    pub(crate) fn extend(&mut self, values: impl IntoIterator<Item = T>) {
        for (slot, value) in self.slots[self.filled..].iter_mut().zip(values) {
            slot.write(value);
            self.filled += 1;
        }
    }

    /// The elements written so far, to read or rewrite in place.
    pub(crate) fn written(&mut self) -> &mut [T] {
        let written = &mut self.slots[..self.filled];
        // SAFETY: the first `filled` slots were each written once, so they
        // hold initialised `T`s, and `MaybeUninit<T>` has `T`'s layout.
        unsafe { std::slice::from_raw_parts_mut(written.as_mut_ptr().cast::<T>(), written.len()) }
    }

    /// Splits the unwritten slots at `ranges` (contiguous from 0, relative
    /// to the first unwritten slot) and hands the pieces to `fill`, which
    /// returns each piece with its result. Panics unless every returned
    /// piece is full and they add up to the ranges; these slots then count
    /// as written that far.
    pub(crate) fn split_fill<'s, R>(
        &'s mut self,
        ranges: &[(usize, usize)],
        fill: impl FnOnce(Vec<(usize, usize, Slots<'s, T>)>) -> Vec<(R, Slots<'s, T>)>,
    ) -> Vec<R> {
        let Slots { slots, filled } = self;
        let pieces = split_at_ranges(&mut slots[*filled..], ranges);
        let taken: usize = pieces.iter().map(|piece| piece.len()).sum();
        let pieces = ranges
            .iter()
            .zip(pieces)
            .map(|(&(start, end), piece)| (start, end, Slots::new(piece)))
            .collect();
        let results = fill(pieces);
        let mut written = 0;
        let results = results
            .into_iter()
            .map(|(result, piece)| {
                piece.assert_full();
                written += piece.len();
                result
            })
            .collect();
        assert_eq!(written, taken, "split_fill: a piece was not returned");
        *filled += taken;
        results
    }

    pub(crate) fn assert_full(&self) {
        assert_eq!(self.filled, self.slots.len(), "an operator left output slots unwritten");
    }
}

/// Splits `values` into the pieces `ranges` cover, which run contiguously
/// from 0.
pub(crate) fn split_at_ranges<'a, T>(
    mut values: &'a mut [T],
    ranges: &[(usize, usize)],
) -> Vec<&'a mut [T]> {
    let mut pieces = Vec::with_capacity(ranges.len());
    for &(start, end) in ranges {
        let (piece, rest) = std::mem::take(&mut values).split_at_mut(end - start);
        pieces.push(piece);
        values = rest;
    }
    pieces
}

/// Allocates an `n`-element vector once and lets `fill` write every
/// element through [`Slots`]. Panics if `fill` leaves a slot unwritten.
pub(crate) fn filled<T, R>(n: usize, fill: impl FnOnce(&mut Slots<'_, T>) -> R) -> (Vec<T>, R) {
    let mut out = Vec::with_capacity(n);
    let mut slots = Slots::new(&mut out.spare_capacity_mut()[..n]);
    let result = fill(&mut slots);
    slots.assert_full();
    // SAFETY: `slots` covered the first `n` elements of `out`'s spare
    // capacity and is full: each of them was written exactly once.
    unsafe { out.set_len(n) };
    (out, result)
}

/// An output vector filled by predication: [`Kept::keep`] writes every
/// candidate at the cursor and advances the cursor by the predicate, so the
/// kept candidates end up front to back, in order. The vector is allocated
/// once, with room for the candidates a caller may keep: the candidates
/// scanned, or the count of kept ones when a counting pass came first.
/// Room that is never written is never touched.
pub(crate) struct Kept<T> {
    values: Vec<T>,
    kept: usize,
}

impl<T: Copy> Kept<T> {
    /// Room for `capacity` kept elements.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Kept { values: Vec::with_capacity(capacity), kept: 0 }
    }

    /// Writes `value` at the cursor and keeps it if `keep`. Once the room is
    /// full only a candidate that is not kept may follow (it is dropped);
    /// keeping one more panics.
    #[inline]
    pub(crate) fn keep(&mut self, value: T, keep: bool) {
        match self.values.spare_capacity_mut().get_mut(self.kept) {
            Some(slot) => {
                slot.write(value);
                self.kept += usize::from(keep);
            }
            None => assert!(!keep, "more elements kept than there is room for"),
        }
    }

    /// The kept elements.
    pub(crate) fn finish(mut self) -> Vec<T> {
        // SAFETY: the cursor only advances past a slot `keep` has just
        // written, and never past the allocation, so the first `kept`
        // elements are initialised and within the capacity.
        unsafe { self.values.set_len(self.kept) };
        self.values
    }
}

/// The positions at which `keeps` yields `true`, ascending, in an output
/// with room for `room` of them.
pub(crate) fn kept_positions(keeps: impl Iterator<Item = bool>, room: usize) -> Vec<Oid> {
    let mut out = Kept::with_capacity(room);
    for (position, keep) in keeps.enumerate() {
        out.keep(position as Oid, keep);
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_extend_fill_in_order() {
        let (values, returned) = filled(5, |slots| {
            slots.push(1);
            slots.extend([2, 3, 4, 5, 6]);
            slots.len()
        });
        assert_eq!(values, vec![1, 2, 3, 4, 5]);
        assert_eq!(returned, 5);
        assert_eq!(filled::<u32, _>(0, |slots| slots.len()).1, 0);
    }

    #[test]
    fn split_pieces_fill_their_ranges() {
        let (values, sums) = filled(7, |slots| {
            slots.split_fill(&[(0, 3), (3, 7)], |pieces| {
                pieces
                    .into_iter()
                    .map(|(start, end, mut piece)| {
                        piece.extend(start as u32..end as u32);
                        (end - start, piece)
                    })
                    .collect()
            })
        });
        assert_eq!(values, (0..7).collect::<Vec<u32>>());
        assert_eq!(sums, vec![3, 4]);
    }

    #[test]
    fn kept_keeps_in_order_and_drops_past_a_full_room() {
        let mut kept = Kept::with_capacity(5);
        for value in 0..5u32 {
            kept.keep(value, value % 2 == 1);
        }
        assert_eq!(kept.finish(), vec![1, 3]);
        let mut exact = Kept::with_capacity(1);
        for value in [7u32, 8, 9] {
            exact.keep(value, value == 7);
        }
        assert_eq!(exact.finish(), vec![7]);
        assert!(Kept::<u32>::with_capacity(0).finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "more elements kept")]
    fn keeping_past_the_room_panics() {
        let mut kept = Kept::with_capacity(1);
        kept.keep(1u32, true);
        kept.keep(2, true);
    }

    #[test]
    #[should_panic(expected = "unwritten")]
    fn an_unwritten_slot_panics() {
        filled::<i32, _>(3, |slots| slots.extend([1, 2]));
    }
}
