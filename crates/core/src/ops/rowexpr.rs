//! The row-expression evaluator: one small IR for everything a streaming
//! operator computes per row, evaluated block-at-a-time.
//!
//! * [`Pred`] — one conjunct over column *slots* (range, equality,
//!   inequality, `IN` list, column-vs-column comparison). A conjunction is a
//!   list. [`conjunction_mask`] turns it into bitmap words, 256 rows of every
//!   conjunct at a time: every conjunct is a fixed 32-lane mask loop over one
//!   word's rows (the compiler unrolls and vectorises it); the first conjunct
//!   writes the block's words, a later one ANDs into the words that still
//!   have survivors and skips the rest — a choice that reads the mask in
//!   front of it, nothing else. Bits of rows past the row count are never set
//!   (the bitmap padding invariant).
//! * [`Map`] — a value-expression tree (`* + −`, `c − x`, `c + x`, `x · c`,
//!   cast, year) over equally long *operand slices*. A leaf borrows its
//!   slice, so a one-node tree over two columns is the plain
//!   zip-over-columns loop; inner nodes go through tile-sized scratch.
//!
//! [`select_where`] and [`map_columns`] are the two stand-alone launches.
//! Every selection and every arithmetic map the engine runs is a program
//! over them: a plan's selection node holds one [`Pred`], its map node a
//! one-operator [`Map`] ([`super::calc::map`] sizes its output), and the
//! fused accumulation of [`super::aggregate::fused_aggs`] evaluates whole
//! conjunctions and trees per tile without writing any of it back.

use crate::context::{ColLen, DevColumn, DevWord, LenSource, OcelotContext, Oid};
use crate::primitives::bitmap::Bitmap;
use ocelot_kernel::{
    Buffer, BufferAccess, Kernel, KernelAccesses, KernelCost, LaunchConfig, Result, WorkGroupCtx,
};
use ocelot_storage::types::days_to_date;
use ocelot_storage::CmpOp;
use std::ops::Range;
use std::sync::Arc;

/// Rows per evaluation block: 32 bitmap words, and 4 KB per operand tile.
pub const TILE: usize = 1024;

/// Rows a conjunction evaluates one conjunct over before it turns to the
/// next: 1 KB of each column at a time, so the columns of a conjunction are
/// streamed side by side — every one of them keeps a prefetch stream in
/// flight — instead of a page of one, then a page of the next.
const STRIDE: usize = 256;

/// One conjunct of a selection; `col`/`left`/`right` are column slots.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `low <= col <= high` over `i32`.
    RangeI32 { col: usize, low: i32, high: i32 },
    /// `low <= col <= high` over `f32` (false for NaN).
    RangeF32 { col: usize, low: f32, high: f32 },
    /// `col == needle` over `i32`.
    EqI32 { col: usize, needle: i32 },
    /// `col != needle` over `i32`.
    NeI32 { col: usize, needle: i32 },
    /// `col` is one of a short list of `i32`s.
    InI32 { col: usize, values: Arc<[i32]> },
    /// `left <op> right` over two aligned `i32` columns.
    CmpI32 { op: CmpOp, left: usize, right: usize },
}

impl Pred {
    /// The column slots the conjunct reads, in reading order.
    pub fn slots(&self) -> impl Iterator<Item = usize> {
        let (first, second) = match *self {
            Pred::RangeI32 { col, .. }
            | Pred::RangeF32 { col, .. }
            | Pred::EqI32 { col, .. }
            | Pred::NeI32 { col, .. }
            | Pred::InI32 { col, .. } => (col, None),
            Pred::CmpI32 { left, right, .. } => (left, Some(right)),
        };
        std::iter::once(first).chain(second)
    }

    /// The conjunct with every slot `s` renamed to `to(s)`; `None` when `to`
    /// has no name for one of them.
    pub fn reslot(&self, to: impl Fn(usize) -> Option<usize>) -> Option<Pred> {
        let mut pred = self.clone();
        match &mut pred {
            Pred::RangeI32 { col, .. }
            | Pred::RangeF32 { col, .. }
            | Pred::EqI32 { col, .. }
            | Pred::NeI32 { col, .. }
            | Pred::InI32 { col, .. } => *col = to(*col)?,
            Pred::CmpI32 { left, right, .. } => (*left, *right) = (to(*left)?, to(*right)?),
        }
        Some(pred)
    }
}

/// The mask word of up to 32 rows: bit `i` set iff `matches(lanes[i])`. Over
/// a full word the loop has a constant trip count and vectorises.
#[inline(always)]
fn lane_bits(lanes: &[u32], matches: impl Fn(u32) -> bool) -> u32 {
    lanes.iter().enumerate().fold(0, |bits, (bit, &v)| bits | (matches(v) as u32) << bit)
}

/// The mask word of membership in a list of exactly `N` values.
fn listed<const N: usize>(values: &[i32]) -> impl Fn(&[u32]) -> u32 {
    let values: [i32; N] = values.try_into().expect("the list has N values");
    move |lanes| lane_bits(lanes, |w| values.iter().fold(false, |hit, v| hit | (*v == w as i32)))
}

/// Combines `bits_of` — the mask word of up to 32 rows — over the rows of
/// `values` into `mask`: the first conjunct (`FIRST`) writes its words, a
/// later one ANDs into the words that still have a survivor.
#[inline(always)]
fn mask_lanes<const FIRST: bool>(
    values: &[u32],
    mask: &mut [u32],
    bits_of: impl Fn(&[u32]) -> u32,
) {
    let combine = |word: &mut u32, lanes: &[u32]| {
        if FIRST {
            *word = bits_of(lanes);
        } else if *word != 0 {
            *word &= bits_of(lanes);
        }
    };
    // Full words first: their lane loops have a constant trip count.
    let (words, tail) = values.as_chunks::<32>();
    let (full, last) = mask.split_at_mut(words.len());
    full.iter_mut().zip(words).for_each(|(word, lanes)| combine(word, lanes));
    if !tail.is_empty() {
        combine(&mut last[0], tail);
    }
}

/// [`mask_lanes`] for a predicate over two aligned columns.
#[inline(always)]
fn mask_lanes2<const FIRST: bool>(
    left: &[u32],
    right: &[u32],
    mask: &mut [u32],
    matches: impl Fn(i32, i32) -> bool,
) {
    let bits = |l: &[u32], r: &[u32]| {
        l.iter()
            .zip(r)
            .enumerate()
            .fold(0u32, |bits, (bit, (&l, &r))| bits | (matches(l as i32, r as i32) as u32) << bit)
    };
    let combine = |word: &mut u32, l: &[u32], r: &[u32]| {
        if FIRST {
            *word = bits(l, r);
        } else if *word != 0 {
            *word &= bits(l, r);
        }
    };
    let ((words, tail), (right_words, right_tail)) =
        (left.as_chunks::<32>(), right.as_chunks::<32>());
    let (full, last) = mask.split_at_mut(words.len());
    for ((word, l), r) in full.iter_mut().zip(words).zip(right_words) {
        combine(word, l, r);
    }
    if !tail.is_empty() {
        combine(&mut last[0], tail, right_tail);
    }
}

impl Pred {
    /// Combines the conjunct's mask over `rows` of `cols` into `mask`
    /// ([`mask_lanes`]); `mask` has one word per 32 rows.
    fn mask<const FIRST: bool>(&self, cols: &[&[u32]], rows: Range<usize>, mask: &mut [u32]) {
        let of = |slot: &usize| &cols[*slot][rows.clone()];
        // Bounds are copied out: a captured reference would be re-read after
        // every mask store.
        match self {
            // One unsigned comparison per row: `low <= w <= high` is
            // `w - low <= high - low` when the range is not empty.
            &Pred::RangeI32 { col, low, high } => {
                let (base, span) = (low as u32, (high as u32).wrapping_sub(low as u32));
                let keep = if low <= high { !0 } else { 0 };
                mask_lanes::<FIRST>(of(&col), mask, |lanes| {
                    keep & lane_bits(lanes, |w| w.wrapping_sub(base) <= span)
                })
            }
            &Pred::RangeF32 { col, low, high } => mask_lanes::<FIRST>(of(&col), mask, |lanes| {
                lane_bits(lanes, |w| (f32::from_bits(w) >= low) & (f32::from_bits(w) <= high))
            }),
            &Pred::EqI32 { col, needle } => mask_lanes::<FIRST>(of(&col), mask, |lanes| {
                lane_bits(lanes, |w| w as i32 == needle)
            }),
            &Pred::NeI32 { col, needle } => mask_lanes::<FIRST>(of(&col), mask, |lanes| {
                lane_bits(lanes, |w| w as i32 != needle)
            }),
            // Every value is compared, hit or not, so nothing branches on the
            // data. Short lists are unrolled per lane — one mask word built
            // per 32 rows, not one per listed value.
            Pred::InI32 { col, values } => match values.len() {
                1 => mask_lanes::<FIRST>(of(col), mask, listed::<1>(values)),
                2 => mask_lanes::<FIRST>(of(col), mask, listed::<2>(values)),
                3 => mask_lanes::<FIRST>(of(col), mask, listed::<3>(values)),
                4 => mask_lanes::<FIRST>(of(col), mask, listed::<4>(values)),
                _ => mask_lanes::<FIRST>(of(col), mask, |lanes| {
                    values
                        .iter()
                        .fold(0, |bits, &value| bits | lane_bits(lanes, |w| w as i32 == value))
                }),
            },
            Pred::CmpI32 { op, left, right } => {
                let (l, r) = (of(left), of(right));
                match op {
                    CmpOp::Lt => mask_lanes2::<FIRST>(l, r, mask, |l, r| l < r),
                    CmpOp::Le => mask_lanes2::<FIRST>(l, r, mask, |l, r| l <= r),
                    CmpOp::Gt => mask_lanes2::<FIRST>(l, r, mask, |l, r| l > r),
                    CmpOp::Ge => mask_lanes2::<FIRST>(l, r, mask, |l, r| l >= r),
                    CmpOp::Eq => mask_lanes2::<FIRST>(l, r, mask, |l, r| l == r),
                    CmpOp::Ne => mask_lanes2::<FIRST>(l, r, mask, |l, r| l != r),
                }
            }
        }
    }
}

/// Writes the bitmap words of `preds` (all must hold) over `rows` of `cols`
/// into `mask`: bit `i` stands for row `rows.start + i`, `rows.end` is at
/// most the row count, and `mask` may extend past the rows — those words,
/// like the bits past `rows.end`, come out zero. An empty list selects every
/// row.
pub fn conjunction_mask(preds: &[Pred], cols: &[&[u32]], rows: Range<usize>, mask: &mut [u32]) {
    let (mask, padding) = mask.split_at_mut(Bitmap::words_for(rows.len()));
    padding.fill(0);
    let Some((first, rest)) = preds.split_first() else {
        mask.fill(!0);
        if let (Some(last), tail @ 1..) = (mask.last_mut(), rows.len() % 32) {
            *last = (1u32 << tail) - 1;
        }
        return;
    };
    // A partial last word's lanes end with the rows, so its padding bits are
    // never set.
    for (block, mask) in mask.chunks_mut(STRIDE / 32).enumerate() {
        let start = rows.start + block * STRIDE;
        let rows = start..(start + STRIDE).min(rows.end);
        first.mask::<true>(cols, rows.clone(), mask);
        rest.iter().for_each(|pred| pred.mask::<false>(cols, rows.clone(), mask));
    }
}

/// A value expression over operand slices; `Col` names one by position.
#[derive(Debug, Clone, PartialEq)]
pub enum Map {
    /// The operand as stored (`f32` or `i32` words).
    Col(usize),
    /// `a * b` (f32).
    Mul(Box<Map>, Box<Map>),
    /// `a + b` (f32).
    Add(Box<Map>, Box<Map>),
    /// `a - b` (f32).
    Sub(Box<Map>, Box<Map>),
    /// `c - a` (f32).
    ConstMinus(f32, Box<Map>),
    /// `c + a` (f32).
    ConstPlus(f32, Box<Map>),
    /// `a * c` (f32).
    MulConst(Box<Map>, f32),
    /// `(f32) a` of an `i32` value.
    CastI32F32(Box<Map>),
    /// `year(a)` of a day-number date.
    Year(Box<Map>),
}

/// Scratch tiles for [`Map::eval`], reused from tile to tile.
pub type Scratch = Vec<Vec<u32>>;

impl Map {
    /// The leaf reading operand `slot`, boxed to be a child.
    pub fn leaf(slot: usize) -> Box<Map> {
        Box::new(Map::Col(slot))
    }

    /// The node's children, in operand order (none for a leaf).
    pub fn children(&self) -> impl Iterator<Item = &Map> {
        let (first, second): (Option<&Map>, Option<&Map>) = match self {
            Map::Col(_) => (None, None),
            Map::Mul(a, b) | Map::Add(a, b) | Map::Sub(a, b) => (Some(a), Some(b)),
            Map::ConstMinus(_, a)
            | Map::ConstPlus(_, a)
            | Map::MulConst(a, _)
            | Map::CastI32F32(a)
            | Map::Year(a) => (Some(a), None),
        };
        first.into_iter().chain(second)
    }

    /// The operand positions the tree reads, appended to `slots`.
    pub fn slots(&self, slots: &mut Vec<usize>) {
        match self {
            Map::Col(slot) => slots.push(*slot),
            _ => self.children().for_each(|child| child.slots(slots)),
        }
    }

    /// The type rule: `year` yields `i32` words, every other operator `f32`
    /// words (a leaf yields its operand as stored).
    pub fn yields_i32(&self) -> bool {
        matches!(self, Map::Year(_))
    }

    /// The tree with every leaf `Col(s)` replaced by `with(s)`; `None` when
    /// `with` has no tree for one of them.
    pub fn substitute(&self, with: &mut impl FnMut(usize) -> Option<Map>) -> Option<Map> {
        let mut sub = |child: &Map| child.substitute(with).map(Box::new);
        Some(match self {
            Map::Col(slot) => return with(*slot),
            Map::Mul(a, b) => Map::Mul(sub(a)?, sub(b)?),
            Map::Add(a, b) => Map::Add(sub(a)?, sub(b)?),
            Map::Sub(a, b) => Map::Sub(sub(a)?, sub(b)?),
            Map::ConstMinus(c, a) => Map::ConstMinus(*c, sub(a)?),
            Map::ConstPlus(c, a) => Map::ConstPlus(*c, sub(a)?),
            Map::MulConst(a, c) => Map::MulConst(sub(a)?, *c),
            Map::CastI32F32(a) => Map::CastI32F32(sub(a)?),
            Map::Year(a) => Map::Year(sub(a)?),
        })
    }

    /// A scratch tile of `rows` rows for the tree's values — none for a leaf,
    /// which lends its own slice.
    fn tile(&self, rows: usize, scratch: &mut Scratch) -> Vec<u32> {
        let mut tile = match self {
            Map::Col(_) => return Vec::new(),
            _ => scratch.pop().unwrap_or_default(),
        };
        if tile.len() < rows {
            tile.resize(rows.max(TILE), 0);
        }
        tile
    }

    /// The tree's values over the `rows` rows of `cols`:
    /// a leaf's own slice, anything else evaluated into `tile`.
    pub fn operand<'a>(
        &self,
        cols: &[&'a [u32]],
        rows: usize,
        tile: &'a mut [u32],
        scratch: &mut Scratch,
    ) -> &'a [u32] {
        match self {
            Map::Col(slot) => cols[*slot],
            _ => {
                self.eval(cols, &mut tile[..rows], scratch);
                &tile[..rows]
            }
        }
    }

    /// Evaluates the tree over `cols` into `out` (as long as the operands).
    pub fn eval(&self, cols: &[&[u32]], out: &mut [u32], scratch: &mut Scratch) {
        let float = f32::from_bits;
        match self {
            Map::Col(slot) => out.copy_from_slice(cols[*slot]),
            Map::Mul(a, b) => binary(cols, a, b, out, scratch, |x, y| x * y),
            Map::Add(a, b) => binary(cols, a, b, out, scratch, |x, y| x + y),
            Map::Sub(a, b) => binary(cols, a, b, out, scratch, |x, y| x - y),
            &Map::ConstMinus(c, ref a) => {
                unary(cols, a, out, scratch, |x| (c - float(x)).to_bits())
            }
            &Map::ConstPlus(c, ref a) => unary(cols, a, out, scratch, |x| (c + float(x)).to_bits()),
            &Map::MulConst(ref a, c) => unary(cols, a, out, scratch, |x| (float(x) * c).to_bits()),
            Map::CastI32F32(a) => unary(cols, a, out, scratch, |x| ((x as i32) as f32).to_bits()),
            Map::Year(a) => unary(cols, a, out, scratch, |x| days_to_date(x as i32).0 as u32),
        }
    }
}

/// `out = f(a)` over raw words, monomorphised per operator.
#[inline(always)]
fn unary(cols: &[&[u32]], a: &Map, out: &mut [u32], scratch: &mut Scratch, f: impl Fn(u32) -> u32) {
    let mut tile = a.tile(out.len(), scratch);
    let values = a.operand(cols, out.len(), &mut tile, scratch);
    out.iter_mut().zip(values).for_each(|(o, &x)| *o = f(x));
    scratch.extend([tile].into_iter().filter(|tile| !tile.is_empty()));
}

/// `out = f(a, b)` over float operands, monomorphised per operator.
#[inline(always)]
fn binary(
    cols: &[&[u32]],
    a: &Map,
    b: &Map,
    out: &mut [u32],
    scratch: &mut Scratch,
    f: impl Fn(f32, f32) -> f32,
) {
    let (mut tile_a, mut tile_b) = (a.tile(out.len(), scratch), b.tile(out.len(), scratch));
    let left = a.operand(cols, out.len(), &mut tile_a, scratch);
    let right = b.operand(cols, out.len(), &mut tile_b, scratch);
    for ((o, &x), &y) in out.iter_mut().zip(left).zip(right) {
        *o = f(f32::from_bits(x), f32::from_bits(y)).to_bits();
    }
    scratch.extend([tile_a, tile_b].into_iter().filter(|tile| !tile.is_empty()));
}

/// Tier-2 reads of every word of `cols`, as a kernel declares them.
fn reads(cols: &[Buffer]) -> Vec<BufferAccess> {
    cols.iter().map(|col| BufferAccess::slice_read(col, 0..col.len())).collect()
}

/// Selection kernel: each work-item produces whole bitmap words for its
/// chunk of the rows (the paper found one result byte per thread iteration
/// to work well; one 32-bit word is the same idea at word granularity).
struct WhereKernel {
    cols: Vec<Buffer>,
    preds: Vec<Pred>,
    bitmap: Buffer,
    n: LenSource,
}

impl Kernel for WhereKernel {
    fn name(&self) -> &str {
        "select_bitmap"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // A deferred row count resolves here, at flush time; rows past `n`
        // hold garbage and contribute zero bits.
        let n = self.n.get();
        let words = Bitmap::words_for(self.n.cap());
        let cols: Vec<&[u32]> = self.cols.iter().map(|col| col.as_words()).collect();
        for item in group.items() {
            let (start, end) = item.chunk_bounds(words);
            if start < end {
                // SAFETY: `chunk_bounds` partitions the bitmap's words
                // across the items; `start..end` is this item's alone.
                let mask = unsafe { self.bitmap.chunk_mut(start, end) };
                conjunction_mask(&self.preds, &cols, (start * 32).min(n)..(end * 32).min(n), mask);
            }
        }
    }
    fn cost(&self, launch: &LaunchConfig) -> KernelCost {
        let n = launch.n as u64;
        KernelCost::new(n * 4 * self.cols.len() as u64, n / 8, n * self.preds.len() as u64, 0)
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = reads(&self.cols);
        accesses.push(BufferAccess::slice_write(&self.bitmap, 0..Bitmap::words_for(self.n.cap())));
        let declared = KernelAccesses::of(accesses);
        // A host-known row count lets the race detector check the padding.
        Some(match &self.n {
            LenSource::Fixed(rows) => declared.with_bitmap(&self.bitmap, *rows),
            LenSource::Counter { .. } => declared,
        })
    }
}

/// The bitmap of the rows of `cols` on which every conjunct of `preds`
/// holds, in one launch. The bitmap takes `cols[0]`'s (possibly deferred)
/// length.
///
/// # Panics
/// Panics if another column cannot cover every row `cols[0]` may have.
pub fn select_where(
    ctx: &OcelotContext,
    cols: &[&DevColumn<Oid>],
    preds: &[Pred],
) -> Result<Bitmap> {
    let len = cols[0].col_len();
    for col in &cols[1..] {
        match (cols[0].host_len(), col.host_len()) {
            (Some(a), Some(b)) => assert_eq!(a, b, "selection: column length mismatch"),
            _ => assert!(col.cap() >= len.cap(), "selection: column length mismatch"),
        }
    }
    // The kernel writes every backing word, so the bitmap can skip zeroing.
    let bitmap = Bitmap::for_overwrite(ctx, len.clone())?;
    if len.cap() == 0 {
        return Ok(bitmap);
    }
    let event = ctx.queue().enqueue_kernel(
        Arc::new(WhereKernel {
            cols: cols.iter().map(|col| col.buffer.clone()).collect(),
            preds: preds.to_vec(),
            bitmap: bitmap.buffer.clone(),
            n: len.source(),
        }),
        ctx.launch(len.cap()),
        &cols.iter().flat_map(|col| ctx.wait_for(col)).collect::<Vec<_>>(),
    )?;
    ctx.memory().record_producer(&bitmap.buffer, event);
    Ok(bitmap)
}

/// Map kernel: each work-item evaluates the tree over its chunk of the
/// rows, tile by tile, straight into the output.
struct MapKernel {
    cols: Vec<Buffer>,
    map: Map,
    output: Buffer,
    n: LenSource,
}

impl Kernel for MapKernel {
    fn name(&self) -> &str {
        "calc_map"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        // Deferred lengths resolve at flush time.
        let n = self.n.get();
        let cols: Vec<&[u32]> = self.cols.iter().map(|col| col.as_words()).collect();
        let (mut scratch, mut tiles) = (Scratch::new(), Vec::with_capacity(cols.len()));
        for item in group.items() {
            let (start, end) = item.chunk_bounds(self.n.cap());
            for start in (start..end.min(n)).step_by(TILE) {
                let rows = start..(start + TILE).min(end.min(n));
                // SAFETY: `chunk_bounds` partitions the output rows across
                // the items; this tile lies inside this item's chunk.
                let out = unsafe { self.output.chunk_mut(rows.start, rows.end) };
                tiles.clear();
                tiles.extend(cols.iter().map(|col| &col[rows.clone()]));
                self.map.eval(&tiles, out, &mut scratch);
            }
        }
    }
    fn declared_accesses(&self, _launch: &LaunchConfig) -> Option<KernelAccesses> {
        let mut accesses = reads(&self.cols);
        accesses.push(BufferAccess::slice_write(&self.output, 0..self.output.len()));
        Some(KernelAccesses::of(accesses))
    }
}

/// Evaluates `map` over the aligned columns `cols` in one launch. The output
/// has `len` rows — the (possibly deferred) length the inputs share.
pub fn map_columns<O: DevWord>(
    ctx: &OcelotContext,
    cols: &[&DevColumn<Oid>],
    map: &Map,
    len: ColLen,
) -> Result<DevColumn<O>> {
    let output = ctx.alloc_uninit(len.cap().max(1), "calc_output")?;
    if len.cap() == 0 {
        return DevColumn::new(output, 0);
    }
    let event = ctx.queue().enqueue_kernel(
        Arc::new(MapKernel {
            cols: cols.iter().map(|col| col.buffer.clone()).collect(),
            map: map.clone(),
            output: output.clone(),
            n: len.source(),
        }),
        ctx.launch(len.cap()),
        &cols.iter().flat_map(|col| ctx.wait_for(col)).collect::<Vec<_>>(),
    )?;
    ctx.memory().record_producer(&output, event);
    DevColumn::with_len(output, len)
}
