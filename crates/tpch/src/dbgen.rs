//! Deterministic, *streaming* TPC-H-style data generator.
//!
//! The generator reproduces the *shape* of TPC-H data — the table
//! cardinality ratios, the PK/FK relationships, the value domains and the
//! date ranges the queries filter on — with seeded pseudo-random derivation.
//! It is not the official `dbgen` (no text corpus, no V2 comments), but
//! every column the fourteen evaluated queries touch is present with
//! realistic distributions, which is what the performance comparison needs.
//!
//! ## Streaming and determinism
//!
//! Every value is a **pure function of `(seed, table, row)`**: each row
//! derives its own RNG by mixing the configuration seed with a per-table
//! stream tag and the row index (splitmix-style), and draws its fields in a
//! fixed order. There is no sequential generator state threaded through the
//! tables, so:
//!
//! * generation is **chunk-size invariant** — producing a table in 1, 2 or
//!   7 chunks yields identical rows in identical order, by construction;
//! * tables stream **partition-at-a-time** through reusable
//!   [`RowGroup`] buffers (see [`chunked_tables`]), so scale factors 1–10
//!   never materialise a whole column on the host;
//! * lineitem rows derive from `(order, line)` with per-order line counts
//!   hashed from the order key, so the dominant table chunks on order
//!   ranges without replaying any prefix.
//!
//! String dictionaries are pre-built deterministically (each literal table
//! encoded in declaration order), so dictionary codes are positional and
//! independent of which rows have been generated.
//!
//! Scale: at scale factor 1.0 the generator produces the official row
//! counts (6 M lineitems). Benchmarks use fractional scale factors; row
//! counts scale linearly with a floor that keeps the dimension tables
//! non-degenerate.

use ocelot_storage::types::date_to_days;
use ocelot_storage::{
    Bat, Catalog, ChunkData, ChunkSource, ChunkedColumn, ChunkedTable, ColumnType, RowGroup,
    StringDictionary, Table,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// TPC-H scale factor (1.0 = official row counts; benchmarks use
    /// fractions such as 0.01).
    pub scale_factor: f64,
    /// RNG seed; equal seeds produce identical databases.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig { scale_factor: 0.01, seed: 42 }
    }
}

impl TpchConfig {
    /// Convenience constructor.
    pub fn new(scale_factor: f64) -> TpchConfig {
        TpchConfig { scale_factor, ..Default::default() }
    }
}

/// A generated TPC-H database: the catalog plus the dictionaries used to
/// encode its string columns.
#[derive(Debug, Clone)]
pub struct TpchDb {
    catalog: Catalog,
    config: TpchConfig,
}

const NATIONS: [(&str, i32); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const SHIPINSTRUCT: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
const RETURNFLAGS: [&str; 3] = ["R", "A", "N"];
const LINESTATUS: [&str; 2] = ["O", "F"];
const STATUSES: [&str; 2] = ["F", "O"];
const BRANDS: [&str; 25] = [
    "Brand#11", "Brand#12", "Brand#13", "Brand#14", "Brand#15", "Brand#21", "Brand#22", "Brand#23",
    "Brand#24", "Brand#25", "Brand#31", "Brand#32", "Brand#33", "Brand#34", "Brand#35", "Brand#41",
    "Brand#42", "Brand#43", "Brand#44", "Brand#45", "Brand#51", "Brand#52", "Brand#53", "Brand#54",
    "Brand#55",
];
const CONTAINERS: [&str; 8] =
    ["SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "MED PKG", "LG BOX"];
const TYPES: [&str; 6] = [
    "ECONOMY ANODIZED STEEL",
    "STANDARD POLISHED TIN",
    "PROMO BURNISHED COPPER",
    "SMALL PLATED BRASS",
    "LARGE BRUSHED NICKEL",
    "MEDIUM ANODIZED COPPER",
];

fn scaled(base: usize, sf: f64, min: usize) -> usize {
    ((base as f64 * sf).round() as usize).max(min)
}

// ---------------------------------------------------------------------------
// Counter-based row derivation
// ---------------------------------------------------------------------------

/// Per-table stream tags: each table draws from its own derivation stream
/// so adding columns to one table never perturbs another.
mod tag {
    pub const SUPPLIER: u64 = 1;
    pub const CUSTOMER: u64 = 2;
    pub const PART: u64 = 3;
    pub const PARTSUPP: u64 = 4;
    pub const ORDERS: u64 = 5;
    pub const LINECOUNT: u64 = 6;
    pub const LINEITEM: u64 = 7;
}

/// Splitmix64 finaliser: bijective 64-bit mixing.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-row generator: a fresh RNG whose seed is a pure function of
/// `(seed, stream tag, row index)`. Rows draw their fields from it in a
/// fixed order, which makes every value independent of generation order —
/// the property the chunk-size-invariance tests pin down.
fn row_rng(seed: u64, stream: u64, row: u64) -> StdRng {
    let mixed = mix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix64(stream) ^ row);
    StdRng::seed_from_u64(mixed)
}

/// Scaled row counts for one configuration.
#[derive(Debug, Clone, Copy)]
struct Shape {
    num_suppliers: usize,
    num_customers: usize,
    num_parts: usize,
    num_orders: usize,
    num_partsupp: usize,
}

impl Shape {
    fn of(config: &TpchConfig) -> Shape {
        let sf = config.scale_factor;
        let num_parts = scaled(200_000, sf, 50);
        Shape {
            num_suppliers: scaled(10_000, sf, 20),
            num_customers: scaled(150_000, sf, 50),
            num_parts,
            num_orders: scaled(1_500_000, sf, 200),
            num_partsupp: num_parts * 4,
        }
    }
}

/// Number of lineitem rows belonging to order `order` (1..=7, hashed from
/// the order key so it can be recomputed anywhere without a prefix replay).
fn order_line_count(seed: u64, order: usize) -> usize {
    row_rng(seed, tag::LINECOUNT, order as u64).gen_range(1..=7)
}

/// The order-date of order `order`, re-derivable by the lineitem stream
/// (ship/commit/receipt dates are offsets from it).
fn order_date(seed: u64, order: usize) -> i32 {
    // Field order must match `fill_orders`: custkey is drawn first.
    let mut rng = row_rng(seed, tag::ORDERS, order as u64);
    let _custkey: i32 = rng.gen_range(0..i32::MAX);
    rng.gen_range(date_to_days(1992, 1, 1)..=date_to_days(1998, 8, 2))
}

// ---------------------------------------------------------------------------
// Table schemas and chunk sources
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableKind {
    Region,
    Nation,
    Supplier,
    Customer,
    Part,
    Partsupp,
    Orders,
    Lineitem,
}

impl TableKind {
    const ALL: [TableKind; 8] = [
        TableKind::Region,
        TableKind::Nation,
        TableKind::Supplier,
        TableKind::Customer,
        TableKind::Part,
        TableKind::Partsupp,
        TableKind::Orders,
        TableKind::Lineitem,
    ];

    fn name(self) -> &'static str {
        match self {
            TableKind::Region => "region",
            TableKind::Nation => "nation",
            TableKind::Supplier => "supplier",
            TableKind::Customer => "customer",
            TableKind::Part => "part",
            TableKind::Partsupp => "partsupp",
            TableKind::Orders => "orders",
            TableKind::Lineitem => "lineitem",
        }
    }

    fn schema(self) -> Vec<ChunkedColumn> {
        let col = |name: &str, ty: ColumnType, key: bool| ChunkedColumn {
            name: name.to_string(),
            ty,
            key,
        };
        use ColumnType::{Date, Int, Real, StrCode};
        match self {
            TableKind::Region => {
                vec![col("r_regionkey", Int, true), col("r_name", StrCode, false)]
            }
            TableKind::Nation => vec![
                col("n_nationkey", Int, true),
                col("n_name", StrCode, false),
                col("n_regionkey", Int, false),
            ],
            TableKind::Supplier => vec![
                col("s_suppkey", Int, true),
                col("s_name", StrCode, false),
                col("s_nationkey", Int, false),
            ],
            TableKind::Customer => vec![
                col("c_custkey", Int, true),
                col("c_mktsegment", StrCode, false),
                col("c_nationkey", Int, false),
                col("c_acctbal", Real, false),
            ],
            TableKind::Part => vec![
                col("p_partkey", Int, true),
                col("p_brand", StrCode, false),
                col("p_container", StrCode, false),
                col("p_type", StrCode, false),
                col("p_size", Int, false),
                col("p_retailprice", Real, false),
            ],
            TableKind::Partsupp => vec![
                col("ps_partkey", Int, false),
                col("ps_suppkey", Int, false),
                col("ps_supplycost", Real, false),
                col("ps_availqty", Real, false),
            ],
            TableKind::Orders => vec![
                col("o_orderkey", Int, true),
                col("o_custkey", Int, false),
                col("o_orderdate", Date, false),
                col("o_orderpriority", StrCode, false),
                col("o_orderstatus", StrCode, false),
                col("o_shippriority", Int, false),
            ],
            TableKind::Lineitem => vec![
                col("l_orderkey", Int, false),
                col("l_partkey", Int, false),
                col("l_suppkey", Int, false),
                col("l_quantity", Real, false),
                col("l_extendedprice", Real, false),
                col("l_discount", Real, false),
                col("l_tax", Real, false),
                col("l_returnflag", StrCode, false),
                col("l_linestatus", StrCode, false),
                col("l_shipdate", Date, false),
                col("l_commitdate", Date, false),
                col("l_receiptdate", Date, false),
                col("l_shipmode", StrCode, false),
                col("l_shipinstruct", StrCode, false),
            ],
        }
    }

    /// Row count (for lineitem: the exact total across all orders).
    fn rows(self, seed: u64, shape: Shape) -> usize {
        match self {
            TableKind::Region => REGIONS.len(),
            TableKind::Nation => NATIONS.len(),
            TableKind::Supplier => shape.num_suppliers,
            TableKind::Customer => shape.num_customers,
            TableKind::Part => shape.num_parts,
            TableKind::Partsupp => shape.num_partsupp,
            TableKind::Orders => shape.num_orders,
            TableKind::Lineitem => (0..shape.num_orders).map(|o| order_line_count(seed, o)).sum(),
        }
    }

    /// The unit the table chunks on: row index for every table except
    /// lineitem, which chunks on *order* ranges (its row count per order
    /// varies, but each order's lines always land in the same chunk).
    fn chunk_units(self, shape: Shape) -> usize {
        match self {
            TableKind::Lineitem => shape.num_orders,
            other => other.rows(0, shape), // row counts don't depend on seed
        }
    }
}

/// A deterministic chunk producer over one TPC-H table: chunk `c` covers
/// units `[bounds[c].0, bounds[c].1)` (rows, or orders for lineitem).
struct TpchChunks {
    seed: u64,
    shape: Shape,
    kind: TableKind,
    bounds: Vec<(usize, usize)>,
}

impl ChunkSource for TpchChunks {
    fn fill(&self, chunk: usize, out: &mut RowGroup) {
        let (start, end) = self.bounds[chunk];
        let mut cols: Vec<&mut ChunkData> = out.columns_mut().map(|(_, d)| d).collect();
        match self.kind {
            TableKind::Region => fill_region(start, end, &mut cols),
            TableKind::Nation => fill_nation(start, end, &mut cols),
            TableKind::Supplier => fill_supplier(self.seed, start, end, &mut cols),
            TableKind::Customer => fill_customer(self.seed, start, end, &mut cols),
            TableKind::Part => fill_part(self.seed, start, end, &mut cols),
            TableKind::Partsupp => fill_partsupp(self.seed, self.shape, start, end, &mut cols),
            TableKind::Orders => fill_orders(self.seed, self.shape, start, end, &mut cols),
            TableKind::Lineitem => fill_lineitem(self.seed, self.shape, start, end, &mut cols),
        }
    }
}

fn fill_region(start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    for i in start..end {
        cols[0].push_i32(i as i32);
        cols[1].push_i32(i as i32); // r_name codes are positional
    }
}

fn fill_nation(start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    for (i, nation) in NATIONS.iter().enumerate().take(end).skip(start) {
        cols[0].push_i32(i as i32);
        cols[1].push_i32(i as i32); // n_name codes are positional
        cols[2].push_i32(nation.1);
    }
}

fn fill_supplier(seed: u64, start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    for i in start..end {
        let mut rng = row_rng(seed, tag::SUPPLIER, i as u64);
        cols[0].push_i32(i as i32);
        cols[1].push_i32(i as i32); // s_name codes are positional
        cols[2].push_i32(rng.gen_range(0..25));
    }
}

fn fill_customer(seed: u64, start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    for i in start..end {
        let mut rng = row_rng(seed, tag::CUSTOMER, i as u64);
        cols[0].push_i32(i as i32);
        cols[1].push_i32(rng.gen_range(0..SEGMENTS.len() as i32));
        cols[2].push_i32(rng.gen_range(0..25));
        cols[3].push_f32(rng.gen_range(-999.99..9999.99));
    }
}

fn fill_part(seed: u64, start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    for i in start..end {
        let mut rng = row_rng(seed, tag::PART, i as u64);
        cols[0].push_i32(i as i32);
        cols[1].push_i32(rng.gen_range(0..BRANDS.len() as i32));
        cols[2].push_i32(rng.gen_range(0..CONTAINERS.len() as i32));
        cols[3].push_i32(rng.gen_range(0..TYPES.len() as i32));
        cols[4].push_i32(rng.gen_range(1..=50));
        cols[5].push_f32(rng.gen_range(900.0..2100.0));
    }
}

fn fill_partsupp(seed: u64, shape: Shape, start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    for i in start..end {
        let mut rng = row_rng(seed, tag::PARTSUPP, i as u64);
        cols[0].push_i32((i / 4) as i32);
        cols[1].push_i32(rng.gen_range(0..shape.num_suppliers as i32));
        cols[2].push_f32(rng.gen_range(1.0..1000.0));
        cols[3].push_f32(rng.gen_range(1.0..9999.0));
    }
}

fn fill_orders(seed: u64, shape: Shape, start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    let start_date = date_to_days(1992, 1, 1);
    let end_date = date_to_days(1998, 8, 2);
    for i in start..end {
        // Field order must match `order_date`'s re-derivation.
        let mut rng = row_rng(seed, tag::ORDERS, i as u64);
        let custkey = rng.gen_range(0..i32::MAX) % shape.num_customers as i32;
        cols[0].push_i32(i as i32);
        cols[1].push_i32(custkey);
        cols[2].push_i32(rng.gen_range(start_date..=end_date));
        cols[3].push_i32(rng.gen_range(0..PRIORITIES.len() as i32));
        // Roughly half the orders are fully shipped ('F', code 0).
        cols[4].push_i32(if i % 2 == 0 { 0 } else { 1 });
        cols[5].push_i32(0);
    }
}

fn fill_lineitem(seed: u64, shape: Shape, start: usize, end: usize, cols: &mut [&mut ChunkData]) {
    for order in start..end {
        let o_date = order_date(seed, order);
        let lines = order_line_count(seed, order);
        for line in 0..lines {
            // One derivation stream per (order, line) pair; the ×8 stride
            // leaves every pair its own counter slot (lines ≤ 7).
            let mut rng = row_rng(seed, tag::LINEITEM, (order as u64) * 8 + line as u64);
            cols[0].push_i32(order as i32);
            cols[1].push_i32(rng.gen_range(0..shape.num_parts as i32));
            cols[2].push_i32(rng.gen_range(0..shape.num_suppliers as i32));
            cols[3].push_f32(rng.gen_range(1..=50) as f32);
            cols[4].push_f32(rng.gen_range(900.0..105_000.0f32));
            cols[5].push_f32((rng.gen_range(0..=10) as f32) / 100.0);
            cols[6].push_f32((rng.gen_range(0..=8) as f32) / 100.0);
            cols[7].push_i32(rng.gen_range(0..RETURNFLAGS.len() as i32));
            cols[8].push_i32(rng.gen_range(0..LINESTATUS.len() as i32));
            let ship = o_date + rng.gen_range(1..=121);
            let commit = ship + rng.gen_range(-30..=30);
            let receipt = ship + rng.gen_range(1..=30);
            cols[9].push_i32(ship);
            cols[10].push_i32(commit);
            cols[11].push_i32(receipt);
            cols[12].push_i32(rng.gen_range(0..SHIPMODES.len() as i32));
            cols[13].push_i32(rng.gen_range(0..SHIPINSTRUCT.len() as i32));
        }
    }
}

/// Splits `units` chunk units into at most `chunks` contiguous ranges.
fn chunk_bounds(units: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, units.max(1));
    let per = units.div_ceil(chunks);
    let mut bounds = Vec::new();
    let mut start = 0;
    while start < units {
        let end = (start + per).min(units);
        bounds.push((start, end));
        start = end;
    }
    if bounds.is_empty() {
        bounds.push((0, 0));
    }
    bounds
}

/// All eight TPC-H tables as streaming [`ChunkedTable`]s, each split into
/// (up to) `chunks` chunks. No column data is generated by this call; rows
/// stream on scan through one reusable row group per table.
pub fn chunked_tables(config: &TpchConfig, chunks: usize) -> Vec<ChunkedTable> {
    let shape = Shape::of(config);
    TableKind::ALL
        .iter()
        .map(|&kind| {
            let bounds = chunk_bounds(kind.chunk_units(shape), chunks);
            let rows = kind.rows(config.seed, shape);
            let chunk_count = bounds.len();
            ChunkedTable::new(
                kind.name(),
                kind.schema(),
                rows,
                chunk_count,
                Arc::new(TpchChunks { seed: config.seed, shape, kind, bounds }),
            )
        })
        .collect()
}

/// [`chunked_tables`] sized so each chunk holds roughly `target_rows` rows
/// (per-order for lineitem, whose chunks land on order boundaries).
pub fn chunked_tables_by_rows(config: &TpchConfig, target_rows: usize) -> Vec<ChunkedTable> {
    let shape = Shape::of(config);
    let target = target_rows.max(1);
    TableKind::ALL
        .iter()
        .map(|&kind| {
            let units = kind.chunk_units(shape);
            let chunks = units.div_ceil(target).max(1);
            let bounds = chunk_bounds(units, chunks);
            let rows = kind.rows(config.seed, shape);
            let chunk_count = bounds.len();
            ChunkedTable::new(
                kind.name(),
                kind.schema(),
                rows,
                chunk_count,
                Arc::new(TpchChunks { seed: config.seed, shape, kind, bounds }),
            )
        })
        .collect()
}

/// The deterministic dictionaries of every string column: each literal
/// table is encoded in declaration order, so codes are positional (`code ==
/// index`) and independent of the generated rows.
fn build_dictionaries(config: &TpchConfig) -> Vec<(&'static str, &'static str, StringDictionary)> {
    let shape = Shape::of(config);
    let ordered = |values: &[&str]| {
        let mut dict = StringDictionary::new();
        for v in values {
            dict.encode(v);
        }
        dict
    };
    let mut supplier_names = StringDictionary::new();
    for i in 0..shape.num_suppliers {
        supplier_names.encode(&format!("Supplier#{i:09}"));
    }
    let nation_names: Vec<&str> = NATIONS.iter().map(|(n, _)| *n).collect();
    vec![
        ("region", "r_name", ordered(&REGIONS)),
        ("nation", "n_name", ordered(&nation_names)),
        ("supplier", "s_name", supplier_names),
        ("customer", "c_mktsegment", ordered(&SEGMENTS)),
        ("part", "p_brand", ordered(&BRANDS)),
        ("part", "p_container", ordered(&CONTAINERS)),
        ("part", "p_type", ordered(&TYPES)),
        ("orders", "o_orderpriority", ordered(&PRIORITIES)),
        ("orders", "o_orderstatus", ordered(&STATUSES)),
        ("lineitem", "l_shipmode", ordered(&SHIPMODES)),
        ("lineitem", "l_shipinstruct", ordered(&SHIPINSTRUCT)),
        ("lineitem", "l_returnflag", ordered(&RETURNFLAGS)),
        ("lineitem", "l_linestatus", ordered(&LINESTATUS)),
    ]
}

/// Default row-group granularity for materialising generation: small enough
/// that `generate` exercises the streaming path, large enough that chunk
/// overhead is noise.
const DEFAULT_CHUNK_ROWS: usize = 1 << 16;

impl TpchDb {
    /// Generates a resident database for the given configuration by
    /// streaming every table through the chunked generator and collecting
    /// the chunks into catalog BATs. Equal configurations produce equal
    /// databases regardless of chunking (see [`chunked_tables`]).
    pub fn generate(config: TpchConfig) -> TpchDb {
        TpchDb::generate_with_chunk_rows(config, DEFAULT_CHUNK_ROWS)
    }

    /// [`TpchDb::generate`] with an explicit row-group granularity — the
    /// determinism tests use this to compare monolithic (one chunk) against
    /// finely chunked generation.
    pub fn generate_with_chunk_rows(config: TpchConfig, chunk_rows: usize) -> TpchDb {
        let mut catalog = Catalog::new();
        for table in chunked_tables_by_rows(&config, chunk_rows) {
            catalog.add_table(table.collect());
        }
        for (table, column, dict) in build_dictionaries(&config) {
            catalog.add_dictionary(table, column, dict);
        }
        TpchDb { catalog, config }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The generator configuration this database was built with.
    pub fn config(&self) -> &TpchConfig {
        &self.config
    }

    /// Convenience accessor for a column BAT. Panics on unknown columns (a
    /// query referencing a missing column is a programming error).
    pub fn col(&self, table: &str, column: &str) -> &ocelot_storage::BatRef {
        self.catalog
            .column(table, column)
            .unwrap_or_else(|| panic!("unknown column {table}.{column}"))
    }

    /// The dictionary code of a string literal in `table.column`, or a
    /// sentinel that matches nothing when the literal never occurs.
    pub fn code(&self, table: &str, column: &str, literal: &str) -> i32 {
        self.catalog.encode_literal(table, column, literal).unwrap_or(i32::MIN + 1)
    }

    /// Decodes a dictionary code back to its string (for result rendering).
    pub fn decode(&self, table: &str, column: &str, code: i32) -> String {
        self.catalog
            .dictionary(table, column)
            .and_then(|d| d.decode(code))
            .unwrap_or("<unknown>")
            .to_string()
    }

    /// Total payload bytes across the database (the "input size" axis of the
    /// scaling experiments).
    pub fn payload_bytes(&self) -> usize {
        self.catalog.payload_bytes()
    }

    /// Number of lineitem rows (the dominant table).
    pub fn lineitem_rows(&self) -> usize {
        self.catalog.table("lineitem").map(|t| t.row_count()).unwrap_or(0)
    }
}

/// A copy of `catalog` whose order and customer keys are sparse: every value
/// `k` of a `*_orderkey` or `*_custkey` column becomes `3k + 1`, as official
/// TPC-H's `o_orderkey` is sparse. Every other column, the key flags and the
/// dictionaries stay, so the queries run unchanged — but no join on those
/// keys finds a dense key, and each one takes the hash path.
pub fn sparse_keys(catalog: &Catalog) -> Catalog {
    let mut sparse = catalog.clone();
    for name in catalog.table_names() {
        let Some(dense) = catalog.table(name) else { continue };
        let mut table = Table::new(name);
        for (column, bat) in dense.columns() {
            let remapped = match bat.as_i32() {
                Some(keys) if column.ends_with("_orderkey") || column.ends_with("_custkey") => {
                    let keys = keys.iter().map(|k| 3 * k + 1).collect();
                    Bat::from_i32_typed(column, keys, bat.column_type())
                        .with_key(bat.is_key())
                        .with_sorted(bat.is_sorted())
                        .into_ref()
                }
                _ => Arc::clone(bat),
            };
            table.add_column(column, remapped);
        }
        sparse.add_table(table);
    }
    sparse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 7 });
        let b = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 7 });
        assert_eq!(a.lineitem_rows(), b.lineitem_rows());
        assert_eq!(
            a.col("lineitem", "l_extendedprice").as_f32().unwrap()[..50],
            b.col("lineitem", "l_extendedprice").as_f32().unwrap()[..50]
        );
        let c = TpchDb::generate(TpchConfig { scale_factor: 0.002, seed: 8 });
        assert_ne!(
            a.col("lineitem", "l_extendedprice").as_f32().unwrap()[..50],
            c.col("lineitem", "l_extendedprice").as_f32().unwrap()[..50]
        );
    }

    #[test]
    fn schema_has_all_query_columns() {
        let db = TpchDb::generate(TpchConfig::new(0.001));
        for (table, column) in [
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_shipdate"),
            ("lineitem", "l_discount"),
            ("lineitem", "l_shipmode"),
            ("orders", "o_orderdate"),
            ("orders", "o_orderpriority"),
            ("customer", "c_mktsegment"),
            ("supplier", "s_nationkey"),
            ("nation", "n_name"),
            ("region", "r_name"),
            ("part", "p_brand"),
            ("partsupp", "ps_supplycost"),
        ] {
            assert!(db.catalog().column(table, column).is_some(), "{table}.{column}");
        }
    }

    #[test]
    fn foreign_keys_reference_existing_rows() {
        let db = TpchDb::generate(TpchConfig::new(0.002));
        let num_orders = db.col("orders", "o_orderkey").len() as i32;
        let num_parts = db.col("part", "p_partkey").len() as i32;
        let num_suppliers = db.col("supplier", "s_suppkey").len() as i32;
        let num_customers = db.col("customer", "c_custkey").len() as i32;
        for &fk in db.col("lineitem", "l_orderkey").as_i32().unwrap() {
            assert!(fk >= 0 && fk < num_orders);
        }
        for &fk in db.col("lineitem", "l_partkey").as_i32().unwrap() {
            assert!(fk >= 0 && fk < num_parts);
        }
        for &fk in db.col("lineitem", "l_suppkey").as_i32().unwrap() {
            assert!(fk >= 0 && fk < num_suppliers);
        }
        for &fk in db.col("orders", "o_custkey").as_i32().unwrap() {
            assert!(fk >= 0 && fk < num_customers);
        }
    }

    #[test]
    fn scale_factor_controls_row_counts() {
        let small = TpchDb::generate(TpchConfig::new(0.001));
        let large = TpchDb::generate(TpchConfig::new(0.004));
        assert!(large.lineitem_rows() > 2 * small.lineitem_rows());
        assert!(large.payload_bytes() > small.payload_bytes());
    }

    #[test]
    fn string_literals_resolve_to_codes() {
        let db = TpchDb::generate(TpchConfig::new(0.002));
        let code = db.code("customer", "c_mktsegment", "BUILDING");
        assert!(code >= 0);
        assert_eq!(db.decode("customer", "c_mktsegment", code), "BUILDING");
        // Unknown literals resolve to a sentinel that matches nothing.
        let missing = db.code("customer", "c_mktsegment", "NOT A SEGMENT");
        assert!(!db.col("customer", "c_mktsegment").as_i32().unwrap().contains(&missing));
    }

    #[test]
    fn date_ranges_match_tpch() {
        let db = TpchDb::generate(TpchConfig::new(0.002));
        let lo = date_to_days(1992, 1, 1);
        let hi = date_to_days(1998, 12, 31);
        for &d in db.col("orders", "o_orderdate").as_i32().unwrap() {
            assert!(d >= lo && d <= hi);
        }
    }

    #[test]
    fn order_date_rederivation_matches_orders_table() {
        let config = TpchConfig { scale_factor: 0.002, seed: 11 };
        let db = TpchDb::generate(config.clone());
        let dates = db.col("orders", "o_orderdate").as_i32().unwrap();
        for (i, &d) in dates.iter().enumerate().step_by(37) {
            assert_eq!(order_date(config.seed, i), d, "order {i}");
        }
    }
}
