//! Tables and the catalog.
//!
//! A [`Table`] is a named collection of equally long BATs (one per column),
//! and the [`Catalog`] is the per-database registry of tables plus the
//! string dictionaries their `StrCode` columns were encoded with. The TPC-H
//! generator in `ocelot-tpch` populates a catalog; the query layer resolves
//! `table.column` references against it.

use crate::bat::BatRef;
use crate::dictionary::StringDictionary;
use std::collections::HashMap;

/// A named collection of equally long columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: Vec<(String, BatRef)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str) -> Table {
        Table { name: name.to_string(), columns: Vec::new() }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a column. Panics if a column of that name exists or if the
    /// column length disagrees with the existing columns.
    pub fn add_column(&mut self, name: &str, bat: BatRef) -> &mut Self {
        assert!(
            self.column(name).is_none(),
            "table '{}' already has a column named '{name}'",
            self.name
        );
        if let Some((_, first)) = self.columns.first() {
            assert_eq!(
                first.len(),
                bat.len(),
                "column '{name}' has {} rows but table '{}' has {}",
                bat.len(),
                self.name,
                first.len()
            );
        }
        self.columns.push((name.to_string(), bat));
        self
    }

    /// Builder-style [`Table::add_column`].
    pub fn with_column(mut self, name: &str, bat: BatRef) -> Self {
        self.add_column(name, bat);
        self
    }

    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Option<&BatRef> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, b)| b)
    }

    /// Number of rows (0 for a table without columns).
    pub fn row_count(&self) -> usize {
        self.columns.first().map(|(_, b)| b.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// All column names in declaration order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Iterates over `(name, column)` pairs.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &BatRef)> {
        self.columns.iter().map(|(n, b)| (n.as_str(), b))
    }

    /// Approximate in-memory footprint of the table's column payloads.
    pub fn payload_bytes(&self) -> usize {
        self.columns.iter().map(|(_, b)| b.len() * 4).sum()
    }
}

/// Process-wide source of catalog generation numbers (see
/// [`Catalog::generation`]).
static NEXT_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The per-database registry of tables and string dictionaries.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    dictionaries: HashMap<String, StringDictionary>,
    /// Process-unique version of this catalog's *contents*: assigned fresh
    /// at construction and bumped on every table/dictionary registration.
    /// Consumers that memoise anything derived from the contents (compiled
    /// plans) key their memo on this value, so a re-generated database of
    /// the same shape can never reuse stale entries. Cloning preserves the
    /// generation — a clone holds the same data.
    generation: u64,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog::new()
    }
}

impl Catalog {
    /// Creates an empty catalog with a fresh, process-unique generation.
    pub fn new() -> Catalog {
        Catalog {
            tables: HashMap::new(),
            dictionaries: HashMap::new(),
            generation: fresh_generation(),
        }
    }

    /// The content version of this catalog (see the field docs). Two
    /// catalogs never share a generation unless one is a clone of the
    /// other, and any mutation moves the catalog to a new generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Registers a table, replacing any previous table of the same name.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
        self.generation = fresh_generation();
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Looks a column up as `table.column`.
    pub fn column(&self, table: &str, column: &str) -> Option<&BatRef> {
        self.tables.get(table).and_then(|t| t.column(column))
    }

    /// Registers the dictionary a string column was encoded with, keyed by
    /// `table.column`.
    pub fn add_dictionary(&mut self, table: &str, column: &str, dict: StringDictionary) {
        self.dictionaries.insert(format!("{table}.{column}"), dict);
        self.generation = fresh_generation();
    }

    /// The dictionary for `table.column`, if that column is a string column.
    pub fn dictionary(&self, table: &str, column: &str) -> Option<&StringDictionary> {
        self.dictionaries.get(&format!("{table}.{column}"))
    }

    /// Encodes a string literal against the dictionary of `table.column`.
    /// Returns `None` when the literal never occurs in the data (an equality
    /// selection against it matches nothing).
    pub fn encode_literal(&self, table: &str, column: &str, literal: &str) -> Option<i32> {
        self.dictionary(table, column).and_then(|d| d.lookup(literal))
    }

    /// Names of all registered tables (unordered).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Total payload bytes across all tables.
    pub fn payload_bytes(&self) -> usize {
        self.tables.values().map(|t| t.payload_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::Bat;

    fn table() -> Table {
        Table::new("t")
            .with_column("a", Bat::from_i32("a", vec![1, 2, 3]).into_ref())
            .with_column("b", Bat::from_f32("b", vec![0.5, 1.5, 2.5]).into_ref())
    }

    #[test]
    fn table_basics() {
        let t = table();
        assert_eq!(t.name(), "t");
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.column_names(), vec!["a", "b"]);
        assert!(t.column("a").is_some());
        assert!(t.column("missing").is_none());
        assert_eq!(t.payload_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "already has a column")]
    fn duplicate_column_panics() {
        table().with_column("a", Bat::from_i32("a", vec![1, 2, 3]).into_ref());
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn mismatched_length_panics() {
        table().with_column("c", Bat::from_i32("c", vec![1]).into_ref());
    }

    #[test]
    fn catalog_lookup() {
        let mut catalog = Catalog::new();
        catalog.add_table(table());
        assert!(catalog.table("t").is_some());
        assert!(catalog.table("nope").is_none());
        assert_eq!(catalog.column("t", "a").unwrap().len(), 3);
        assert!(catalog.column("t", "zzz").is_none());
        assert_eq!(catalog.table_names(), vec!["t"]);
        assert_eq!(catalog.payload_bytes(), 24);
    }

    #[test]
    fn catalog_dictionaries() {
        let mut catalog = Catalog::new();
        let mut dict = StringDictionary::new();
        let codes = dict.encode_all(["AIR", "MAIL", "AIR"]);
        let t = Table::new("lineitem").with_column(
            "l_shipmode",
            Bat::from_i32_typed("l_shipmode", codes, crate::types::ColumnType::StrCode).into_ref(),
        );
        catalog.add_table(t);
        catalog.add_dictionary("lineitem", "l_shipmode", dict);

        assert_eq!(catalog.encode_literal("lineitem", "l_shipmode", "AIR"), Some(0));
        assert_eq!(catalog.encode_literal("lineitem", "l_shipmode", "SHIP"), None);
        assert_eq!(catalog.encode_literal("lineitem", "missing", "AIR"), None);
        assert!(catalog.dictionary("lineitem", "l_shipmode").is_some());
    }

    #[test]
    fn generations_are_unique_and_bump_on_mutation() {
        let mut a = Catalog::new();
        let b = Catalog::new();
        assert_ne!(a.generation(), b.generation());

        let clone = a.clone();
        assert_eq!(a.generation(), clone.generation());

        let before = a.generation();
        a.add_table(table());
        let after_table = a.generation();
        assert_ne!(before, after_table);

        a.add_dictionary("t", "a", StringDictionary::new());
        assert_ne!(after_table, a.generation());
        // The clone kept the pre-mutation generation.
        assert_eq!(clone.generation(), before);
    }

    #[test]
    fn empty_table_has_zero_rows() {
        let t = Table::new("empty");
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.column_count(), 0);
    }
}
