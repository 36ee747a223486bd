//! Column types and scalar values.
//!
//! The paper limits Ocelot to four-byte integer and floating point data
//! (§3.1); DECIMAL columns become REAL, dates become day numbers, and
//! strings are dictionary-encoded integer codes that only support equality
//! (Appendix A). The types here encode exactly that restriction.

/// Tuple identifier (MonetDB OID). Dense BAT heads are virtual, so OIDs are
/// simply row positions.
pub type Oid = u32;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 32-bit signed integer.
    Int,
    /// 32-bit IEEE-754 float (the paper's replacement for DECIMAL).
    Real,
    /// 32-bit tuple identifier.
    Oid,
    /// Date stored as days since 1970-01-01 in a 32-bit integer.
    Date,
    /// Dictionary code of a string column (equality comparisons only).
    StrCode,
}

impl ColumnType {
    /// Whether the column is stored as a signed 32-bit integer word.
    pub fn is_integer_like(self) -> bool {
        !matches!(self, ColumnType::Real)
    }

    /// Size of one value in bytes (always four — the paper's restriction).
    pub fn value_bytes(self) -> usize {
        4
    }
}

/// A single scalar value, used for query results and literals.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 32-bit integer (also used for dates and string codes).
    Int(i32),
    /// 32-bit float.
    Real(f32),
    /// Tuple identifier.
    Oid(Oid),
}

impl Value {
    /// The integer payload, if this is an integer-like value.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Oid(v) => Some(*v as i32),
            Value::Real(_) => None,
        }
    }

    /// The float payload, converting integers losslessly where possible.
    pub fn as_real(&self) -> Option<f32> {
        match self {
            Value::Real(v) => Some(*v),
            Value::Int(v) => Some(*v as f32),
            Value::Oid(v) => Some(*v as f32),
        }
    }
}

/// A comparison between two values — the operator of a predicate, shared by
/// the logical algebra and by every backend's column-vs-column selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

impl CmpOp {
    /// SQL-ish rendering.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
        }
    }
}

/// Converts a calendar date to the day-number representation used by date
/// columns (days since 1970-01-01, proleptic Gregorian).
pub fn date_to_days(year: i32, month: u32, day: u32) -> i32 {
    // Howard Hinnant's civil-from-days algorithm, inverted.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (month as i32 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + day as i32 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Converts a day number back to `(year, month, day)`.
pub fn days_to_date(days: i32) -> (i32, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if m <= 2 { y + 1 } else { y };
    (year, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(-3).as_int(), Some(-3));
        assert_eq!(Value::Oid(7).as_int(), Some(7));
        assert_eq!(Value::Real(1.5).as_int(), None);
        assert_eq!(Value::Real(1.5).as_real(), Some(1.5));
        assert_eq!(Value::Int(2).as_real(), Some(2.0));
    }

    #[test]
    fn column_types_are_four_bytes() {
        for ty in [
            ColumnType::Int,
            ColumnType::Real,
            ColumnType::Oid,
            ColumnType::Date,
            ColumnType::StrCode,
        ] {
            assert_eq!(ty.value_bytes(), 4);
        }
        assert!(ColumnType::Int.is_integer_like());
        assert!(!ColumnType::Real.is_integer_like());
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(date_to_days(1970, 1, 1), 0);
        assert_eq!(days_to_date(0), (1970, 1, 1));
    }

    #[test]
    fn known_tpch_dates_round_trip() {
        // TPC-H date range: 1992-01-01 .. 1998-12-31.
        for (y, m, d) in [(1992, 1, 1), (1995, 6, 17), (1998, 12, 31), (1994, 2, 28), (1996, 2, 29)]
        {
            let days = date_to_days(y, m, d);
            assert_eq!(days_to_date(days), (y, m, d), "date {y}-{m}-{d}");
        }
    }

    #[test]
    fn date_ordering_matches_day_numbers() {
        assert!(date_to_days(1995, 1, 1) < date_to_days(1995, 1, 2));
        assert!(date_to_days(1994, 12, 31) < date_to_days(1995, 1, 1));
        assert!(date_to_days(1992, 1, 1) < date_to_days(1998, 12, 31));
    }
}
