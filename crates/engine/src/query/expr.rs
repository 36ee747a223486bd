//! The logical expression tree of the query algebra.
//!
//! An [`Expr`] is a *logical* value or predicate over named columns —
//! nothing in it names a physical operator. The lowering pass decides how
//! an expression executes: a comparison against a literal becomes a
//! range/equality **selection** (with candidate-list chaining), a
//! column-vs-column comparison and an `IN` list each become one selection
//! of their own kind, and arithmetic becomes the backend's element-wise map
//! kernels.
//!
//! Expressions are built with [`col`], [`lit`]/[`litf`] and the fluent
//! comparison/boolean methods, plus the std `+ - *` operators:
//!
//! ```
//! use ocelot_engine::query::{col, lit};
//! let revenue = col("l_extendedprice") * (lit(1.0f32) - col("l_discount"));
//! let window = col("l_shipdate").between(8766, 9131).and(col("l_discount").ge(0.05f32));
//! ```
//!
//! [`Expr::fold`] is the constant-folding rewrite: literal arithmetic is
//! evaluated at plan-build time (`1 + 2 → 3`, with int→float promotion when
//! the sides mix), so the lowered plan never computes a constant on the
//! device.

use std::fmt;

pub use ocelot_storage::CmpOp;

/// A logical scalar expression over named columns (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, by name.
    Col(String),
    /// An integer literal (also dictionary codes and day-number dates).
    LitI32(i32),
    /// A float literal.
    LitF32(f32),
    /// `a + b`.
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`.
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`.
    Mul(Box<Expr>, Box<Expr>),
    /// `a <op> b` (a predicate).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `a AND b`.
    And(Box<Expr>, Box<Expr>),
    /// `a OR b`.
    Or(Box<Expr>, Box<Expr>),
    /// `lo <= a <= b` (inclusive on both ends).
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `a IN (v1, v2, …)` over integer codes.
    InList(Box<Expr>, Vec<i32>),
    /// Calendar year of a day-number date expression.
    Year(Box<Expr>),
    /// A query parameter placeholder, `$id`. Parameterized queries are
    /// built once per *shape* with `Param` slots where literals would go
    /// and executed with [`crate::query::Query::bind`], which substitutes
    /// the run's literals positionally. A query still holding parameters
    /// cannot be lowered — lowering reports the first unbound slot.
    Param(u32),
}

/// A column reference.
pub fn col(name: &str) -> Expr {
    Expr::Col(name.to_string())
}

/// An integer or float literal (via the `From` conversions).
pub fn lit(value: impl Into<Expr>) -> Expr {
    value.into()
}

/// A float literal.
pub fn litf(value: f32) -> Expr {
    Expr::LitF32(value)
}

/// A parameter placeholder, `$id` (see [`Expr::Param`]). Slots are
/// numbered densely from zero; the same slot may appear at several sites
/// (each occurrence receives the same bound value).
pub fn param(id: u32) -> Expr {
    Expr::Param(id)
}

impl From<i32> for Expr {
    fn from(value: i32) -> Expr {
        Expr::LitI32(value)
    }
}

impl From<f32> for Expr {
    fn from(value: f32) -> Expr {
        Expr::LitF32(value)
    }
}

impl Expr {
    fn cmp(self, op: CmpOp, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(rhs.into()))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Ge, rhs)
    }

    /// `self = rhs`. (Shadows `PartialEq::eq` on purpose — inherent
    /// methods win, and `==` still goes through `PartialEq`.)
    pub fn eq(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Eq, rhs)
    }

    /// `self <> rhs`.
    pub fn ne(self, rhs: impl Into<Expr>) -> Expr {
        self.cmp(CmpOp::Ne, rhs)
    }

    /// `lo <= self <= hi`, inclusive on both ends.
    pub fn between(self, lo: impl Into<Expr>, hi: impl Into<Expr>) -> Expr {
        Expr::Between(Box::new(self), Box::new(lo.into()), Box::new(hi.into()))
    }

    /// `self IN (values…)` over integer codes.
    pub fn in_list(self, values: &[i32]) -> Expr {
        Expr::InList(Box::new(self), values.to_vec())
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// Calendar year of a day-number date expression.
    pub fn year(self) -> Expr {
        Expr::Year(Box::new(self))
    }

    /// Every column name the expression references, in first-use order.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(name) => {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
            Expr::LitI32(_) | Expr::LitF32(_) | Expr::Param(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Between(a, lo, hi) => {
                a.collect_columns(out);
                lo.collect_columns(out);
                hi.collect_columns(out);
            }
            Expr::InList(a, _) | Expr::Year(a) => a.collect_columns(out),
        }
    }

    /// Splits a conjunction into its conjuncts (an `AND`-free expression is
    /// its own single conjunct).
    pub fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other.clone()],
        }
    }

    /// Constant folding: evaluates literal subtrees at build time. Returns
    /// the folded expression and whether anything changed.
    pub fn fold(&self) -> (Expr, bool) {
        match self {
            Expr::Col(_) | Expr::LitI32(_) | Expr::LitF32(_) | Expr::Param(_) => {
                (self.clone(), false)
            }
            Expr::Add(a, b) => Expr::fold_arith(a, b, Expr::Add, |x, y| x + y, |x, y| x + y),
            Expr::Sub(a, b) => Expr::fold_arith(a, b, Expr::Sub, |x, y| x - y, |x, y| x - y),
            Expr::Mul(a, b) => Expr::fold_arith(a, b, Expr::Mul, |x, y| x * y, |x, y| x * y),
            Expr::Cmp(op, a, b) => {
                let ((a, ca), (b, cb)) = (a.fold(), b.fold());
                (Expr::Cmp(*op, Box::new(a), Box::new(b)), ca || cb)
            }
            Expr::And(a, b) => {
                let ((a, ca), (b, cb)) = (a.fold(), b.fold());
                (Expr::And(Box::new(a), Box::new(b)), ca || cb)
            }
            Expr::Or(a, b) => {
                let ((a, ca), (b, cb)) = (a.fold(), b.fold());
                (Expr::Or(Box::new(a), Box::new(b)), ca || cb)
            }
            Expr::Between(a, lo, hi) => {
                let ((a, ca), (lo, cl), (hi, ch)) = (a.fold(), lo.fold(), hi.fold());
                (Expr::Between(Box::new(a), Box::new(lo), Box::new(hi)), ca || cl || ch)
            }
            Expr::InList(a, values) => {
                let (a, changed) = a.fold();
                (Expr::InList(Box::new(a), values.clone()), changed)
            }
            Expr::Year(a) => {
                let (a, changed) = a.fold();
                (Expr::Year(Box::new(a)), changed)
            }
        }
    }

    fn fold_arith(
        a: &Expr,
        b: &Expr,
        rebuild: fn(Box<Expr>, Box<Expr>) -> Expr,
        int: fn(i32, i32) -> i32,
        float: fn(f32, f32) -> f32,
    ) -> (Expr, bool) {
        let ((a, ca), (b, cb)) = (a.fold(), b.fold());
        match (&a, &b) {
            (Expr::LitI32(x), Expr::LitI32(y)) => (Expr::LitI32(int(*x, *y)), true),
            (Expr::LitF32(x), Expr::LitF32(y)) => (Expr::LitF32(float(*x, *y)), true),
            (Expr::LitI32(x), Expr::LitF32(y)) => (Expr::LitF32(float(*x as f32, *y)), true),
            (Expr::LitF32(x), Expr::LitI32(y)) => (Expr::LitF32(float(*x, *y as f32)), true),
            _ => (rebuild(Box::new(a), Box::new(b)), ca || cb),
        }
    }

    /// Whether the expression is a bare literal.
    pub fn as_lit_i32(&self) -> Option<i32> {
        match self {
            Expr::LitI32(v) => Some(*v),
            _ => None,
        }
    }

    /// The literal value as a float, if the expression is a literal.
    pub fn as_lit_f32(&self) -> Option<f32> {
        match self {
            Expr::LitI32(v) => Some(*v as f32),
            Expr::LitF32(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether any [`Expr::Param`] slot remains in the expression.
    pub fn has_params(&self) -> bool {
        let mut ids = Vec::new();
        self.collect_params(&mut ids);
        !ids.is_empty()
    }

    /// Every parameter slot the expression mentions, in first-use order
    /// (each id once, even when a slot occurs at several sites).
    pub fn params(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out
    }

    pub(crate) fn collect_params(&self, out: &mut Vec<u32>) {
        match self {
            Expr::Param(id) => {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
            Expr::Col(_) | Expr::LitI32(_) | Expr::LitF32(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
            Expr::Between(a, lo, hi) => {
                a.collect_params(out);
                lo.collect_params(out);
                hi.collect_params(out);
            }
            Expr::InList(a, _) | Expr::Year(a) => a.collect_params(out),
        }
    }

    /// Replaces every parameter slot for which `value(id)` returns a
    /// literal with that literal. Slots `value` maps to `None` stay in
    /// place (the caller reports them as unbound).
    pub(crate) fn substitute(&self, value: &impl Fn(u32) -> Option<Expr>) -> Expr {
        match self {
            Expr::Param(id) => value(*id).unwrap_or_else(|| self.clone()),
            Expr::Col(_) | Expr::LitI32(_) | Expr::LitF32(_) => self.clone(),
            Expr::Add(a, b) => {
                Expr::Add(Box::new(a.substitute(value)), Box::new(b.substitute(value)))
            }
            Expr::Sub(a, b) => {
                Expr::Sub(Box::new(a.substitute(value)), Box::new(b.substitute(value)))
            }
            Expr::Mul(a, b) => {
                Expr::Mul(Box::new(a.substitute(value)), Box::new(b.substitute(value)))
            }
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.substitute(value)), Box::new(b.substitute(value)))
            }
            Expr::And(a, b) => {
                Expr::And(Box::new(a.substitute(value)), Box::new(b.substitute(value)))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.substitute(value)), Box::new(b.substitute(value)))
            }
            Expr::Between(a, lo, hi) => Expr::Between(
                Box::new(a.substitute(value)),
                Box::new(lo.substitute(value)),
                Box::new(hi.substitute(value)),
            ),
            Expr::InList(a, values) => Expr::InList(Box::new(a.substitute(value)), values.clone()),
            Expr::Year(a) => Expr::Year(Box::new(a.substitute(value))),
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => write!(f, "{name}"),
            Expr::LitI32(v) => write!(f, "{v}"),
            Expr::LitF32(v) => write!(f, "{v:?}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Between(a, lo, hi) => write!(f, "{a} BETWEEN {lo} AND {hi}"),
            Expr::InList(a, values) => {
                write!(f, "{a} IN (")?;
                for (index, value) in values.iter().enumerate() {
                    if index > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{value}")?;
                }
                write!(f, ")")
            }
            Expr::Year(a) => write!(f, "YEAR({a})"),
            Expr::Param(id) => write!(f, "${id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_the_expected_tree() {
        let e = col("a").between(1, 9).and(col("b").eq(3).or(col("c").lt(0.5f32)));
        assert_eq!(e.columns(), vec!["a".to_string(), "b".to_string(), "c".to_string()]);
        assert_eq!(e.conjuncts().len(), 2);
        assert_eq!(e.to_string(), "(a BETWEEN 1 AND 9 AND (b = 3 OR c < 0.5))");
    }

    #[test]
    fn constant_folding_evaluates_literal_subtrees() {
        let (folded, changed) = (lit(2) + lit(3) * lit(4)).fold();
        assert!(changed);
        assert_eq!(folded, Expr::LitI32(14));

        // Mixed int/float promotes to float.
        let (folded, changed) = (lit(1) - lit(0.25f32)).fold();
        assert!(changed);
        assert_eq!(folded, Expr::LitF32(0.75));

        // Folding reaches inside predicates without touching columns.
        let (folded, changed) = col("x").between(lit(10) + lit(5), lit(20)).fold();
        assert!(changed);
        assert_eq!(folded, col("x").between(15, 20));

        let (folded, changed) = (col("a") * col("b")).fold();
        assert!(!changed);
        assert_eq!(folded, col("a") * col("b"));
    }

    #[test]
    fn params_render_collect_and_substitute() {
        let e = col("a").between(param(0), param(1)).and(col("b").le(param(0)));
        assert_eq!(e.to_string(), "(a BETWEEN $0 AND $1 AND b <= $0)");
        assert!(e.has_params());
        assert_eq!(e.params(), vec![0, 1]);

        let bound = e.substitute(&|id| Some(Expr::LitI32(id as i32 + 10)));
        assert!(!bound.has_params());
        assert_eq!(bound, col("a").between(10, 11).and(col("b").le(10)));

        // Unmapped slots stay in place for the caller to report.
        let partial = e.substitute(&|id| (id == 0).then_some(Expr::LitI32(7)));
        assert_eq!(partial.params(), vec![1]);

        // Folding and column collection treat params as opaque leaves.
        let (folded, changed) = (param(2) * col("x")).fold();
        assert!(!changed);
        assert_eq!(folded, param(2) * col("x"));
        assert_eq!(e.columns(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = col("a").eq(1).and(col("b").eq(2)).and(col("c").eq(3).and(col("d").eq(4)));
        assert_eq!(e.conjuncts().len(), 4);
    }
}
