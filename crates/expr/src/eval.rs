//! Evaluation of bound expressions with SQL three-valued logic.
//!
//! Conventions:
//!
//! * `NULL` propagates through comparisons, arithmetic and most functions.
//! * `AND`/`OR` short-circuit with Kleene semantics
//!   (`FALSE AND NULL = FALSE`, `TRUE OR NULL = TRUE`).
//! * Integer arithmetic is checked — overflow is an error, not a wrap.
//! * Division by zero and `x % 0` evaluate to `NULL` (one bad event must
//!   not poison a million-event stream; callers treat `NULL` predicates as
//!   non-matches).
//!
//! The tree walker operates on **borrowed** values ([`Cow<Value>`]):
//! field accesses, comparisons, `IS NULL` and `LIKE` never clone record
//! payloads, so this interpreter is an honest differential-testing oracle
//! for the compiled engine ([`crate::compile`]) rather than a clone-heavy
//! strawman. The shared semantics helpers (`three_and`, `three_cmp`,
//! `arith`, …) are the single source of truth used by both engines.
//!
//! Role: this interpreter is not on the engine's evaluation path. It is
//! the compiler's constant folder (field-free subtrees are evaluated
//! here once, at compile time) and the differential oracle the compiled
//! and batch VMs are tested against.

use std::borrow::Cow;

use evdb_types::{Error, Record, Result, Value};

use crate::ast::{BinaryOp, UnaryOp};
use crate::bind::BoundExpr;
use crate::like::like_match;

/// A `Null` with a `'static` borrow, for absent record fields.
pub(crate) static NULL: Value = Value::Null;

impl BoundExpr {
    /// Evaluate against one record.
    pub fn eval(&self, record: &Record) -> Result<Value> {
        self.eval_ref(record).map(Cow::into_owned)
    }

    /// Evaluate as a predicate: `NULL` and `FALSE` are both "no match".
    pub fn matches(&self, record: &Record) -> Result<bool> {
        Ok(self.eval_ref(record)?.as_bool().unwrap_or(false))
    }

    /// Evaluate, borrowing literals and record fields instead of cloning.
    pub(crate) fn eval_ref<'e>(&'e self, record: &'e Record) -> Result<Cow<'e, Value>> {
        match self {
            BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            BoundExpr::Field(i) => Ok(Cow::Borrowed(record.get(*i).unwrap_or(&NULL))),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval_ref(record)?;
                match op {
                    UnaryOp::Not => not_value(&v).map(Cow::Owned),
                    UnaryOp::Neg => neg_value(&v).map(Cow::Owned),
                }
            }
            BoundExpr::Binary { op, left, right } => eval_binary(*op, left, right, record),
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval_ref(record)?;
                Ok(Cow::Owned(Value::Bool(v.is_null() != *negated)))
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_ref(record)?;
                let lo = low.eval_ref(record)?;
                let hi = high.eval_ref(record)?;
                let ge = three_cmp(&v, &lo, BinaryOp::Ge)?;
                let le = three_cmp(&v, &hi, BinaryOp::Le)?;
                let both = three_and(&ge, &le);
                Ok(Cow::Owned(three_negate(&both, *negated)))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_ref(record)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval_ref(record)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if matches!(v.sql_cmp(&iv), Some(std::cmp::Ordering::Equal)) {
                        return Ok(Cow::Owned(Value::Bool(!*negated)));
                    }
                }
                if saw_null {
                    Ok(Cow::Owned(Value::Null))
                } else {
                    Ok(Cow::Owned(Value::Bool(*negated)))
                }
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_ref(record)?;
                let p = pattern.eval_ref(record)?;
                like_values(&v, &p, *negated).map(Cow::Owned)
            }
            BoundExpr::Func { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval_ref(record)?.into_owned());
                }
                (func.call)(&vals).map(Cow::Owned)
            }
            BoundExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let scrutinee = match operand {
                    Some(o) => Some(o.eval_ref(record)?),
                    None => None,
                };
                for (w, t) in branches {
                    let taken = match &scrutinee {
                        // Operand form: equality; a NULL scrutinee
                        // matches no branch (SQL semantics).
                        Some(s) => {
                            let wv = w.eval_ref(record)?;
                            matches!(s.sql_cmp(&wv), Some(std::cmp::Ordering::Equal))
                        }
                        // Searched form: boolean condition (NULL ⇒ no).
                        None => w.eval_ref(record)?.as_bool().unwrap_or(false),
                    };
                    if taken {
                        return t.eval_ref(record);
                    }
                }
                match else_expr {
                    Some(e) => e.eval_ref(record),
                    None => Ok(Cow::Owned(Value::Null)),
                }
            }
        }
    }
}

fn eval_binary<'e>(
    op: BinaryOp,
    left: &'e BoundExpr,
    right: &'e BoundExpr,
    record: &'e Record,
) -> Result<Cow<'e, Value>> {
    match op {
        BinaryOp::And => {
            // Kleene AND with short circuit on FALSE.
            let l = left.eval_ref(record)?;
            if l.as_bool() == Some(false) {
                return Ok(Cow::Owned(Value::Bool(false)));
            }
            let r = right.eval_ref(record)?;
            Ok(Cow::Owned(three_and(&l, &r)))
        }
        BinaryOp::Or => {
            let l = left.eval_ref(record)?;
            if l.as_bool() == Some(true) {
                return Ok(Cow::Owned(Value::Bool(true)));
            }
            let r = right.eval_ref(record)?;
            Ok(Cow::Owned(three_or(&l, &r)))
        }
        _ if op.is_comparison() => {
            let l = left.eval_ref(record)?;
            let r = right.eval_ref(record)?;
            three_cmp(&l, &r, op).map(Cow::Owned)
        }
        _ => {
            let l = left.eval_ref(record)?;
            let r = right.eval_ref(record)?;
            arith(op, &l, &r).map(Cow::Owned)
        }
    }
}

// ---- shared semantics helpers (used by the interpreter AND the VM) ----

/// Kleene `NOT`; errors on non-boolean non-null operands.
pub(crate) fn not_value(v: &Value) -> Result<Value> {
    match v.as_bool() {
        Some(b) => Ok(Value::Bool(!b)),
        None if v.is_null() => Ok(Value::Null),
        None => Err(Error::Type(format!("NOT applied to {v}"))),
    }
}

/// Checked numeric negation.
pub(crate) fn neg_value(v: &Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or_else(|| {
            Error::Invalid("negation overflow".into())
        })?)),
        Value::Float(f) => Ok(Value::Float(-f)),
        v => Err(Error::Type(format!("unary - applied to {v}"))),
    }
}

/// SQL `LIKE` over two evaluated operands.
pub(crate) fn like_values(v: &Value, p: &Value, negated: bool) -> Result<Value> {
    match (v.as_str(), p.as_str()) {
        (Some(s), Some(pat)) => Ok(Value::Bool(like_match(s, pat) != negated)),
        _ if v.is_null() || p.is_null() => Ok(Value::Null),
        _ => Err(Error::Type(format!("LIKE applied to {v} / {p}"))),
    }
}

pub(crate) fn three_and(a: &Value, b: &Value) -> Value {
    match (a.as_bool(), b.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

pub(crate) fn three_or(a: &Value, b: &Value) -> Value {
    match (a.as_bool(), b.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

pub(crate) fn three_negate(v: &Value, negate: bool) -> Value {
    match (v.as_bool(), negate) {
        (Some(b), true) => Value::Bool(!b),
        (Some(b), false) => Value::Bool(b),
        (None, _) => Value::Null,
    }
}

pub(crate) fn three_cmp(l: &Value, r: &Value, op: BinaryOp) -> Result<Value> {
    match l.sql_cmp(r) {
        None if l.is_null() || r.is_null() => Ok(Value::Null),
        None => Err(Error::Type(format!("cannot compare {l} with {r}"))),
        Some(ord) => {
            let b = match op {
                BinaryOp::Eq => ord == std::cmp::Ordering::Equal,
                BinaryOp::Ne => ord != std::cmp::Ordering::Equal,
                BinaryOp::Lt => ord == std::cmp::Ordering::Less,
                BinaryOp::Le => ord != std::cmp::Ordering::Greater,
                BinaryOp::Gt => ord == std::cmp::Ordering::Greater,
                BinaryOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!("non-comparison op in three_cmp"),
            };
            Ok(Value::Bool(b))
        }
    }
}

pub(crate) fn arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            match op {
                BinaryOp::Add => a
                    .checked_add(b)
                    .map(Value::Int)
                    .ok_or_else(|| Error::Invalid("integer overflow in +".into())),
                BinaryOp::Sub => a
                    .checked_sub(b)
                    .map(Value::Int)
                    .ok_or_else(|| Error::Invalid("integer overflow in -".into())),
                BinaryOp::Mul => a
                    .checked_mul(b)
                    .map(Value::Int)
                    .ok_or_else(|| Error::Invalid("integer overflow in *".into())),
                BinaryOp::Div => {
                    if b == 0 {
                        Ok(Value::Null)
                    } else {
                        Ok(Value::Float(a as f64 / b as f64))
                    }
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        Ok(Value::Null)
                    } else {
                        // checked: i64::MIN.rem_euclid(-1) would overflow.
                        a.checked_rem_euclid(b)
                            .map(Value::Int)
                            .ok_or_else(|| Error::Invalid("integer overflow in %".into()))
                    }
                }
                _ => unreachable!(),
            }
        }
        _ => {
            let a = l
                .as_f64()
                .ok_or_else(|| Error::Type(format!("arithmetic on {l}")))?;
            let b = r
                .as_f64()
                .ok_or_else(|| Error::Type(format!("arithmetic on {r}")))?;
            let out = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a.rem_euclid(b)
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use evdb_types::{DataType, Schema};

    fn eval(src: &str) -> Value {
        let schema = Schema::of(&[
            ("a", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
        ]);
        let rec = Record::from_iter([Value::Int(10), Value::Float(2.5), Value::from("abc")]);
        parse(src).unwrap().bind(&schema).unwrap().eval(&rec).unwrap()
    }

    fn eval_nulls(src: &str) -> Value {
        let schema = evdb_types::Schema::new(vec![
            evdb_types::FieldDef::nullable("n", DataType::Int),
            evdb_types::FieldDef::nullable("b", DataType::Bool),
        ])
        .unwrap();
        let rec = Record::from_iter([Value::Null, Value::Null]);
        parse(src).unwrap().bind(&schema).unwrap().eval(&rec).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("a + 5"), Value::Int(15));
        assert_eq!(eval("a / 4"), Value::Float(2.5));
        assert_eq!(eval("a % 3"), Value::Int(1));
        assert_eq!(eval("-7 % 3"), Value::Int(2)); // euclidean
        assert_eq!(eval("a * f"), Value::Float(25.0));
        assert_eq!(eval("a / 0"), Value::Null);
        assert_eq!(eval("f % 0"), Value::Null);
    }

    #[test]
    fn overflow_is_error() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let rec = Record::from_iter([Value::Int(i64::MAX)]);
        let e = parse("a + 1").unwrap().bind(&schema).unwrap().eval(&rec);
        assert!(e.is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("a > 5 AND s = 'abc'"), Value::Bool(true));
        assert_eq!(eval("a > 50 OR s LIKE 'a%'"), Value::Bool(true));
        assert_eq!(eval("NOT (a = 10)"), Value::Bool(false));
        assert_eq!(eval("a BETWEEN 10 AND 11"), Value::Bool(true));
        assert_eq!(eval("a NOT BETWEEN 10 AND 11"), Value::Bool(false));
        assert_eq!(eval("a IN (1, 10)"), Value::Bool(true));
        assert_eq!(eval("a NOT IN (1, 2)"), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_nulls("n > 1"), Value::Null);
        assert_eq!(eval_nulls("n > 1 AND FALSE"), Value::Bool(false));
        assert_eq!(eval_nulls("n > 1 OR TRUE"), Value::Bool(true));
        assert_eq!(eval_nulls("NOT (n > 1)"), Value::Null);
        assert_eq!(eval_nulls("n IS NULL"), Value::Bool(true));
        assert_eq!(eval_nulls("n IS NOT NULL"), Value::Bool(false));
        assert_eq!(eval_nulls("n IN (1, 2)"), Value::Null);
        assert_eq!(eval_nulls("n + 1"), Value::Null);
        assert_eq!(eval_nulls("n BETWEEN 1 AND 2"), Value::Null);
        // FALSE short-circuits even against NULL on the left.
        assert_eq!(eval_nulls("b AND 1 > 2"), Value::Bool(false));
    }

    #[test]
    fn matches_treats_null_as_false() {
        let schema = evdb_types::Schema::new(vec![evdb_types::FieldDef::nullable(
            "n",
            DataType::Int,
        )])
        .unwrap();
        let b = parse("n > 1").unwrap().bind(&schema).unwrap();
        assert!(!b.matches(&Record::from_iter([Value::Null])).unwrap());
        assert!(b.matches(&Record::from_iter([Value::Int(5)])).unwrap());
    }

    #[test]
    fn case_expressions() {
        // Searched form with else.
        assert_eq!(
            eval("CASE WHEN a > 100 THEN 'big' WHEN a > 5 THEN 'mid' ELSE 'small' END"),
            Value::from("mid")
        );
        // Searched form without else → NULL.
        assert_eq!(eval("CASE WHEN a > 100 THEN 1 END"), Value::Null);
        // Operand form (a = 10 in the fixture).
        assert_eq!(
            eval("CASE a WHEN 9 THEN 'nine' WHEN 10 THEN 'ten' END"),
            Value::from("ten")
        );
        // First matching branch wins.
        assert_eq!(
            eval("CASE WHEN TRUE THEN 1 WHEN TRUE THEN 2 END"),
            Value::Int(1)
        );
        // NULL scrutinee matches nothing.
        assert_eq!(
            eval_nulls("CASE n WHEN 1 THEN 'x' ELSE 'fallback' END"),
            Value::from("fallback")
        );
        // NULL condition is not taken.
        assert_eq!(
            eval_nulls("CASE WHEN n > 1 THEN 'x' ELSE 'y' END"),
            Value::from("y")
        );
        // Numeric branch types mix to FLOAT.
        assert_eq!(eval("CASE WHEN a > 5 THEN 1 ELSE 2.5 END"), Value::Int(1));
    }

    #[test]
    fn case_type_errors() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        // Branch types disagree.
        assert!(parse("CASE WHEN a > 1 THEN 'x' ELSE 2 END")
            .unwrap()
            .bind(&schema)
            .is_err());
        // Searched WHEN must be boolean.
        assert!(parse("CASE WHEN a THEN 1 END").unwrap().bind(&schema).is_err());
        // Operand and WHEN must be comparable.
        assert!(parse("CASE a WHEN 'x' THEN 1 END")
            .unwrap()
            .bind(&schema)
            .is_err());
    }

    #[test]
    fn like_and_functions() {
        assert_eq!(eval("s LIKE '_b%'"), Value::Bool(true));
        assert_eq!(eval("s NOT LIKE 'z%'"), Value::Bool(true));
        assert_eq!(eval("upper(s)"), Value::from("ABC"));
        assert_eq!(eval("length(s) = 3"), Value::Bool(true));
        assert_eq!(eval("coalesce(NULL, a)"), Value::Int(10));
    }
}
