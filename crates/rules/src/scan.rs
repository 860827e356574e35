//! The baseline matcher: evaluate every rule on every record.

use std::collections::BTreeMap;
use std::sync::Arc;

use evdb_expr::CompiledExpr;
use evdb_types::{Error, Record, Result, Schema};

use crate::matcher::Matcher;
use crate::rule::{Rule, RuleId};

/// O(rules)-per-record matcher; the comparison point for experiment E3.
/// Predicates are compiled to bytecode at registration like the indexed
/// matcher's, so E3 compares indexing strategies, not eval engines.
///
/// Not on the engine's path: it is kept as E3's baseline and as the
/// oracle the indexed matcher is checked against (`tests/prop_rules.rs`).
pub struct ScanMatcher {
    schema: Arc<Schema>,
    rules: BTreeMap<RuleId, CompiledExpr>,
}

impl ScanMatcher {
    /// Create a matcher for records of `schema`.
    pub fn new(schema: Arc<Schema>) -> ScanMatcher {
        ScanMatcher {
            schema,
            rules: BTreeMap::new(),
        }
    }
}

impl Matcher for ScanMatcher {
    fn add_rule(&mut self, rule: Rule) -> Result<()> {
        if self.rules.contains_key(&rule.id) {
            return Err(Error::AlreadyExists(format!("rule {}", rule.id)));
        }
        let bound = rule.predicate.bind_predicate(&self.schema)?;
        self.rules.insert(rule.id, CompiledExpr::compile(&bound));
        Ok(())
    }

    fn remove_rule(&mut self, id: RuleId) -> Result<()> {
        self.rules
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("rule {id}")))
    }

    fn match_record(&self, record: &Record) -> Result<Vec<RuleId>> {
        let mut out = Vec::new();
        for (id, pred) in &self.rules {
            if pred.matches(record)? {
                out.push(*id);
            }
        }
        Ok(out)
    }

    fn len(&self) -> usize {
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evdb_expr::parse;
    use evdb_types::{DataType, Value};

    fn matcher() -> ScanMatcher {
        let schema = Schema::of(&[("sym", DataType::Str), ("px", DataType::Float)]);
        let mut m = ScanMatcher::new(schema);
        m.add_rule(Rule::new(1, "ibm", parse("sym = 'IBM'").unwrap()))
            .unwrap();
        m.add_rule(Rule::new(2, "hot", parse("px > 100").unwrap()))
            .unwrap();
        m.add_rule(Rule::new(3, "both", parse("sym = 'IBM' AND px > 100").unwrap()))
            .unwrap();
        m
    }

    #[test]
    fn matches_in_id_order() {
        let m = matcher();
        let r = Record::from_iter([Value::from("IBM"), Value::Float(150.0)]);
        assert_eq!(m.match_record(&r).unwrap(), vec![1, 2, 3]);
        let r = Record::from_iter([Value::from("IBM"), Value::Float(50.0)]);
        assert_eq!(m.match_record(&r).unwrap(), vec![1]);
        let r = Record::from_iter([Value::from("X"), Value::Float(50.0)]);
        assert!(m.match_record(&r).unwrap().is_empty());
    }

    #[test]
    fn add_remove_update() {
        let mut m = matcher();
        assert_eq!(m.len(), 3);
        assert!(m.add_rule(Rule::new(1, "dup", parse("px > 0").unwrap())).is_err());
        assert!(m.add_rule(Rule::new(9, "bad", parse("ghost = 1").unwrap())).is_err());
        m.remove_rule(2).unwrap();
        assert!(m.remove_rule(2).is_err());
        m.update_rule(Rule::new(3, "both", parse("px < 0").unwrap()))
            .unwrap();
        let r = Record::from_iter([Value::from("IBM"), Value::Float(150.0)]);
        assert_eq!(m.match_record(&r).unwrap(), vec![1]);
    }
}
