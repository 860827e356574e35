//! The matcher contract shared by the scan baseline and the indexed
//! design, so benchmarks and property tests can compare them head-to-head.

use std::collections::HashMap;

use evdb_expr::BatchScratch;
use evdb_types::{Error, Record, Result, Value};

use crate::rule::{Rule, RuleId};

/// Reusable state for [`Matcher::match_batch`]: the expression-VM batch
/// scratch plus the candidate-grouping buffers the indexed matcher
/// uses. Hold one per evaluating thread; buffers size themselves to the
/// batch on first use and are reused afterwards (D15).
///
/// The indexed matcher groups candidates *by probe value*, not by
/// sorting `(rule, record)` pairs: records sharing a field value share
/// one index probe and land in one bucket, so rule-major groups fall
/// out of the posting lists directly — no per-pair sort or hash.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Expression-VM scratch shared by every rule verified in a batch.
    pub(crate) expr: BatchScratch,
    /// Verdict buffer for one rule group.
    pub(crate) bools: Vec<Result<bool>>,
    /// Probe value → bucket slot, for the field currently bucketed.
    pub(crate) val_buckets: HashMap<Value, u32>,
    /// Record-index list pool backing the value buckets.
    pub(crate) bucket_lists: Vec<Vec<u32>>,
    /// Rule-major verify groups: `(rule, start, len)` into `grouped`.
    pub(crate) groups: Vec<(RuleId, u32, u32)>,
    /// Arena of record indices the groups slice into.
    pub(crate) grouped: Vec<u32>,
    /// Per-record pair counts during build, then scatter cursors.
    pub(crate) rec_cursor: Vec<u32>,
    /// Per-record verdict-slot offsets (prefix sums of pair counts).
    pub(crate) rec_off: Vec<u32>,
    /// Per-pair verdicts in record-major candidate order.
    pub(crate) verdict_bits: Vec<bool>,
    /// Per-pair rule ids in record-major candidate order.
    pub(crate) pair_rule: Vec<RuleId>,
    /// Rare verify errors: `(record-major slot, error)`.
    pub(crate) errs: Vec<(u32, Option<Error>)>,
}

impl MatchScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }
}

/// A set of rules matchable against records of one schema.
pub trait Matcher: Send + Sync {
    /// Add a rule. Fails if the id is taken or the predicate does not
    /// type-check against the matcher's schema.
    fn add_rule(&mut self, rule: Rule) -> Result<()>;

    /// Remove a rule by id. Fails if absent.
    fn remove_rule(&mut self, id: RuleId) -> Result<()>;

    /// Replace a rule's predicate (remove + add, atomically from the
    /// caller's perspective).
    fn update_rule(&mut self, rule: Rule) -> Result<()> {
        self.remove_rule(rule.id)?;
        self.add_rule(rule)
    }

    /// Ids of all rules whose predicate is TRUE for the record,
    /// in ascending id order (deterministic for tests and dedup).
    /// The engine's event path uses [`match_batch`](Self::match_batch);
    /// this per-record form serves the topic broker and is the
    /// reference the batch form is tested against.
    fn match_record(&self, record: &Record) -> Result<Vec<RuleId>>;

    /// Match a whole batch: `out[i]` must equal
    /// `self.match_record(records[i])` — same ids, same first-error
    /// semantics per record. The default delegates record-at-a-time;
    /// implementations override to amortize verification through the
    /// batch evaluator (D15).
    fn match_batch(
        &self,
        records: &[&Record],
        _scratch: &mut MatchScratch,
        out: &mut Vec<Result<Vec<RuleId>>>,
    ) {
        out.clear();
        out.extend(records.iter().map(|r| self.match_record(r)));
    }

    /// Number of rules.
    fn len(&self) -> usize;

    /// True when no rules are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
