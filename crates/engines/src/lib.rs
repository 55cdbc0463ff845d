//! UCRPQ evaluation engines over gMark graphs.
//!
//! Section 7 of the paper benchmarks four systems: PostgreSQL (`P`), a
//! SPARQL engine (`S`), a native graph database speaking openCypher (`G`),
//! and a Datalog engine (`D`). Those systems are commercial/external; this
//! crate provides four in-repo engines with the same architectural
//! signatures (see DESIGN.md §4 for the substitution argument):
//!
//! * [`RelationalEngine`] (`P`) — materializes one binary relation per
//!   conjunct with hash joins and a linear-recursion fixpoint for stars,
//!   like the paper's SQL:1999 translation evaluated bottom-up;
//! * [`TripleStoreEngine`] (`S`) — per-conjunct automaton (property-path)
//!   evaluation over sorted indexes, sort-merge joins;
//! * [`NavigationalEngine`] (`G`) — seed-driven BFS navigation, evaluating
//!   the *degraded* query an openCypher system would run (inverses and
//!   concatenations under `*` are dropped per Section 7.1), hence its
//!   answer sets legitimately differ on such queries;
//! * [`DatalogEngine`] (`D`) — translates the query to a positive Datalog
//!   program and runs it on a general-purpose semi-naive engine
//!   ([`datalog`]), the only engine expected to finish every recursive
//!   query of Table 4.
//!
//! All engines implement [`Engine`], join conjuncts in the one order the
//! statistics planner ([`plan_query`]) chooses, and are resource-governed by
//! [`Budget`]: exceeding the time or tuple budget aborts with an error —
//! reproducing the "failed / manually terminated" entries of the paper's
//! Tables and figures rather than hanging the harness.
//!
//! Engines share one immutable [`EvalContext`] — per-predicate sorted
//! relations, the Datalog EDB, a compiled-NFA cache — built once per graph
//! instead of re-derived per query, and the [`evaluate_matrix`] harness
//! fans the (engine × query) cells of a whole workload over worker threads
//! with a fresh per-cell [`Budget`], reassembling a deterministic
//! [`EvalReport`].

#![warn(missing_docs)]

pub mod automaton;
pub mod context;
pub mod datalog;
mod joiner;
pub mod matrix;
pub mod navigational;
pub mod planner;
pub mod relational;
pub mod relations;
pub mod triplestore;

pub use automaton::{compile_nfa, eval_rpq, Nfa};
pub use context::{EvalCacheStats, EvalContext, SymbolStats};
pub use datalog::DatalogEngine;
pub use matrix::{
    evaluate_matrix, CellBudget, CellOutcome, EngineKind, EvalCell, EvalReport, EvalTotals,
    MatrixOptions, PlanQuality,
};
pub use navigational::NavigationalEngine;
pub use planner::{plan_query, ConjunctStep, QueryPlan, RulePlan};
pub use relational::RelationalEngine;
pub use triplestore::TripleStoreEngine;

use gmark_core::query::Query;
use gmark_store::NodeId;
use std::time::{Duration, Instant};

/// Resource limits for one evaluation.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    /// Maximum number of tuples any intermediate or final result may hold.
    pub max_tuples: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline: None,
            max_tuples: 50_000_000,
        }
    }
}

impl Budget {
    /// A budget with an optional timeout (starting now) and a tuple cap:
    /// `None` means no wall-clock deadline at all — the fully deterministic
    /// regime the evaluation-determinism tests pin.
    pub fn with_limits(timeout: Option<Duration>, max_tuples: usize) -> Self {
        Budget {
            deadline: timeout.map(|t| Instant::now() + t),
            max_tuples,
        }
    }

    /// Checks the wall clock; call this in loops.
    #[inline]
    pub fn check_time(&self) -> Result<(), EvalError> {
        self.check_time_at(Instant::now())
    }

    /// Clock-injected variant of [`Budget::check_time`]: checks the
    /// deadline against a caller-supplied instant, so deadline logic is
    /// testable without sleeping (sleep-based timing is flaky on loaded CI
    /// machines).
    #[inline]
    pub fn check_time_at(&self, now: Instant) -> Result<(), EvalError> {
        if let Some(d) = self.deadline {
            if now > d {
                return Err(EvalError::Timeout);
            }
        }
        Ok(())
    }

    /// Checks a tuple count against the cap.
    #[inline]
    pub fn check_size(&self, tuples: usize) -> Result<(), EvalError> {
        if tuples > self.max_tuples {
            return Err(EvalError::TooLarge(tuples));
        }
        Ok(())
    }
}

/// Why an evaluation failed — these are *reported outcomes* in the
/// experiments (the paper's "-" cells), not panics. The `gmark` facade
/// crate wraps this type into its unified `run::GmarkError` alongside the
/// other pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The wall-clock budget was exhausted.
    Timeout,
    /// An intermediate result exceeded the tuple budget.
    TooLarge(usize),
    /// The engine cannot express the query (after its documented
    /// degradations), or the query violates an assumption the engine
    /// depends on (e.g. a head variable never bound in the body).
    Unsupported(String),
    /// An engine invariant was violated mid-evaluation. These used to be
    /// `expect` panics in the hot loops; as typed errors, one broken query
    /// becomes a failed *cell* in the evaluation matrix instead of
    /// aborting the whole run.
    Internal(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Timeout => write!(f, "timeout"),
            EvalError::TooLarge(n) => write!(f, "intermediate result too large ({n} tuples)"),
            EvalError::Unsupported(what) => write!(f, "unsupported: {what}"),
            EvalError::Internal(what) => write!(f, "engine invariant violated: {what}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A set of distinct answer tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    /// The query arity (tuple width).
    pub arity: usize,
    /// Distinct tuples, sorted lexicographically for stable comparison.
    pub tuples: Vec<Vec<NodeId>>,
}

impl Answers {
    /// Builds an answer set, sorting and deduplicating.
    pub fn new(arity: usize, mut tuples: Vec<Vec<NodeId>>) -> Answers {
        tuples.sort_unstable();
        tuples.dedup();
        Answers { arity, tuples }
    }

    /// The `count(distinct(?v))` measurement of Section 7.1.
    pub fn count(&self) -> u64 {
        self.tuples.len() as u64
    }

    /// For Boolean queries: whether the body was satisfiable.
    pub fn non_empty(&self) -> bool {
        !self.tuples.is_empty()
    }
}

/// A UCRPQ evaluation engine.
pub trait Engine {
    /// Evaluates `query` against a shared [`EvalContext`] under a resource
    /// budget, joining each rule's conjuncts in the order `plan` gives
    /// (see [`planner::plan_query`]), and returns the distinct projected
    /// tuples. The context's precomputed indexes (sorted relations,
    /// Datalog EDB, compiled-NFA cache) are borrowed, never rebuilt. A plan
    /// changes only *how* the answer is computed, never *what* it is; a
    /// plan that does not fit the query is an [`EvalError::Internal`].
    fn evaluate(
        &self,
        ctx: &EvalContext<'_>,
        query: &Query,
        plan: &QueryPlan,
        budget: &Budget,
    ) -> Result<Answers, EvalError>;
}

/// Packs an arity-2 tuple into a `u64` (internal fast path for pair sets).
#[inline]
pub(crate) fn pack(a: NodeId, b: NodeId) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack`].
#[inline]
pub(crate) fn unpack(p: u64) -> (NodeId, NodeId) {
    ((p >> 32) as NodeId, p as NodeId)
}

/// Test helper: plans `query` on a fresh context over `graph` and
/// evaluates it through `engine`.
#[cfg(test)]
pub(crate) fn eval_on(
    engine: &impl Engine,
    graph: &gmark_store::Graph,
    query: &Query,
    budget: &Budget,
) -> Result<Answers, EvalError> {
    let ctx = EvalContext::new(graph);
    let plan = plan_query(&ctx, None, query);
    engine.evaluate(&ctx, query, &plan, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trip() {
        for (a, b) in [(0, 0), (1, 2), (u32::MAX, 7), (123_456, u32::MAX)] {
            assert_eq!(unpack(pack(a, b)), (a, b));
        }
    }

    #[test]
    fn answers_dedup_and_sort() {
        let a = Answers::new(2, vec![vec![3, 4], vec![1, 2], vec![3, 4]]);
        assert_eq!(a.tuples, vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(a.count(), 2);
        assert!(a.non_empty());
    }

    #[test]
    fn budget_timeout_fires() {
        // Injected clock: no sleeping, no dependence on scheduler timing.
        let b = Budget::with_limits(Some(Duration::from_secs(3600)), usize::MAX);
        let now = Instant::now();
        assert!(b.check_time_at(now).is_ok());
        assert_eq!(
            b.check_time_at(now + Duration::from_secs(7200)),
            Err(EvalError::Timeout)
        );
    }

    #[test]
    fn budget_size_cap() {
        let b = Budget {
            deadline: None,
            max_tuples: 10,
        };
        assert!(b.check_size(10).is_ok());
        assert_eq!(b.check_size(11), Err(EvalError::TooLarge(11)));
    }

    #[test]
    fn default_budget_is_permissive() {
        let b = Budget::default();
        assert!(b.check_time().is_ok());
        assert!(b.check_size(1_000_000).is_ok());
    }
}
