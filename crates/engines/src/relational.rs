//! The relational engine (`P`-style: PostgreSQL with recursive views).
//!
//! Evaluates exactly the plan the paper's SQL:1999 translation induces:
//! every conjunct becomes a fully materialized binary relation (scans +
//! joins + `UNION`s; a `WITH RECURSIVE` linear-recursion fixpoint for
//! stars), and conjuncts are then hash-joined left-to-right in the
//! planner's order — a straightforward evaluation with no property-path
//! shortcuts.
//!
//! Profile reproduced from the paper: strong on constant- and
//! linear-selectivity non-recursive queries (Fig. 12(a)/(b), where "P
//! reacts better than S, G, and D"), but materializing a
//! quadratic-selectivity transitive closure exhausts its budget — the "-"
//! cells of Table 4.

use crate::context::EvalContext;
use crate::joiner::{join_all, project, ConjunctPairs};
use crate::{Answers, Budget, Engine, EvalError, QueryPlan};
use gmark_core::query::Query;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelationalEngine;

impl Engine for RelationalEngine {
    fn evaluate(
        &self,
        ctx: &EvalContext<'_>,
        query: &Query,
        plan: &QueryPlan,
        budget: &Budget,
    ) -> Result<Answers, EvalError> {
        let mut tuples = Vec::new();
        for (ri, rule) in query.rules.iter().enumerate() {
            // Materialize each conjunct in the planner's join order; base
            // symbol relations are the context's shared sorted indexes.
            let mut conjuncts = Vec::with_capacity(rule.body.len());
            for (ci, _) in plan.rule_order(ri, rule.body.len())? {
                let c = &rule.body[ci];
                // A sub-expression cache hit mounts the shared relation
                // directly (charged its cardinality check only); a miss
                // computes through the sorted kernels as before.
                let rel = ctx.expr_relation(&c.expr, budget)?;
                conjuncts.push(ConjunctPairs {
                    src: c.src,
                    trg: c.trg,
                    pairs: rel,
                });
            }
            let table = join_all(conjuncts, budget)?;
            tuples.extend(project(&table, rule)?);
            budget.check_size(tuples.len())?;
        }
        Ok(Answers::new(query.arity(), tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_on;
    use gmark_core::query::{Conjunct, PathExpr, RegularExpr, Rule, Symbol, Var};
    use gmark_core::schema::PredicateId;
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    /// a: 0→1, 1→2, 2→0, 3→1;  b: 1→3, 2→3.
    fn graph() -> Graph {
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[4]), 2);
        for (s, t) in [(0, 1), (1, 2), (2, 0), (3, 1)] {
            b.edge(s, 0, t);
        }
        for (s, t) in [(1, 3), (2, 3)] {
            b.edge(s, 1, t);
        }
        b.build()
    }

    #[test]
    fn single_conjunct() {
        let q = Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(1)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
        assert_eq!(a.tuples, vec![vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn two_conjunct_chain() {
        // (?x, a, ?y), (?y, b, ?z) projected on (x, z).
        let q = Query::single(Rule {
            head: vec![Var(0), Var(2)],
            body: vec![
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                },
                Conjunct {
                    src: Var(1),
                    expr: RegularExpr::symbol(sym(1)),
                    trg: Var(2),
                },
            ],
        })
        .unwrap();
        let a = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
        // a·b pairs: (0,3) via 1, (1,3) via 2, (3,3) via 1.
        assert_eq!(a.tuples, vec![vec![0, 3], vec![1, 3], vec![3, 3]]);
    }

    #[test]
    fn recursive_conjunct() {
        let q = Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::star(vec![PathExpr(vec![sym(0)])]),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
        let nfa_pairs = crate::automaton::eval_rpq_pairs(
            &graph(),
            &q.rules[0].body[0].expr,
            &Budget::default(),
        )
        .unwrap();
        let expected: Vec<Vec<_>> = nfa_pairs.into_iter().map(|(s, t)| vec![s, t]).collect();
        assert_eq!(a.tuples, expected);
    }

    #[test]
    fn boolean_query() {
        let q = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(0)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
        assert!(a.non_empty());
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn union_of_rules() {
        let mk = |p: usize| Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(p)),
                trg: Var(1),
            }],
        };
        let q = Query::new(vec![mk(0), mk(1)]).unwrap();
        let a = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
        assert_eq!(a.count(), 6); // 4 a-edges + 2 b-edges, all distinct
    }

    #[test]
    fn budget_propagates() {
        let q = Query::single(Rule {
            head: vec![Var(0), Var(1)],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::star(vec![PathExpr(vec![sym(0)])]),
                trg: Var(1),
            }],
        })
        .unwrap();
        let tight = Budget {
            max_tuples: 2,
            ..Budget::default()
        };
        assert!(eval_on(&RelationalEngine, &graph(), &q, &tight).is_err());
    }
}
