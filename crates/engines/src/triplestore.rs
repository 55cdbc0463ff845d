//! The triple-store engine (`S`-style: a SPARQL 1.1 property-path engine).
//!
//! Each conjunct is treated as a SPARQL property path and evaluated with
//! the product-automaton algorithm over the store's sorted indexes — no
//! per-step intermediate relations are materialized, which is why this
//! architecture overtakes the relational engine on large linear and on
//! quadratic non-recursive workloads (Fig. 12(b)/(c)). Conjuncts are then
//! joined in the planner's estimate-driven order (the cardinality-driven
//! ordering triple stores favor).
//!
//! On recursive queries the per-source product BFS touches a large part of
//! `V × Q` per source; with the measurement budgets of Section 7 this
//! engine finishes only the small instances — Table 4's `S` row.

use crate::context::EvalContext;
use crate::joiner::{join_all, project, ConjunctPairs};
use crate::relations::Relation;
use crate::{eval_rpq, unpack, Answers, Budget, Engine, EvalError, QueryPlan};
use gmark_core::query::Query;
use std::sync::Arc;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TripleStoreEngine;

impl Engine for TripleStoreEngine {
    fn evaluate(
        &self,
        ctx: &EvalContext<'_>,
        query: &Query,
        plan: &QueryPlan,
        budget: &Budget,
    ) -> Result<Answers, EvalError> {
        let mut tuples = Vec::new();
        for (ri, rule) in query.rules.iter().enumerate() {
            let order = plan.rule_order(ri, rule.body.len())?;
            // Property-path evaluation per conjunct, with the compiled
            // automaton memoized in the shared context.
            let mut slots: Vec<Option<ConjunctPairs>> = Vec::with_capacity(rule.body.len());
            for c in &rule.body {
                // A sub-expression cache hit replaces the whole product-BFS
                // for this conjunct (charged its cardinality check only);
                // on a miss the property-path algorithm runs as before.
                let pairs = match ctx.cached_expr(&c.expr, budget)? {
                    Some(rel) => rel,
                    None => {
                        let nfa = ctx.nfa(&c.expr);
                        let packed = eval_rpq(ctx.view(), &nfa, budget)?;
                        // eval_rpq yields packed pairs in ascending order,
                        // so this is a verification pass, not a sort.
                        Arc::new(Relation::from_pairs(
                            packed.into_iter().map(unpack).collect(),
                        ))
                    }
                };
                slots.push(Some(ConjunctPairs {
                    src: c.src,
                    trg: c.trg,
                    pairs,
                }));
            }
            // Join in the planner's order (validated to be a permutation).
            let ordered: Vec<ConjunctPairs> = order
                .into_iter()
                .filter_map(|(ci, _)| slots[ci].take())
                .collect();
            let table = join_all(ordered, budget)?;
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
    use crate::relational::RelationalEngine;
    use gmark_core::query::{Conjunct, PathExpr, RegularExpr, Rule, Symbol, Var};
    use gmark_core::schema::PredicateId;
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    fn graph() -> Graph {
        let mut b = GraphBuilder::new(TypePartition::from_counts(&[5]), 2);
        for (s, t) in [(0, 1), (1, 2), (2, 0), (3, 1), (4, 2)] {
            b.edge(s, 0, t);
        }
        for (s, t) in [(1, 3), (2, 3), (0, 4)] {
            b.edge(s, 1, t);
        }
        b.build()
    }

    fn chain_query(exprs: Vec<RegularExpr>) -> Query {
        let n = exprs.len() as u32;
        Query::single(Rule {
            head: vec![Var(0), Var(n)],
            body: exprs
                .into_iter()
                .enumerate()
                .map(|(i, expr)| Conjunct {
                    src: Var(i as u32),
                    expr,
                    trg: Var(i as u32 + 1),
                })
                .collect(),
        })
        .unwrap()
    }

    #[test]
    fn agrees_with_relational_on_chains() {
        let cases = vec![
            chain_query(vec![RegularExpr::symbol(sym(0))]),
            chain_query(vec![
                RegularExpr::symbol(sym(0)),
                RegularExpr::symbol(sym(1)),
            ]),
            chain_query(vec![
                RegularExpr::union(vec![PathExpr(vec![sym(0)]), PathExpr(vec![sym(1)])]),
                RegularExpr::symbol(sym(0).flipped()),
            ]),
            chain_query(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]),
            chain_query(vec![
                RegularExpr::star(vec![PathExpr(vec![sym(0), sym(1).flipped()])]),
                RegularExpr::symbol(sym(1)),
            ]),
        ];
        for q in cases {
            let a = eval_on(&TripleStoreEngine, &graph(), &q, &Budget::default()).unwrap();
            let b = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
            assert_eq!(a, b, "mismatch on {q:?}");
        }
    }

    #[test]
    fn boolean_and_union_queries() {
        let q = Query::new(vec![
            Rule {
                head: vec![],
                body: vec![Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(1)),
                    trg: Var(1),
                }],
            },
            Rule {
                head: vec![],
                body: vec![Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                }],
            },
        ])
        .unwrap();
        let a = eval_on(&TripleStoreEngine, &graph(), &q, &Budget::default()).unwrap();
        assert!(a.non_empty());
    }

    #[test]
    fn star_shaped_query() {
        // (?c, a, ?x), (?c, b, ?y): center variable joins both.
        let q = Query::single(Rule {
            head: vec![Var(1), Var(2)],
            body: vec![
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(0)),
                    trg: Var(1),
                },
                Conjunct {
                    src: Var(0),
                    expr: RegularExpr::symbol(sym(1)),
                    trg: Var(2),
                },
            ],
        })
        .unwrap();
        let a = eval_on(&TripleStoreEngine, &graph(), &q, &Budget::default()).unwrap();
        let b = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
        assert_eq!(a, b);
        // Node 0: a→1, b→4 contributes (1,4); node 1: a→2, b→3 → (2,3);
        // node 2: a→0, b→3 → (0,3).
        assert_eq!(a.tuples, vec![vec![0, 3], vec![1, 4], vec![2, 3]]);
    }
}
