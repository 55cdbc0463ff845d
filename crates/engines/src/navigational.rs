//! The navigational engine (`G`-style: a native graph database speaking
//! openCypher).
//!
//! Two properties of the paper's system `G` are reproduced:
//!
//! 1. **Query degradation.** openCypher variable-length patterns support
//!    neither inverses nor concatenations under a Kleene star, so such
//!    queries run in a weakened form — "the corresponding openCypher query
//!    has only the non-inverse symbol and/or the first symbol in a
//!    concatenation of symbols" (Section 7.1). This engine evaluates that
//!    degraded query, so its answers on recursive queries legitimately
//!    differ from the other engines — the reason the paper reports `G`
//!    returning empty/deviating results in Table 4.
//! 2. **Seed-driven navigation.** Evaluation expands bindings conjunct by
//!    conjunct from already-bound variables (pattern matching by
//!    traversal) in the planner's order, rather than materializing whole
//!    relations. A conjunct whose seed variable is still unbound is
//!    explored from every node.
//!
//! Variable-length patterns in openCypher also bind at least one hop by
//! default (`*` means `*1..`); gMark's star includes ε. The translator
//! emits `*0..` so this engine keeps ε — the degradation above is the only
//! semantic difference retained, keeping the comparison interpretable.

use crate::automaton::eval_rpq_from;
use crate::context::EvalContext;
use crate::joiner::{join_all, project, ConjunctPairs};
use crate::relations::Relation;
use crate::{unpack, Answers, Budget, Engine, EvalError, QueryPlan};
use gmark_core::query::{Conjunct, PathExpr, Query, RegularExpr, Rule, Var};
use gmark_store::NodeId;
use std::sync::Arc;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NavigationalEngine;

/// Section 7.1's degradation: under a star, keep each disjunct's first
/// non-inverse symbol (paths reduce to length one; inverse-only paths keep
/// their first symbol with the inversion dropped).
pub fn degrade_for_cypher(query: &Query) -> (Query, bool) {
    let mut lossy = false;
    let rules = query
        .rules
        .iter()
        .map(|r| Rule {
            head: r.head.clone(),
            body: r
                .body
                .iter()
                .map(|c| Conjunct {
                    src: c.src,
                    trg: c.trg,
                    expr: degrade_expr(&c.expr, &mut lossy),
                })
                .collect(),
        })
        .collect();
    (
        Query::new(rules).expect("degradation preserves well-formedness"),
        lossy,
    )
}

fn degrade_expr(expr: &RegularExpr, lossy: &mut bool) -> RegularExpr {
    if !expr.starred {
        return expr.clone();
    }
    let mut disjuncts = Vec::new();
    for p in &expr.disjuncts {
        if p.is_empty() {
            continue;
        }
        let degraded = if let Some(sym) = p.0.iter().find(|s| !s.inverse) {
            if p.len() > 1 || p.0.iter().any(|s| s.inverse) {
                *lossy = true;
            }
            PathExpr(vec![*sym])
        } else {
            *lossy = true;
            PathExpr(vec![p.0[0].flipped()]) // drop the inversion
        };
        if !disjuncts.contains(&degraded) {
            disjuncts.push(degraded);
        }
    }
    if disjuncts.is_empty() {
        // Only ε disjuncts: the star is the identity.
        disjuncts.push(PathExpr::epsilon());
    }
    RegularExpr {
        disjuncts,
        starred: true,
    }
}

impl Engine for NavigationalEngine {
    fn evaluate(
        &self,
        ctx: &EvalContext<'_>,
        query: &Query,
        plan: &QueryPlan,
        budget: &Budget,
    ) -> Result<Answers, EvalError> {
        // Degradation rewrites conjunct *expressions* only — rule and
        // conjunct positions are preserved, so a plan computed on the
        // original query orders the degraded one correctly.
        let (query, _lossy) = degrade_for_cypher(query);
        let mut tuples = Vec::new();
        for (ri, rule) in query.rules.iter().enumerate() {
            let order = plan.rule_order(ri, rule.body.len())?;
            let table = eval_rule(ctx, rule, &order, budget)?;
            tuples.extend(project(&table, rule)?);
            budget.check_size(tuples.len())?;
        }
        Ok(Answers::new(query.arity(), tuples))
    }
}

/// Seed-driven evaluation along the planner's `(conjunct, flip)` order:
/// each conjunct's pairs
/// are computed by automaton BFS *from the currently bound seeds only*,
/// flipped conjuncts traversing their reversed expression from the
/// target side.
fn eval_rule(
    ctx: &EvalContext<'_>,
    rule: &Rule,
    order: &[(usize, bool)],
    budget: &Budget,
) -> Result<crate::joiner::BindingTable, EvalError> {
    let mut bound: Vec<Var> = Vec::new();
    let mut materialized = Vec::with_capacity(rule.body.len());
    let mut table: Option<crate::joiner::BindingTable> = None;

    for &(ci, flip) in order {
        budget.check_time()?;
        let c = &rule.body[ci];
        let from = if flip { c.trg } else { c.src };
        // Seeds: the bound values of `from` if available, else all nodes.
        let bound_seeds: Option<Vec<NodeId>> = match &table {
            Some(t) if bound.contains(&from) => {
                let col = t.vars.iter().position(|&v| v == from).ok_or_else(|| {
                    EvalError::Internal(format!("bound variable {from} missing from table"))
                })?;
                let mut s: Vec<NodeId> = t.rows.iter().map(|r| r[col]).collect();
                s.sort_unstable();
                s.dedup();
                Some(s)
            }
            _ => None,
        };
        // An unbound forward conjunct is a whole-expression evaluation —
        // exactly the form the shared sub-expression cache holds (BFS
        // from every node produces the full relation, so the hit's
        // cardinality charge matches what navigation would have paid).
        // Bound or flipped traversals stay seed-driven BFS: there a
        // cached full relation would be charged where navigation only
        // explores a subset.
        let pairs: Arc<Relation> = if !flip && bound_seeds.is_none() {
            match ctx.cached_expr(&c.expr, budget)? {
                Some(hit) => hit,
                None => navigate(ctx, c, flip, None, budget)?,
            }
        } else {
            navigate(ctx, c, flip, bound_seeds.as_deref(), budget)?
        };
        materialized.push(ConjunctPairs {
            src: c.src,
            trg: c.trg,
            pairs,
        });
        // Incrementally join so the next conjunct sees tight seeds.
        let t = join_all(std::mem::take(&mut materialized), budget)?;
        // join_all consumed one conjunct; re-seed the running table.
        table = Some(match table {
            None => t,
            Some(prev) => merge_tables(prev, t, budget)?,
        });
        for v in [c.src, c.trg] {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    Ok(table.unwrap_or(crate::joiner::BindingTable {
        vars: Vec::new(),
        rows: vec![Vec::new()],
    }))
}

/// One conjunct's pairs by automaton BFS from `seeds` (`None` = every
/// node), flipped conjuncts traversing their reversed expression from
/// the target side.
fn navigate(
    ctx: &EvalContext<'_>,
    c: &Conjunct,
    flip: bool,
    seeds: Option<&[NodeId]>,
    budget: &Budget,
) -> Result<Arc<Relation>, EvalError> {
    let graph = ctx.view();
    let expr = if flip {
        RegularExpr {
            disjuncts: c.expr.disjuncts.iter().map(PathExpr::reversed).collect(),
            starred: c.expr.starred,
        }
    } else {
        c.expr.clone()
    };
    let nfa = ctx.nfa(&expr);
    let all: Vec<NodeId>;
    let seeds = match seeds {
        Some(s) => s,
        None => {
            all = (0..graph.node_count()).collect();
            &all
        }
    };
    let packed = eval_rpq_from(graph, &nfa, seeds, budget)?;
    let pairs: Vec<(NodeId, NodeId)> = if flip {
        packed
            .into_iter()
            .map(|p| {
                let (a, b) = unpack(p);
                (b, a)
            })
            .collect()
    } else {
        packed.into_iter().map(unpack).collect()
    };
    Ok(Arc::new(Relation::from_pairs(pairs)))
}

/// Joins two binding tables on their shared variables (hash join).
fn merge_tables(
    a: crate::joiner::BindingTable,
    b: crate::joiner::BindingTable,
    budget: &Budget,
) -> Result<crate::joiner::BindingTable, EvalError> {
    use rustc_hash::FxHashMap;
    let shared: Vec<(usize, usize)> = a
        .vars
        .iter()
        .enumerate()
        .filter_map(|(ia, va)| b.vars.iter().position(|vb| vb == va).map(|ib| (ia, ib)))
        .collect();
    let b_extra: Vec<usize> = (0..b.vars.len())
        .filter(|ib| !shared.iter().any(|&(_, sb)| sb == *ib))
        .collect();
    let mut index: FxHashMap<Vec<NodeId>, Vec<usize>> = FxHashMap::default();
    for (ri, row) in b.rows.iter().enumerate() {
        let key: Vec<NodeId> = shared.iter().map(|&(_, ib)| row[ib]).collect();
        index.entry(key).or_default().push(ri);
    }
    let mut vars = a.vars.clone();
    for &ib in &b_extra {
        vars.push(b.vars[ib]);
    }
    let mut rows = Vec::new();
    for row in &a.rows {
        let key: Vec<NodeId> = shared.iter().map(|&(ia, _)| row[ia]).collect();
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                let mut r = row.clone();
                for &ib in &b_extra {
                    r.push(b.rows[ri][ib]);
                }
                rows.push(r);
            }
            budget.check_size(rows.len())?;
        }
    }
    Ok(crate::joiner::BindingTable { vars, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_on;
    use crate::relational::RelationalEngine;
    use gmark_core::query::Symbol;
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

    fn chain(exprs: Vec<RegularExpr>) -> Query {
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
    fn agrees_on_non_degraded_queries() {
        // No inverse/concatenation under stars: answers must match the
        // relational reference exactly.
        let cases = vec![
            chain(vec![RegularExpr::symbol(sym(0))]),
            chain(vec![RegularExpr::symbol(sym(0).flipped())]),
            chain(vec![
                RegularExpr::path(PathExpr(vec![sym(0), sym(1)])),
                RegularExpr::symbol(sym(1).flipped()),
            ]),
            chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]),
        ];
        for q in cases {
            let a = eval_on(&NavigationalEngine, &graph(), &q, &Budget::default()).unwrap();
            let b = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
            assert_eq!(a, b, "mismatch on {q:?}");
        }
    }

    #[test]
    fn degradation_changes_recursive_answers() {
        // (a⁻·a)* degrades to a*, so answers may differ from the faithful
        // evaluation — the Table 4 phenomenon.
        let q = chain(vec![RegularExpr::star(vec![PathExpr(vec![
            sym(0).flipped(),
            sym(0),
        ])])]);
        let nav = eval_on(&NavigationalEngine, &graph(), &q, &Budget::default()).unwrap();
        let reference = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
        assert_ne!(nav, reference, "degradation should be observable here");
    }

    #[test]
    fn degrade_marks_lossiness() {
        let clean = chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]);
        let (dq, lossy) = degrade_for_cypher(&clean);
        assert!(!lossy);
        assert_eq!(dq, clean);

        let dirty = chain(vec![RegularExpr::star(vec![PathExpr(vec![
            sym(0),
            sym(1),
        ])])]);
        let (dq, lossy) = degrade_for_cypher(&dirty);
        assert!(lossy);
        assert_eq!(
            dq.rules[0].body[0].expr,
            RegularExpr::star(vec![PathExpr(vec![sym(0)])])
        );

        let inverse_only = chain(vec![RegularExpr::star(vec![PathExpr(vec![
            sym(1).flipped()
        ])])]);
        let (dq, lossy) = degrade_for_cypher(&inverse_only);
        assert!(lossy);
        assert_eq!(
            dq.rules[0].body[0].expr,
            RegularExpr::star(vec![PathExpr(vec![sym(1)])])
        );
    }

    #[test]
    fn non_starred_expressions_untouched() {
        let q = chain(vec![RegularExpr::union(vec![
            PathExpr(vec![sym(0), sym(1).flipped()]),
            PathExpr(vec![sym(1)]),
        ])]);
        let (dq, lossy) = degrade_for_cypher(&q);
        assert!(!lossy);
        assert_eq!(dq, q);
    }

    #[test]
    fn boolean_query_works() {
        let q = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct {
                src: Var(0),
                expr: RegularExpr::symbol(sym(0)),
                trg: Var(1),
            }],
        })
        .unwrap();
        let a = eval_on(&NavigationalEngine, &graph(), &q, &Budget::default()).unwrap();
        assert!(a.non_empty());
    }
}
