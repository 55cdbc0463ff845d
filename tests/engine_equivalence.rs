//! Differential testing of the four evaluation engines.
//!
//! The relational, triple-store, and Datalog engines implement the same
//! UCRPQ semantics through three different architectures; on any graph and
//! any query they must agree exactly. The navigational engine evaluates
//! the openCypher-degraded query (Section 7.1), so it is only required to
//! agree on queries the degradation leaves untouched. And no engine's
//! answer may depend on the join order its plan prescribes.

use gmark::engines::{ConjunctStep, RulePlan};
use gmark::prelude::*;
use proptest::prelude::*;

/// A deterministic random graph over `n` nodes and `preds` labels.
fn random_graph(n: u32, preds: usize, edges_per_pred: usize, seed: u64) -> Graph {
    let mut rng = gmark::stats::Prng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(TypePartition::from_counts(&[n as u64]), preds);
    for p in 0..preds {
        for _ in 0..edges_per_pred {
            let s = rng.below(n as u64) as NodeId;
            let t = rng.below(n as u64) as NodeId;
            b.edge(s, p, t);
        }
    }
    b.build()
}

/// Strategy: a random path of up to 3 symbols over `preds` labels.
fn arb_path(preds: usize) -> impl Strategy<Value = PathExpr> {
    prop::collection::vec((0..preds, any::<bool>()), 1..=3).prop_map(|syms| {
        PathExpr(
            syms.into_iter()
                .map(|(p, inv)| {
                    let s = Symbol::forward(PredicateId(p));
                    if inv {
                        s.flipped()
                    } else {
                        s
                    }
                })
                .collect(),
        )
    })
}

/// Strategy: a regular expression with 1–2 disjuncts, possibly starred.
fn arb_expr(preds: usize) -> impl Strategy<Value = RegularExpr> {
    (prop::collection::vec(arb_path(preds), 1..=2), any::<bool>())
        .prop_map(|(disjuncts, starred)| RegularExpr { disjuncts, starred })
}

/// A rule of one body shape over `exprs`: a chain `(?x0, e0, ?x1),
/// (?x1, e1, ?x2), …` projected on its ends; a star `(?x0, e0, ?x1),
/// (?x0, e1, ?x2), …` projected on its first and last arm; or a cycle, a
/// chain whose last conjunct returns to `?x0`, projected on `(?x0, ?x1)`.
fn shaped_rule(shape: Shape, exprs: Vec<RegularExpr>) -> Rule {
    let n = exprs.len() as u32;
    let body = exprs
        .into_iter()
        .enumerate()
        .map(|(i, expr)| {
            let i = i as u32;
            let (src, trg) = match shape {
                Shape::Star => (0, i + 1),
                Shape::Cycle => (i, (i + 1) % n),
                _ => (i, i + 1),
            };
            Conjunct {
                src: Var(src),
                expr,
                trg: Var(trg),
            }
        })
        .collect();
    let head = match shape {
        Shape::Star => vec![Var(1), Var(n)],
        Shape::Cycle => vec![Var(0), Var(1)],
        _ => vec![Var(0), Var(n)],
    };
    Rule { head, body }
}

/// Strategy: a chain query of 1–3 conjuncts.
fn arb_chain(preds: usize) -> impl Strategy<Value = Query> {
    prop::collection::vec(arb_expr(preds), 1..=3).prop_map(|exprs| {
        Query::single(shaped_rule(Shape::Chain, exprs)).expect("chains are well-formed")
    })
}

/// Strategy: one rule of 2–3 conjuncts — chain, star or cycle — with a
/// join order for it: a random permutation of the body (indices sorted
/// by random keys) and a random traversal flip per step.
fn arb_rule_and_order(preds: usize) -> impl Strategy<Value = (Rule, Vec<(usize, bool)>)> {
    (
        prop_oneof![Just(Shape::Chain), Just(Shape::Star), Just(Shape::Cycle)],
        prop::collection::vec(arb_expr(preds), 2..=3),
        prop::collection::vec((any::<u64>(), any::<bool>()), 3),
    )
        .prop_map(|(shape, exprs, draws)| {
            let len = exprs.len();
            let rule = shaped_rule(shape, exprs);
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_by_key(|&i| (draws[i].0, i));
            let order = order.into_iter().map(|ci| (ci, draws[ci].1)).collect();
            (rule, order)
        })
}

/// A plan that joins each rule in the given `(conjunct, flip)` order.
/// Estimates are irrelevant to the engines and left at zero.
fn plan_with_orders(orders: &[Vec<(usize, bool)>]) -> QueryPlan {
    QueryPlan {
        rules: orders
            .iter()
            .map(|order| RulePlan {
                steps: order
                    .iter()
                    .map(|&(conjunct, flip)| ConjunctStep {
                        conjunct,
                        flip,
                        est_pairs: 0,
                    })
                    .collect(),
                est_rows: 0,
            })
            .collect(),
        est_answers: 0,
    }
}

/// Evaluates `query` through `kind` on a fresh context, planned there.
fn answers(kind: EngineKind, graph: &Graph, query: &Query, budget: &Budget) -> Answers {
    kind.evaluate_with(&EvalContext::new(graph), query, None, budget)
        .unwrap_or_else(|e| panic!("{} failed on {query:?}: {e}", kind.name()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relational_triplestore_datalog_agree(
        seed in 0u64..1000,
        query in arb_chain(2),
    ) {
        let graph = random_graph(30, 2, 45, seed);
        let budget = Budget::default();
        let a = answers(EngineKind::Relational, &graph, &query, &budget);
        let b = answers(EngineKind::TripleStore, &graph, &query, &budget);
        let c = answers(EngineKind::Datalog, &graph, &query, &budget);
        prop_assert_eq!(&a, &b, "relational vs triplestore");
        prop_assert_eq!(&a, &c, "relational vs datalog");
    }

    #[test]
    fn navigational_agrees_when_not_degraded(
        seed in 0u64..1000,
        query in arb_chain(2),
    ) {
        let (degraded, lossy) =
            gmark::engines::navigational::degrade_for_cypher(&query);
        prop_assume!(!lossy && degraded == query);
        let graph = random_graph(30, 2, 45, seed);
        let budget = Budget::default();
        let a = answers(EngineKind::Relational, &graph, &query, &budget);
        let n = answers(EngineKind::Navigational, &graph, &query, &budget);
        prop_assert_eq!(a, n);
    }

    #[test]
    fn boolean_queries_agree(
        seed in 0u64..1000,
        expr in arb_expr(2),
    ) {
        let query = Query::single(Rule {
            head: vec![],
            body: vec![Conjunct { src: Var(0), expr, trg: Var(1) }],
        }).unwrap();
        let graph = random_graph(20, 2, 25, seed);
        let budget = Budget::default();
        let a = answers(EngineKind::Relational, &graph, &query, &budget);
        let c = answers(EngineKind::Datalog, &graph, &query, &budget);
        prop_assert_eq!(a.non_empty(), c.non_empty());
    }

    #[test]
    fn star_shaped_queries_agree(
        seed in 0u64..1000,
        e1 in arb_expr(2),
        e2 in arb_expr(2),
    ) {
        // (?c, e1, ?x), (?c, e2, ?y) projected on (x, y).
        let query = Query::single(shaped_rule(Shape::Star, vec![e1, e2])).unwrap();
        let graph = random_graph(20, 2, 25, seed);
        let budget = Budget::default();
        let a = answers(EngineKind::Relational, &graph, &query, &budget);
        let b = answers(EngineKind::TripleStore, &graph, &query, &budget);
        let c = answers(EngineKind::Datalog, &graph, &query, &budget);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    // Plans never change answers: every engine, under any permutation of
    // every rule body and any traversal flips, returns exactly what it
    // returns in the planner's own order. Every flip is a valid order: a
    // conjunct whose seed variable is still unbound is explored from all
    // nodes.
    #[test]
    fn plans_never_change_answers(
        seed in 0u64..1000,
        rules in prop::collection::vec(arb_rule_and_order(2), 1..=2),
    ) {
        let (rules, orders): (Vec<Rule>, Vec<Vec<(usize, bool)>>) = rules.into_iter().unzip();
        let query = Query::new(rules).expect("every rule has a binary head");
        let graph = random_graph(20, 2, 25, seed);
        let ctx = EvalContext::new(&graph);
        let planned = plan_query(&ctx, None, &query);
        let permuted = plan_with_orders(&orders);
        let budget = Budget::default();
        for kind in EngineKind::ALL {
            let reference = kind.evaluate_with(&ctx, &query, Some(&planned), &budget).unwrap();
            let answers = kind.evaluate_with(&ctx, &query, Some(&permuted), &budget).unwrap();
            prop_assert_eq!(
                &answers,
                &reference,
                "{} under {:?} on {:?}",
                kind.name(),
                orders,
                query
            );
        }
    }
}

// Differential correctness on the *generator's own* output: for
// non-recursive workloads (no stars ⇒ no Section 7.1 degradation ⇒ even
// the navigational engine must agree), all engines produce identical
// sorted answer sets over small generated graphs — through one shared
// EvalContext per graph and one schema-driven plan per query, so this also
// pins that the shared-index path computes the same answers as the paper
// semantics.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engines_agree_on_nonrecursive_generated_workloads(seed in 0u64..400) {
        let schema = gmark::core::usecases::bib();
        let config = GraphConfig::new(250, schema.clone());
        let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(seed));
        let mut wcfg = WorkloadConfig::new(6).with_seed(seed ^ 0xD1FF);
        wcfg.recursion_probability = 0.0; // non-recursive ⇒ non-degraded
        let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
        let ctx = EvalContext::new(&graph);
        let budget = Budget::default();
        for gq in &workload.queries {
            prop_assert!(!gq.query.is_recursive());
            let (_, lossy) = gmark::engines::navigational::degrade_for_cypher(&gq.query);
            prop_assert!(!lossy, "non-recursive queries cannot be degraded");
            let plan = plan_query(&ctx, Some(&schema), &gq.query);
            let reference = EngineKind::Relational
                .evaluate_with(&ctx, &gq.query, Some(&plan), &budget)
                .unwrap();
            for kind in EngineKind::ALL {
                let answers = kind
                    .evaluate_with(&ctx, &gq.query, Some(&plan), &budget)
                    .unwrap();
                prop_assert_eq!(
                    &answers,
                    &reference,
                    "{} differs on {:?}",
                    kind.name(),
                    gq.query
                );
            }
        }
    }
}

#[test]
fn shared_context_matches_per_call_contexts() {
    // The shared EvalContext path (one context, many queries/engines)
    // must produce the same *result* — answers or typed budget failure —
    // as a fresh context per call under the same plan. The tight tuple
    // cap keeps heavy recursive cells cheap (they fail identically on
    // both paths).
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(300, schema.clone());
    let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(21));
    let mut wcfg = WorkloadConfig::new(8).with_seed(22);
    wcfg.recursion_probability = 0.3;
    let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
    let ctx = EvalContext::new(&graph);
    let budget = Budget::with_limits(None, 200_000);
    for gq in &workload.queries {
        let plan = plan_query(&ctx, Some(&schema), &gq.query);
        for kind in EngineKind::ALL {
            let shared = kind.evaluate_with(&ctx, &gq.query, Some(&plan), &budget);
            let fresh =
                kind.evaluate_with(&EvalContext::new(&graph), &gq.query, Some(&plan), &budget);
            assert_eq!(shared, fresh, "{} on {:?}", kind.name(), gq.query);
        }
    }
}

/// Graph size of [`engines_agree_on_generated_workloads`]: small enough
/// that its largest recursive closure stays cheap in debug builds.
const NODES: u64 = 200;

#[test]
fn engines_agree_on_generated_workloads() {
    // Not random shapes: the actual gMark workload generator's output,
    // recursive queries included.
    let schema = gmark::core::usecases::bib();
    let config = GraphConfig::new(NODES, schema.clone());
    let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(13));
    let mut wcfg = WorkloadConfig::new(15).with_seed(17);
    wcfg.recursion_probability = 0.3;
    let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
    let ctx = EvalContext::new(&graph);
    let budget = Budget::default();
    let mut nonempty_recursive = 0;
    for gq in &workload.queries {
        let plan = plan_query(&ctx, Some(&schema), &gq.query);
        let eval = |kind: EngineKind| {
            kind.evaluate_with(&ctx, &gq.query, Some(&plan), &budget)
                .unwrap()
        };
        let a = eval(EngineKind::Relational);
        let b = eval(EngineKind::TripleStore);
        let c = eval(EngineKind::Datalog);
        assert_eq!(a, b, "relational vs triplestore on {:?}", gq.query);
        assert_eq!(a, c, "relational vs datalog on {:?}", gq.query);
        if gq.query.is_recursive() && a.non_empty() {
            nonempty_recursive += 1;
        }
    }
    assert!(
        nonempty_recursive > 0,
        "the workload must exercise at least one recursive query with answers"
    );
}
