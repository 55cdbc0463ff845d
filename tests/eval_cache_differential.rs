//! Differential testing of the cross-cell sub-expression result cache.
//!
//! The cache (see `gmark_engines::context`) may only change *how fast*
//! cells evaluate, never *what* they report: for every engine and every
//! query — recursive shapes included — the (outcome label, answer
//! cardinality) of each cell must be identical with the cache enabled and
//! disabled, even when tuple caps make cells fail. These tests evaluate
//! every (query × engine) cell both ways and compare cell by cell.
//!
//! Each query is planned once, up front, on a cache-less context, and that
//! one plan drives both sides: the planner legitimately *reads* the cache
//! (exact cardinalities replace estimates, which can reorder joins), so a
//! plan per side would compare two join orders instead of isolating the
//! cache's contract that outcomes themselves never shift.

use gmark::engines::EvalCacheStats;
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

/// Strategy: a regular expression with 1–2 disjuncts, possibly starred —
/// the starred draws are the recursive shapes the cache caches hardest
/// (transitive closures are its headline hit).
fn arb_expr(preds: usize) -> impl Strategy<Value = RegularExpr> {
    (prop::collection::vec(arb_path(preds), 1..=2), any::<bool>())
        .prop_map(|(disjuncts, starred)| RegularExpr { disjuncts, starred })
}

/// Strategy: a chain query of 1–3 conjuncts.
fn arb_chain(preds: usize) -> impl Strategy<Value = Query> {
    prop::collection::vec(arb_expr(preds), 1..=3).prop_map(|exprs| {
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
        .expect("chains are well-formed")
    })
}

/// One evaluated cell: (query index, engine, outcome).
type Cell = (usize, EngineKind, CellOutcome);

/// Evaluates every (query × engine) cell on `ctx`, each under a fresh
/// budget and the query's shared plan.
fn cells(
    ctx: &EvalContext<'_>,
    queries: &[&Query],
    plans: &[QueryPlan],
    budget: &CellBudget,
) -> Vec<Cell> {
    let mut out = Vec::new();
    for (qi, (query, plan)) in queries.iter().zip(plans).enumerate() {
        for kind in EngineKind::ALL {
            let outcome = match kind.evaluate_with(ctx, query, Some(plan), &budget.start()) {
                Ok(answers) => CellOutcome::Answers {
                    arity: answers.arity,
                    count: answers.count(),
                },
                Err(e) => CellOutcome::Failed(e),
            };
            out.push((qi, kind, outcome));
        }
    }
    out
}

/// Evaluates all cells twice — cache on, cache off — on *fresh* contexts
/// (the cache freezes into its context on first fill), under one plan per
/// query computed before either cache exists. The cached context is
/// filled the way the matrix harness fills it: every conjunct expression,
/// then the navigational engine's degraded forms.
fn cell_pair(
    graph: &Graph,
    schema: Option<&Schema>,
    queries: &[&Query],
    max_tuples: usize,
) -> (Vec<Cell>, Vec<Cell>, Option<EvalCacheStats>) {
    let budget = CellBudget {
        timeout: None, // no wall clock: outcomes are pure in (graph, queries)
        max_tuples,
    };
    let plain_ctx = EvalContext::new(graph);
    let plans: Vec<QueryPlan> = queries
        .iter()
        .map(|q| plan_query(&plain_ctx, schema, q))
        .collect();
    let cached_ctx = EvalContext::new(graph);
    let mut exprs: Vec<RegularExpr> = Vec::new();
    for query in queries {
        let (degraded, _) = gmark::engines::navigational::degrade_for_cypher(query);
        for q in [*query, &degraded] {
            exprs.extend(
                q.rules
                    .iter()
                    .flat_map(|r| r.body.iter().map(|c| c.expr.clone())),
            );
        }
    }
    cached_ctx.fill_expr_cache(&exprs, MatrixOptions::DEFAULT_CACHE_MB, || budget.start());
    let cached = cells(&cached_ctx, queries, &plans, &budget);
    let plain = cells(&plain_ctx, queries, &plans, &budget);
    assert!(
        plain_ctx.expr_cache_stats().is_none(),
        "plain side never fills"
    );
    (cached, plain, cached_ctx.expr_cache_stats())
}

/// Asserts cell-for-cell equality of outcome labels (the count for ok
/// cells, the typed failure word otherwise).
fn assert_cells_match(cached: &[Cell], plain: &[Cell]) -> Result<(), TestCaseError> {
    prop_assert_eq!(cached.len(), plain.len());
    for ((q, kind, c), (_, _, p)) in cached.iter().zip(plain) {
        prop_assert_eq!(
            c.label(),
            p.label(),
            "query {} on {}: cached {:?} vs uncached {:?}",
            q,
            kind.name(),
            c,
            p
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Generous cap: (nearly) every cell completes, so this pins the
    // cached *cardinalities* — every engine must report the same count
    // with and without the cache, stars included.
    #[test]
    fn cached_and_uncached_report_identical_counts(
        seed in 0u64..1000,
        q1 in arb_chain(2),
        q2 in arb_chain(2),
    ) {
        let graph = random_graph(30, 2, 45, seed);
        let queries = [&q1, &q2];
        let (cached, plain, stats) = cell_pair(&graph, None, &queries, 1_000_000);
        assert_cells_match(&cached, &plain)?;
        let stats = stats.expect("cache was filled");
        // Two queries over four engines must actually exercise the cache.
        prop_assert!(stats.hits + stats.misses > 0);
    }

    // Tight cap: cells fail too-large. The failure *labels* must be
    // identical too — a cache hit may not rescue a cell its uncached
    // evaluation would fail, nor fail a cell it would complete.
    #[test]
    fn cached_and_uncached_fail_identically_under_tight_caps(
        seed in 0u64..1000,
        q1 in arb_chain(2),
        q2 in arb_chain(2),
        cap in prop_oneof![Just(50usize), Just(200usize), Just(800usize)],
    ) {
        let graph = random_graph(30, 2, 45, seed);
        let queries = [&q1, &q2];
        let (cached, plain, _) = cell_pair(&graph, None, &queries, cap);
        assert_cells_match(&cached, &plain)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The generator's own recursive workloads on the bib schema, planned
    // with the schema's selectivity classes: no ok-cell count may change
    // and no outcome may flip.
    #[test]
    fn generated_workloads_are_cache_invariant(seed in 0u64..400) {
        let schema = gmark::core::usecases::bib();
        let config = GraphConfig::new(200, schema.clone());
        let (graph, _) = generate_graph(&config, &GeneratorOptions::with_seed(seed));
        let mut wcfg = WorkloadConfig::new(6).with_seed(seed ^ 0xCAC4E);
        wcfg.recursion_probability = 0.5;
        let (workload, _) = generate_workload(&schema, &wcfg).expect("workload generates");
        let queries: Vec<&Query> = workload.queries.iter().map(|gq| &gq.query).collect();
        let (cached, plain, _) = cell_pair(&graph, Some(&schema), &queries, 100_000);
        assert_cells_match(&cached, &plain)?;
    }
}
