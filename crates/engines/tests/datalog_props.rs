//! Property tests for the generic Datalog core: on random positive
//! programs — heads of arity 0 to 5, constants and repeated variables in
//! body atoms, recursion through every IDB predicate — [`semi_naive`]
//! derives exactly the facts of a naive fixpoint written here.

use gmark_engines::datalog::{semi_naive, Atom, Database, Program, Term};
use gmark_engines::Budget;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Facts = BTreeMap<usize, BTreeSet<Vec<u32>>>;

/// Predicates `0` and `1` are extensional, `2..5` intensional with
/// arities `0`, `1..=3` and `4..=5` (so every case has a Boolean
/// predicate and a wide one). Predicate `3` also gets EDB facts, so
/// derived facts must stay disjoint from extensional ones.
fn arities(edb: &[usize], mid: usize, wide: usize) -> [usize; 5] {
    [edb[0], edb[1], 0, mid, wide]
}

/// A drawn rule: head predicate, head argument codes, and body atoms as
/// `(predicate, argument codes)`. Codes below 4 are variables, the rest
/// constants; argument lists are cut to the predicate's arity.
type RuleSpec = (usize, Vec<u32>, Vec<(usize, Vec<u32>)>);

fn term(code: u32) -> Term {
    if code < 4 {
        Term::Var(code)
    } else {
        Term::Const(code - 4)
    }
}

/// Builds the program for `rules`: body arguments come straight from
/// their codes; head arguments pick among the body's variables (rules
/// must be safe), or constants when the body has none.
fn build(arity: &[usize; 5], rules: &[RuleSpec]) -> Program {
    let mut prog = Program::new();
    for p in 0..5 {
        prog.predicate(&format!("r{p}"));
    }
    for (head_pred, head_codes, body) in rules {
        let head_pred = 2 + head_pred % 3;
        let body: Vec<Atom> = body
            .iter()
            .map(|(pred, codes)| Atom {
                pred: *pred,
                args: codes[..arity[*pred]].iter().map(|&c| term(c)).collect(),
            })
            .collect();
        let vars: Vec<Term> = body
            .iter()
            .flat_map(|a| &a.args)
            .filter(|t| matches!(t, Term::Var(_)))
            .copied()
            .collect();
        let args = head_codes[..arity[head_pred]]
            .iter()
            .map(|&c| {
                if vars.is_empty() {
                    Term::Const(c % 4)
                } else {
                    vars[c as usize % vars.len()]
                }
            })
            .collect();
        prog.rule(
            Atom {
                pred: head_pred,
                args,
            },
            body,
        );
    }
    prog
}

/// All extensions of `binding` that match `body` against `facts`.
fn matches(
    body: &[Atom],
    facts: &Facts,
    binding: &BTreeMap<u32, u32>,
    out: &mut Vec<BTreeMap<u32, u32>>,
) {
    let Some((atom, rest)) = body.split_first() else {
        out.push(binding.clone());
        return;
    };
    for fact in facts.get(&atom.pred).into_iter().flatten() {
        let mut extended = binding.clone();
        let fits = atom.args.iter().zip(fact).all(|(t, &v)| match *t {
            Term::Const(c) => c == v,
            Term::Var(x) => *extended.entry(x).or_insert(v) == v,
        });
        if fits {
            matches(rest, facts, &extended, out);
        }
    }
}

/// The least fixpoint, by re-running every rule on everything until
/// nothing new appears.
fn naive_fixpoint(prog: &Program, mut facts: Facts) -> Facts {
    loop {
        let mut new = Vec::new();
        for rule in &prog.rules {
            let mut bindings = Vec::new();
            matches(&rule.body, &facts, &BTreeMap::new(), &mut bindings);
            for b in bindings {
                let fact: Vec<u32> = rule
                    .head
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Const(c) => c,
                        Term::Var(x) => b[&x],
                    })
                    .collect();
                if !facts
                    .get(&rule.head.pred)
                    .is_some_and(|s| s.contains(&fact))
                {
                    new.push((rule.head.pred, fact));
                }
            }
        }
        if new.is_empty() {
            return facts;
        }
        for (pred, fact) in new {
            facts.entry(pred).or_default().insert(fact);
        }
    }
}

/// Runs both evaluations and compares every predicate's facts.
fn check(prog: &Program, edb: &[(usize, Vec<u32>)]) -> Result<(), TestCaseError> {
    let mut db = Database::new();
    let mut expected = Facts::new();
    for (pred, fact) in edb {
        db.insert(*pred, fact);
        expected.entry(*pred).or_default().insert(fact.clone());
    }
    let expected = naive_fixpoint(prog, expected);
    let got = semi_naive(prog, db, &Budget::default()).expect("within the default budget");
    for pred in 0..prog.predicate_count() {
        let facts: Vec<Vec<u32>> = got.facts(pred).map(<[u32]>::to_vec).collect();
        let distinct: BTreeSet<Vec<u32>> = facts.iter().cloned().collect();
        prop_assert_eq!(facts.len(), distinct.len(), "duplicate facts of r{}", pred);
        prop_assert_eq!(
            &distinct,
            &expected.get(&pred).cloned().unwrap_or_default(),
            "r{}",
            pred
        );
        prop_assert_eq!(got.count(pred), distinct.len());
    }
    Ok(())
}

fn atom_spec() -> impl Strategy<Value = (usize, Vec<u32>)> {
    (0usize..5, prop::collection::vec(0u32..7, 5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn semi_naive_matches_a_naive_fixpoint(
        edb_arity in prop::collection::vec(1usize..=3, 2),
        mid in 1usize..=3,
        wide in 4usize..=5,
        rules in prop::collection::vec(
            (0usize..3, prop::collection::vec(0u32..8, 5), prop::collection::vec(atom_spec(), 1..4)),
            1..7,
        ),
        facts in prop::collection::vec((0usize..3, prop::collection::vec(0u32..4, 5)), 0..30),
    ) {
        let arity = arities(&edb_arity, mid, wide);
        let prog = build(&arity, &rules);
        // Facts of predicates 0, 1 and 3, cut to their arities.
        let edb: Vec<(usize, Vec<u32>)> = facts
            .into_iter()
            .map(|(p, f)| {
                let pred = [0, 1, 3][p];
                (pred, f[..arity[pred]].to_vec())
            })
            .collect();
        check(&prog, &edb)?;
    }
}

fn var(i: u32) -> Term {
    Term::Var(i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nonlinear_recursion_matches_a_naive_fixpoint(
        edges in prop::collection::vec((0u32..16, 0u32..16), 0..40),
    ) {
        // Nonlinear recursion over a random graph runs for several rounds
        // with IDB atoms on both sides of its joins, so the join indexes
        // of non-delta atoms must keep up with the rows each round derives.
        let mut prog = Program::new();
        let e = prog.predicate("e");
        let path = prog.predicate("path");
        let tri = prog.predicate("tri");
        let cyclic = prog.predicate("cyclic");
        let at = |pred: usize, vars: &[u32]| Atom {
            pred,
            args: vars.iter().map(|&v| var(v)).collect(),
        };
        prog.rule(at(path, &[0, 1]), vec![at(e, &[0, 1])]);
        prog.rule(at(path, &[0, 1]), vec![at(path, &[0, 2]), at(path, &[2, 1])]);
        prog.rule(
            at(tri, &[0, 1, 2]),
            vec![at(path, &[0, 1]), at(path, &[1, 2]), at(e, &[2, 0])],
        );
        prog.rule(at(cyclic, &[0]), vec![at(path, &[0, 0])]);
        let edb: Vec<(usize, Vec<u32>)> = edges.into_iter().map(|(s, t)| (e, vec![s, t])).collect();
        check(&prog, &edb)?;
    }
}

#[test]
fn boolean_heads_derive_the_empty_fact_once() {
    // ans() :- e(X, Y), e(Y, X).   ans() :- e(X, X).
    let mut prog = Program::new();
    let e = prog.predicate("e");
    let ans = prog.predicate("ans");
    let swap = vec![
        Atom {
            pred: e,
            args: vec![var(0), var(1)],
        },
        Atom {
            pred: e,
            args: vec![var(1), var(0)],
        },
    ];
    prog.rule(
        Atom {
            pred: ans,
            args: vec![],
        },
        swap,
    );
    prog.rule(
        Atom {
            pred: ans,
            args: vec![],
        },
        vec![Atom {
            pred: e,
            args: vec![var(0), var(0)],
        }],
    );
    let edb = [(e, vec![0, 1]), (e, vec![1, 0]), (e, vec![2, 2])];
    check(&prog, &edb).unwrap();
    let mut db = Database::new();
    for (p, f) in &edb {
        db.insert(*p, f);
    }
    let out = semi_naive(&prog, db, &Budget::default()).unwrap();
    assert_eq!(out.count(ans), 1);
    assert_eq!(out.facts(ans).collect::<Vec<_>>(), vec![&[] as &[u32]]);
}

#[test]
fn wide_rows_and_wide_probe_keys_join_correctly() {
    // w(A,B,C,D,E) :- e(A,B), e(B,C), e(C,D), e(D,E).
    // both(A,B,C,D,E) :- w(A,B,C,D,E), w2(A,B,C,D,E): five bound
    // arguments, past the packed four-value probe key.
    // w2(A,B,C,D,E) :- w(A,B,C,D,E), e(E,A).
    let mut prog = Program::new();
    let e = prog.predicate("e");
    let w = prog.predicate("w");
    let w2 = prog.predicate("w2");
    let both = prog.predicate("both");
    let five: Vec<Term> = (0..5).map(var).collect();
    prog.rule(
        Atom {
            pred: w,
            args: five.clone(),
        },
        (0..4)
            .map(|i| Atom {
                pred: e,
                args: vec![var(i), var(i + 1)],
            })
            .collect(),
    );
    prog.rule(
        Atom {
            pred: w2,
            args: five.clone(),
        },
        vec![
            Atom {
                pred: w,
                args: five.clone(),
            },
            Atom {
                pred: e,
                args: vec![var(4), var(0)],
            },
        ],
    );
    prog.rule(
        Atom {
            pred: both,
            args: five.clone(),
        },
        vec![
            Atom {
                pred: w,
                args: five.clone(),
            },
            Atom {
                pred: w2,
                args: five,
            },
        ],
    );
    let edb: Vec<(usize, Vec<u32>)> = [(0, 1), (1, 2), (2, 0), (0, 0), (1, 0), (2, 3)]
        .into_iter()
        .map(|(s, t)| (e, vec![s, t]))
        .collect();
    check(&prog, &edb).unwrap();
}

#[test]
#[should_panic(expected = "arity")]
fn a_rule_cannot_change_a_predicates_arity() {
    let mut prog = Program::new();
    let e = prog.predicate("e");
    let p = prog.predicate("p");
    prog.rule(
        Atom {
            pred: p,
            args: vec![var(0)],
        },
        vec![Atom {
            pred: e,
            args: vec![var(0), var(1)],
        }],
    );
    prog.rule(
        Atom {
            pred: p,
            args: vec![var(0)],
        },
        vec![Atom {
            pred: e,
            args: vec![var(0)],
        }],
    );
}

#[test]
#[should_panic(expected = "arity")]
fn a_fact_cannot_change_a_predicates_arity() {
    let mut db = Database::new();
    db.insert(0, &[1, 2]);
    db.insert(0, &[1]);
}

#[test]
#[should_panic(expected = "arity")]
fn edb_facts_must_match_the_rules_arity() {
    let mut prog = Program::new();
    let e = prog.predicate("e");
    let p = prog.predicate("p");
    prog.rule(
        Atom {
            pred: p,
            args: vec![var(0)],
        },
        vec![Atom {
            pred: e,
            args: vec![var(0), var(1)],
        }],
    );
    let mut db = Database::new();
    db.insert(e, &[1, 2, 3]);
    let _ = semi_naive(&prog, db, &Budget::default());
}
