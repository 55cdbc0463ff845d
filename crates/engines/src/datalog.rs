//! A general-purpose semi-naive Datalog engine, and the `D`-style UCRPQ
//! engine built on it.
//!
//! The paper's system `D` is "a modern Datalog engine" — the only system
//! that completed every recursive query of Table 4. This module provides:
//!
//! * a small positive-Datalog core ([`Program`], [`semi_naive`]): relations
//!   of any fixed arity, rules with repeated variables and constants, and
//!   bottom-up evaluation with delta-driven (semi-naive) iteration;
//! * [`DatalogEngine`], which translates a UCRPQ into such a program —
//!   structurally the same translation `gmark-translate::datalog` prints —
//!   over the EDB `edge_<p>(X, Y)` / `node(X)` and evaluates it.
//!
//! Storage is flat: a predicate's facts are fixed-arity rows in one
//! `Vec<NodeId>`, in insertion order, deduplicated through a set of packed
//! row keys. A semi-naive delta is therefore just the range of rows a
//! predicate gained in the previous round. Rules are compiled once per
//! evaluation; each body atom that is not the delta joins through a hash
//! index on its bound arguments, kept per `(predicate, argument pattern)`
//! for the whole evaluation: the EDB part is indexed once, derived rows
//! are appended as they arrive. Only the delta atom is indexed afresh.
//!
//! Semi-naive evaluation re-derives each fact at most once per rule, which
//! keeps recursive closures incremental — the architectural reason `D`
//! outlives `P`/`S` on Table 4's quadratic recursive query.

use crate::relations::Relation;
use crate::{Answers, Budget, Engine, EvalError};
use gmark_core::query::{PathExpr, Query, RegularExpr};
use gmark_store::{GraphView, NodeId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// A term: variable (rule-scoped index) or constant (node id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule variable.
    Var(u32),
    /// A node constant.
    Const(NodeId),
}

/// A predicate atom `pred(t1, …, tk)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Interned predicate id (see [`Program::predicate`]).
    pub pred: usize,
    /// Argument terms.
    pub args: Vec<Term>,
}

/// A Datalog rule `head :- body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlRule {
    /// The head atom (IDB predicate, variables only).
    pub head: Atom,
    /// Body atoms (EDB or IDB).
    pub body: Vec<Atom>,
}

/// A positive Datalog program with interned predicate names.
#[derive(Debug, Clone, Default)]
pub struct Program {
    names: Vec<String>,
    by_name: FxHashMap<String, usize>,
    /// Per predicate: the arity fixed by the first rule that uses it.
    arities: Vec<Option<usize>>,
    /// The rules.
    pub rules: Vec<DlRule>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Interns a predicate name, returning its id.
    pub fn predicate(&mut self, name: &str) -> usize {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_owned());
        self.arities.push(None);
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an interned predicate.
    pub fn predicate_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Predicate name by id.
    pub fn predicate_name(&self, id: usize) -> &str {
        &self.names[id]
    }

    /// Number of interned predicates.
    pub fn predicate_count(&self) -> usize {
        self.names.len()
    }

    /// Adds a rule. Panics on an empty body, and on an atom whose
    /// argument count differs from an earlier use of its predicate.
    pub fn rule(&mut self, head: Atom, body: Vec<Atom>) {
        assert!(!body.is_empty(), "Datalog rules need non-empty bodies");
        for atom in std::iter::once(&head).chain(&body) {
            let arity = *self.arities[atom.pred].get_or_insert(atom.args.len());
            assert_eq!(
                arity,
                atom.args.len(),
                "predicate `{}` has arity {arity}",
                self.names[atom.pred]
            );
        }
        self.rules.push(DlRule { head, body });
    }
}

/// Hash key over a fixed number of node ids: up to four values packed
/// 32 bits each into a `u128` (UCRPQ programs only have unary and binary
/// atoms), an owned slice beyond. Keys carry no length: every key set and
/// index holds keys of one length (a relation's arity, a pattern's probe
/// count), so `[0]` and `[0, 0]` never meet.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Key {
    Packed(u128),
    Wide(Box<[NodeId]>),
}

impl Hash for Key {
    /// Hashes a packed key as one premixed word, so that every value
    /// reaches the low bits a hash table indexes by (a multiply-only
    /// hasher leaves those to the low input bits alone). The two variants
    /// never share a set, so the discriminant is left out.
    fn hash<H: Hasher>(&self, state: &mut H) {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        match self {
            Key::Packed(k) => {
                let (lo, hi) = (*k as u64, (*k >> 64) as u64);
                state.write_u64(
                    (lo ^ hi.wrapping_mul(MIX))
                        .wrapping_mul(MIX)
                        .rotate_left(32),
                );
            }
            Key::Wide(values) => values.hash(state),
        }
    }
}

#[inline]
fn key(values: impl ExactSizeIterator<Item = NodeId>) -> Key {
    if values.len() <= 4 {
        Key::Packed(values.fold(0, |k, v| (k << 32) | v as u128))
    } else {
        Key::Wide(values.collect())
    }
}

/// `count` rows of `width` node ids, stored flat.
#[derive(Debug, Clone, Default)]
struct Rows {
    width: usize,
    count: usize,
    data: Vec<NodeId>,
}

impl Rows {
    fn row(&self, r: usize) -> &[NodeId] {
        &self.data[r * self.width..(r + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        (0..self.count).map(|r| self.row(r))
    }
}

/// One predicate's facts: fixed-arity rows in insertion order, plus the
/// set of their keys for deduplication.
#[derive(Debug, Clone)]
struct Facts {
    rows: Rows,
    seen: FxHashSet<Key>,
}

impl Facts {
    fn contains(&self, row: &[NodeId]) -> bool {
        self.seen.contains(&key(row.iter().copied()))
    }

    fn insert(&mut self, row: &[NodeId]) -> bool {
        let new = self.seen.insert(key(row.iter().copied()));
        if new {
            self.rows.data.extend_from_slice(row);
            self.rows.count += 1;
        }
        new
    }
}

/// Extensional + derived facts, keyed by predicate id. Each predicate has
/// one arity, fixed by its first fact.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: Vec<Option<Facts>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Inserts a fact; returns whether it was new. Panics if the
    /// predicate already holds facts of another arity.
    pub fn insert(&mut self, pred: usize, tuple: &[NodeId]) -> bool {
        self.relation_mut(pred, tuple.len()).insert(tuple)
    }

    fn relation(&self, pred: usize) -> Option<&Facts> {
        self.relations.get(pred).and_then(Option::as_ref)
    }

    fn relation_mut(&mut self, pred: usize, arity: usize) -> &mut Facts {
        if self.relations.len() <= pred {
            self.relations.resize_with(pred + 1, || None);
        }
        let facts = self.relations[pred].get_or_insert_with(|| Facts {
            rows: Rows {
                width: arity,
                ..Rows::default()
            },
            seen: FxHashSet::default(),
        });
        assert_eq!(
            facts.rows.width, arity,
            "predicate {pred} has arity {}",
            facts.rows.width
        );
        facts
    }

    /// The facts of a predicate, in insertion order (none if absent).
    pub fn facts(&self, pred: usize) -> impl Iterator<Item = &[NodeId]> {
        self.relation(pred).into_iter().flat_map(|f| f.rows.iter())
    }

    /// Number of facts for a predicate.
    pub fn count(&self, pred: usize) -> usize {
        self.relation(pred).map_or(0, |f| f.rows.count)
    }

    /// Total number of facts.
    pub fn total(&self) -> usize {
        self.relations.iter().flatten().map(|f| f.rows.count).sum()
    }
}

/// Runs semi-naive bottom-up evaluation of `program` over `edb`, returning
/// the database extended with all derivable IDB facts.
pub fn semi_naive(
    program: &Program,
    mut db: Database,
    budget: &Budget,
) -> Result<Database, EvalError> {
    let idb = semi_naive_over(program, &db, budget)?;
    for pred in 0..idb.relations.len() {
        for fact in idb.facts(pred) {
            db.insert(pred, fact);
        }
    }
    Ok(db)
}

/// Semi-naive evaluation against a **borrowed** extensional database:
/// derived facts accumulate in a fresh IDB-only [`Database`] which is
/// returned, while `edb` is only read. This is the shared-context hot
/// path — a whole evaluation matrix reuses one EDB built from the graph
/// (see [`crate::EvalContext::edb`]) instead of rebuilding `node(v)` and
/// every `edge_<p>(s, t)` fact per query.
///
/// Panics if `edb` holds facts of a predicate at an arity other than the
/// program's.
pub fn semi_naive_over(
    program: &Program,
    edb: &Database,
    budget: &Budget,
) -> Result<Database, EvalError> {
    for (pred, &arity) in program.arities.iter().enumerate() {
        if let (Some(rules), Some(facts)) = (arity, edb.relation(pred).map(|f| f.rows.width)) {
            assert_eq!(
                rules,
                facts,
                "predicate `{}` has arity {rules} in the rules, {facts} in the EDB",
                program.predicate_name(pred)
            );
        }
    }
    let mut idb = Database::new();
    let mut joins = Joins::compile(program);
    // IDB predicates = heads of rules.
    let idb_preds: FxHashSet<usize> = program.rules.iter().map(|r| r.head.pred).collect();

    // Predicates whose every defining rule has an IDB-free body are
    // complete after round 0 (the `<p>_step` predicates of closure
    // translations). Against such a stable right side, a linear-recursion
    // delta rule `p(X,Y) :- p(X,Z), step(Z,Y)` is exactly a sorted
    // compose — the same kernel the relational path runs — instead of a
    // hash join.
    let mut rules_of: FxHashMap<usize, Vec<&DlRule>> = FxHashMap::default();
    for rule in &program.rules {
        rules_of.entry(rule.head.pred).or_default().push(rule);
    }
    let stable_after_round0 = |p: usize| {
        rules_of.get(&p).is_none_or(|rs| {
            rs.iter()
                .all(|r| r.body.iter().all(|a| !idb_preds.contains(&a.pred)))
        })
    };
    let rec_step: Vec<Option<usize>> = program
        .rules
        .iter()
        .map(|r| linear_recursion_step(r).filter(|&s| stable_after_round0(s)))
        .collect();
    let mut step_rels: FxHashMap<usize, Relation> = FxHashMap::default();

    // Round 0: evaluate every rule on the full (layered) database.
    for (ri, rule) in program.rules.iter().enumerate() {
        let derived = joins.eval_rule(ri, edb, &idb, None, budget)?;
        absorb(&mut idb, edb, &rule.head, &derived);
    }

    // Delta-driven rounds: for each rule and each IDB body position, join
    // the delta at that position against the full database elsewhere. A
    // predicate's delta is the rows it gained in the previous round:
    // `done[p]..upto[p]`.
    let mut done = vec![0; program.predicate_count()];
    loop {
        let upto: Vec<usize> = (0..done.len()).map(|p| idb.count(p)).collect();
        if upto == done {
            break;
        }
        budget.check_time()?;
        budget.check_size(edb.total() + idb.total())?;
        for (ri, rule) in program.rules.iter().enumerate() {
            for (pos, atom) in rule.body.iter().enumerate() {
                let delta = done[atom.pred]..upto[atom.pred];
                if delta.is_empty() {
                    continue;
                }
                let derived = match rec_step[ri] {
                    Some(step) if pos == 0 => {
                        // Sorted-kernel fast path: Δp ∘ step.
                        let rows = &idb.relation(atom.pred).expect("delta is non-empty").rows;
                        let delta_rel = Relation::from_pairs(
                            delta.map(|r| rows.row(r)).map(|f| (f[0], f[1])).collect(),
                        );
                        let step_rel = step_rels.entry(step).or_insert_with(|| {
                            Relation::from_pairs(
                                edb.facts(step)
                                    .chain(idb.facts(step))
                                    .map(|f| (f[0], f[1]))
                                    .collect(),
                            )
                        });
                        let composed = delta_rel.compose(step_rel, budget)?;
                        Rows {
                            width: 2,
                            count: composed.len(),
                            data: composed.pairs().iter().flat_map(|&(x, y)| [x, y]).collect(),
                        }
                    }
                    _ => joins.eval_rule(ri, edb, &idb, Some((pos, delta)), budget)?,
                };
                absorb(&mut idb, edb, &rule.head, &derived);
            }
        }
        done = upto;
    }
    Ok(idb)
}

/// Inserts derived head rows into the IDB, skipping facts the EDB
/// already holds (so the two layers stay disjoint).
fn absorb(idb: &mut Database, edb: &Database, head: &Atom, derived: &Rows) {
    let head_edb = edb.relation(head.pred);
    let facts = idb.relation_mut(head.pred, head.args.len());
    for fact in derived.iter() {
        if head_edb.is_none_or(|s| !s.contains(fact)) {
            facts.insert(fact);
        }
    }
}

/// Recognizes the canonical linear-recursion shape
/// `p(X, Y) :- p(X, Z), s(Z, Y)` with `X`, `Y`, `Z` distinct variables,
/// returning the step predicate `s`. The caller still has to prove `s`
/// stable before substituting a compose for the hash join.
fn linear_recursion_step(rule: &DlRule) -> Option<usize> {
    if rule.body.len() != 2 {
        return None;
    }
    let [Term::Var(x), Term::Var(y)] = rule.head.args[..] else {
        return None;
    };
    let rec = &rule.body[0];
    let step = &rule.body[1];
    if rec.pred != rule.head.pred {
        return None;
    }
    let [Term::Var(rx), Term::Var(z)] = rec.args[..] else {
        return None;
    };
    let [Term::Var(sz), Term::Var(sy)] = step.args[..] else {
        return None;
    };
    if x == y || z == x || z == y || rx != x || sz != z || sy != y {
        return None;
    }
    Some(step.pred)
}

/// How a body atom's arguments meet the variables bound before it: the
/// facts it admits and the shape of its join index.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Pattern {
    /// `(argument, constant)`: the argument must equal the constant.
    consts: Vec<(usize, NodeId)>,
    /// `(argument, earlier argument)`: a variable repeated within the atom.
    repeats: Vec<(usize, usize)>,
    /// Arguments bound by earlier atoms: the probe key, in argument order.
    probes: Vec<usize>,
    /// First occurrences of unbound variables, in argument order.
    binds: Vec<usize>,
}

/// The facts of one [`Pattern`], grouped by probe key. A group holds the
/// bind-argument values of its facts, flat (stride: the bind count, or
/// one placeholder per fact for a pattern without binds).
#[derive(Debug, Default)]
struct JoinIndex {
    groups: FxHashMap<Key, Vec<NodeId>>,
    /// Whether the EDB rows are in.
    edb_done: bool,
    /// How many IDB rows are in.
    idb_done: usize,
}

impl JoinIndex {
    fn add(&mut self, pattern: &Pattern, fact: &[NodeId]) {
        if pattern.consts.iter().any(|&(i, c)| fact[i] != c)
            || pattern.repeats.iter().any(|&(i, j)| fact[i] != fact[j])
        {
            return;
        }
        let group = self
            .groups
            .entry(key(pattern.probes.iter().map(|&i| fact[i])))
            .or_default();
        if pattern.binds.is_empty() {
            group.push(0);
        } else {
            group.extend(pattern.binds.iter().map(|&i| fact[i]));
        }
    }

    /// Brings the index up to date with the EDB and the IDB rows derived
    /// so far.
    fn refresh(&mut self, pattern: &Pattern, edb: Option<&Facts>, idb: Option<&Facts>) {
        if !self.edb_done {
            for fact in edb.into_iter().flat_map(|f| f.rows.iter()) {
                self.add(pattern, fact);
            }
            self.edb_done = true;
        }
        if let Some(idb) = idb {
            for r in self.idb_done..idb.rows.count {
                self.add(pattern, idb.rows.row(r));
            }
            self.idb_done = idb.rows.count;
        }
    }
}

/// A body atom compiled against the variables bound before it.
#[derive(Debug)]
struct AtomPlan {
    pred: usize,
    /// The atom's pattern and persistent index, in [`Joins`].
    index: usize,
    /// Row slots whose values form the probe key.
    probe_slots: Vec<usize>,
    /// Row slots the bind arguments fill.
    bind_slots: Vec<usize>,
}

/// A rule compiled to a variable → slot layout over flat binding rows.
#[derive(Debug)]
struct RulePlan {
    width: usize,
    atoms: Vec<AtomPlan>,
    /// Head arguments, with variables renumbered to slots.
    head: Vec<Term>,
}

/// The compiled rules of one evaluation and the join indexes they share,
/// one per distinct `(predicate, pattern)`.
#[derive(Debug, Default)]
struct Joins {
    rules: Vec<RulePlan>,
    patterns: Vec<Pattern>,
    interned: FxHashMap<(usize, Pattern), usize>,
    indexes: Vec<JoinIndex>,
}

impl Joins {
    fn compile(program: &Program) -> Joins {
        let mut joins = Joins::default();
        for rule in &program.rules {
            let plan = joins.compile_rule(rule);
            joins.rules.push(plan);
        }
        joins
            .indexes
            .resize_with(joins.patterns.len(), JoinIndex::default);
        joins
    }

    fn compile_rule(&mut self, rule: &DlRule) -> RulePlan {
        // Variable → slot layout, in first occurrence order across the body.
        let mut slot_of: FxHashMap<u32, usize> = FxHashMap::default();
        for t in rule.body.iter().flat_map(|a| &a.args) {
            if let Term::Var(v) = *t {
                let n = slot_of.len();
                slot_of.entry(v).or_insert(n);
            }
        }
        let width = slot_of.len().max(1);
        let mut bound = vec![false; width];
        let mut atoms = Vec::with_capacity(rule.body.len());
        for atom in &rule.body {
            let mut pattern = Pattern::default();
            let (mut probe_slots, mut bind_slots) = (Vec::new(), Vec::new());
            let mut first_arg: FxHashMap<u32, usize> = FxHashMap::default();
            for (i, t) in atom.args.iter().enumerate() {
                let v = match *t {
                    Term::Const(c) => {
                        pattern.consts.push((i, c));
                        continue;
                    }
                    Term::Var(v) => v,
                };
                if let Some(&earlier) = first_arg.get(&v) {
                    pattern.repeats.push((i, earlier));
                    continue;
                }
                first_arg.insert(v, i);
                let slot = slot_of[&v];
                if bound[slot] {
                    pattern.probes.push(i);
                    probe_slots.push(slot);
                } else {
                    pattern.binds.push(i);
                    bind_slots.push(slot);
                }
            }
            for &slot in &bind_slots {
                bound[slot] = true;
            }
            let next = self.patterns.len();
            let index = *self
                .interned
                .entry((atom.pred, pattern.clone()))
                .or_insert(next);
            if index == next {
                self.patterns.push(pattern);
            }
            atoms.push(AtomPlan {
                pred: atom.pred,
                index,
                probe_slots,
                bind_slots,
            });
        }
        let head = rule
            .head
            .args
            .iter()
            .map(|t| match *t {
                Term::Var(v) => Term::Var(slot_of[&v] as u32),
                c => c,
            })
            .collect();
        RulePlan { width, atoms, head }
    }

    /// Evaluates rule `ri`'s body left-to-right over the layered `edb` +
    /// `idb` database and returns its head rows. When `delta = Some((i,
    /// rows))`, atom `i` ranges over those IDB rows of its predicate
    /// instead of the full relation (the semi-naive restriction).
    ///
    /// Bindings are flat fixed-width rows over the rule's slot layout (no
    /// per-row maps — this is the hot loop of the engine; the paper's
    /// system `D` wins Table 4 precisely because its recursive joins stay
    /// cheap).
    fn eval_rule(
        &mut self,
        ri: usize,
        edb: &Database,
        idb: &Database,
        delta: Option<(usize, Range<usize>)>,
        budget: &Budget,
    ) -> Result<Rows, EvalError> {
        let rule = &self.rules[ri];
        let width = rule.width;
        let mut rows = Rows {
            width,
            count: 1,
            data: vec![0; width],
        };
        for (pos, atom) in rule.atoms.iter().enumerate() {
            budget.check_time()?;
            let pattern = &self.patterns[atom.index];
            let fresh;
            let index = match &delta {
                Some((p, range)) if *p == pos => {
                    let facts = idb.relation(atom.pred).expect("delta is non-empty");
                    let mut index = JoinIndex::default();
                    for r in range.clone() {
                        index.add(pattern, facts.rows.row(r));
                    }
                    fresh = index;
                    &fresh
                }
                _ => {
                    let index = &mut self.indexes[atom.index];
                    index.refresh(pattern, edb.relation(atom.pred), idb.relation(atom.pred));
                    &*index
                }
            };

            // Join the current rows against the index.
            let stride = atom.bind_slots.len().max(1);
            let mut next = Rows {
                width,
                ..Rows::default()
            };
            for r in 0..rows.count {
                let row = rows.row(r);
                let probe = key(atom.probe_slots.iter().map(|&s| row[s]));
                if let Some(group) = index.groups.get(&probe) {
                    for values in group.chunks_exact(stride) {
                        next.data.extend_from_slice(row);
                        let new_row = next.count * width;
                        for (&slot, &v) in atom.bind_slots.iter().zip(values) {
                            next.data[new_row + slot] = v;
                        }
                        next.count += 1;
                    }
                }
                if r % 1024 == 0 {
                    budget.check_time()?;
                }
                budget.check_size(next.count)?;
            }
            rows = next;
            if rows.count == 0 {
                break;
            }
        }

        // Project onto the head.
        let mut out = Rows {
            width: rule.head.len(),
            count: rows.count,
            data: Vec::with_capacity(rows.count * rule.head.len()),
        };
        for row in rows.iter() {
            out.data.extend(rule.head.iter().map(|t| match *t {
                Term::Const(c) => c,
                Term::Var(slot) => row[slot as usize],
            }));
        }
        Ok(out)
    }
}

/// Builds the EDB for a graph: `edge_<p>(s, t)` per predicate plus `node(v)`.
pub fn graph_edb<'g>(graph: impl Into<GraphView<'g>>, program: &mut Program) -> Database {
    let graph = graph.into();
    let mut db = Database::new();
    let node = program.predicate("node");
    for v in 0..graph.node_count() {
        db.insert(node, &[v]);
    }
    for p in 0..graph.predicate_count() {
        let pred = program.predicate(&format!("edge_{p}"));
        for (s, t) in graph.pairs(p, false) {
            db.insert(pred, &[s, t]);
        }
    }
    db
}

/// Appends a UCRPQ's rules to an existing program — typically a clone of
/// the shared-context base program whose `node`/`edge_<p>` ids already
/// match a prebuilt EDB — returning the interned `ans` predicate id.
/// Predicates already interned (by name) are reused, so the EDB facts and
/// the query rules agree on ids without rebuilding either. The program is
/// structurally identical to the textual translation in
/// `gmark-translate::datalog`, except that each `ans` rule body lists its
/// atoms in the order of `plan`: semi-naive evaluation joins body atoms
/// left to right, so the planner's selective-first order bounds the
/// intermediate binding sets the same way it does for the other engines.
/// The auxiliary path/closure rules do not depend on the plan.
pub fn append_query_rules(
    prog: &mut Program,
    query: &Query,
    plan: &crate::planner::QueryPlan,
) -> Result<usize, EvalError> {
    let node = prog.predicate("node");
    let ans = prog.predicate("ans");
    let mut fresh = 0usize;

    // Emits rules defining `pred(X, Y)` as one path expression.
    fn path_rules(prog: &mut Program, node: usize, head_pred: usize, p: &PathExpr) {
        if p.is_empty() {
            prog.rule(
                Atom {
                    pred: head_pred,
                    args: vec![Term::Var(0), Term::Var(0)],
                },
                vec![Atom {
                    pred: node,
                    args: vec![Term::Var(0)],
                }],
            );
            return;
        }
        // X = var 0, Y = var 1, intermediates from 2 up.
        let mut body = Vec::with_capacity(p.len());
        for (i, sym) in p.0.iter().enumerate() {
            let from = if i == 0 {
                Term::Var(0)
            } else {
                Term::Var(i as u32 + 1)
            };
            let to = if i + 1 == p.len() {
                Term::Var(1)
            } else {
                Term::Var(i as u32 + 2)
            };
            let edge = prog.predicate(&format!("edge_{}", sym.predicate.0));
            let args = if sym.inverse {
                vec![to, from]
            } else {
                vec![from, to]
            };
            body.push(Atom { pred: edge, args });
        }
        prog.rule(
            Atom {
                pred: head_pred,
                args: vec![Term::Var(0), Term::Var(1)],
            },
            body,
        );
    }

    fn expr_pred(prog: &mut Program, node: usize, fresh: &mut usize, expr: &RegularExpr) -> usize {
        let name = format!("p{}", *fresh);
        *fresh += 1;
        let pred = prog.predicate(&name);
        if expr.starred {
            let step = prog.predicate(&format!("{name}_step"));
            for d in &expr.disjuncts {
                path_rules(prog, node, step, d);
            }
            // p(X, X) :- node(X).
            prog.rule(
                Atom {
                    pred,
                    args: vec![Term::Var(0), Term::Var(0)],
                },
                vec![Atom {
                    pred: node,
                    args: vec![Term::Var(0)],
                }],
            );
            // p(X, Y) :- p(X, Z), step(Z, Y).
            prog.rule(
                Atom {
                    pred,
                    args: vec![Term::Var(0), Term::Var(1)],
                },
                vec![
                    Atom {
                        pred,
                        args: vec![Term::Var(0), Term::Var(2)],
                    },
                    Atom {
                        pred: step,
                        args: vec![Term::Var(2), Term::Var(1)],
                    },
                ],
            );
        } else {
            for d in &expr.disjuncts {
                path_rules(prog, node, pred, d);
            }
        }
        pred
    }

    for (ri, rule) in query.rules.iter().enumerate() {
        let order = plan.rule_order(ri, rule.body.len())?;
        // Auxiliary expression predicates are interned in declaration
        // order; only the `ans` body atom order follows the plan.
        let preds: Vec<usize> = rule
            .body
            .iter()
            .map(|c| expr_pred(prog, node, &mut fresh, &c.expr))
            .collect();
        let body: Vec<Atom> = order
            .into_iter()
            .map(|(ci, _)| {
                let c = &rule.body[ci];
                Atom {
                    pred: preds[ci],
                    args: vec![Term::Var(c.src.0), Term::Var(c.trg.0)],
                }
            })
            .collect();
        let head_args: Vec<Term> = rule.head.iter().map(|v| Term::Var(v.0)).collect();
        prog.rule(
            Atom {
                pred: ans,
                args: head_args,
            },
            body,
        );
    }
    Ok(ans)
}

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DatalogEngine;

impl Engine for DatalogEngine {
    fn evaluate(
        &self,
        ctx: &crate::EvalContext<'_>,
        query: &Query,
        plan: &crate::planner::QueryPlan,
        budget: &Budget,
    ) -> Result<Answers, EvalError> {
        // The per-query program extends a clone of the base program (a
        // handful of interned names) while the EDB facts — the expensive
        // part — stay borrowed from the shared context.
        //
        // Deliberately NOT a consumer of the shared sub-expression cache:
        // semi-naive evaluation charges the budget for auxiliary
        // predicates and raw (pre-dedup) join products that a seeded fact
        // set would never materialize, so a cache hit could complete a
        // cell whose uncached evaluation reports too-large — breaking the
        // cache's outcome-identity contract (see the context module docs).
        // The closure-heavy cells the cache targets are served here by the
        // sorted-kernel fast path of [`semi_naive_over`] instead.
        let (base, edb) = ctx.edb();
        let mut program = base.clone();
        let ans = append_query_rules(&mut program, query, plan)?;
        let idb = semi_naive_over(&program, edb, budget)?;
        let tuples: Vec<Vec<NodeId>> = idb.facts(ans).map(<[NodeId]>::to_vec).collect();
        Ok(Answers::new(query.arity(), tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_on;
    use crate::relational::RelationalEngine;
    use gmark_core::query::{Conjunct, Rule, Symbol, Var};
    use gmark_core::schema::PredicateId;
    use gmark_store::{EdgeSink, Graph, GraphBuilder, TypePartition};

    fn sym(i: usize) -> Symbol {
        Symbol::forward(PredicateId(i))
    }

    /// Classic ancestor test for the generic engine.
    #[test]
    fn transitive_closure_program() {
        let mut prog = Program::new();
        let edge = prog.predicate("edge");
        let path = prog.predicate("path");
        // path(X,Y) :- edge(X,Y).  path(X,Y) :- path(X,Z), edge(Z,Y).
        prog.rule(
            Atom {
                pred: path,
                args: vec![Term::Var(0), Term::Var(1)],
            },
            vec![Atom {
                pred: edge,
                args: vec![Term::Var(0), Term::Var(1)],
            }],
        );
        prog.rule(
            Atom {
                pred: path,
                args: vec![Term::Var(0), Term::Var(1)],
            },
            vec![
                Atom {
                    pred: path,
                    args: vec![Term::Var(0), Term::Var(2)],
                },
                Atom {
                    pred: edge,
                    args: vec![Term::Var(2), Term::Var(1)],
                },
            ],
        );
        let mut db = Database::new();
        for (s, t) in [(0u32, 1u32), (1, 2), (2, 3)] {
            db.insert(edge, &[s, t]);
        }
        let db = semi_naive(&prog, db, &Budget::default()).unwrap();
        assert_eq!(db.count(path), 6); // chain of 4 nodes: 3+2+1 pairs
        let mut facts: Vec<_> = db.facts(path).map(<[NodeId]>::to_vec).collect();
        facts.sort();
        assert_eq!(
            facts,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
    }

    #[test]
    fn constants_and_repeated_vars() {
        let mut prog = Program::new();
        let edge = prog.predicate("edge");
        let loops = prog.predicate("self_loop");
        let from_zero = prog.predicate("from_zero");
        // self_loop(X) :- edge(X, X).
        prog.rule(
            Atom {
                pred: loops,
                args: vec![Term::Var(0)],
            },
            vec![Atom {
                pred: edge,
                args: vec![Term::Var(0), Term::Var(0)],
            }],
        );
        // from_zero(Y) :- edge(0, Y).
        prog.rule(
            Atom {
                pred: from_zero,
                args: vec![Term::Var(0)],
            },
            vec![Atom {
                pred: edge,
                args: vec![Term::Const(0), Term::Var(0)],
            }],
        );
        let mut db = Database::new();
        for (s, t) in [(0u32, 1u32), (1, 1), (2, 2), (0, 3)] {
            db.insert(edge, &[s, t]);
        }
        let db = semi_naive(&prog, db, &Budget::default()).unwrap();
        let mut l: Vec<_> = db.facts(loops).map(<[NodeId]>::to_vec).collect();
        l.sort();
        assert_eq!(l, vec![vec![1], vec![2]]);
        let mut f: Vec<_> = db.facts(from_zero).map(<[NodeId]>::to_vec).collect();
        f.sort();
        assert_eq!(f, vec![vec![1], vec![3]]);
    }

    #[test]
    fn mutual_recursion() {
        // even(X) :- zero(X). even(Y) :- odd(X), succ(X,Y).
        // odd(Y) :- even(X), succ(X,Y).
        let mut prog = Program::new();
        let zero = prog.predicate("zero");
        let succ = prog.predicate("succ");
        let even = prog.predicate("even");
        let odd = prog.predicate("odd");
        prog.rule(
            Atom {
                pred: even,
                args: vec![Term::Var(0)],
            },
            vec![Atom {
                pred: zero,
                args: vec![Term::Var(0)],
            }],
        );
        prog.rule(
            Atom {
                pred: even,
                args: vec![Term::Var(1)],
            },
            vec![
                Atom {
                    pred: odd,
                    args: vec![Term::Var(0)],
                },
                Atom {
                    pred: succ,
                    args: vec![Term::Var(0), Term::Var(1)],
                },
            ],
        );
        prog.rule(
            Atom {
                pred: odd,
                args: vec![Term::Var(1)],
            },
            vec![
                Atom {
                    pred: even,
                    args: vec![Term::Var(0)],
                },
                Atom {
                    pred: succ,
                    args: vec![Term::Var(0), Term::Var(1)],
                },
            ],
        );
        let mut db = Database::new();
        db.insert(zero, &[0]);
        for i in 0..10u32 {
            db.insert(succ, &[i, i + 1]);
        }
        let db = semi_naive(&prog, db, &Budget::default()).unwrap();
        let evens: FxHashSet<u32> = db.facts(even).map(|f| f[0]).collect();
        let odds: FxHashSet<u32> = db.facts(odd).map(|f| f[0]).collect();
        assert_eq!(evens, (0..=10).filter(|i| i % 2 == 0).collect());
        assert_eq!(odds, (0..=10).filter(|i| i % 2 == 1).collect());
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
    fn ucrpq_agrees_with_relational() {
        use gmark_core::query::PathExpr;
        let cases = vec![
            chain(vec![RegularExpr::symbol(sym(0))]),
            chain(vec![RegularExpr::symbol(sym(1).flipped())]),
            chain(vec![
                RegularExpr::path(PathExpr(vec![sym(0), sym(1)])),
                RegularExpr::symbol(sym(0).flipped()),
            ]),
            chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]),
            chain(vec![RegularExpr::star(vec![
                PathExpr(vec![sym(0), sym(1).flipped()]),
                PathExpr(vec![sym(1)]),
            ])]),
        ];
        for q in cases {
            let a = eval_on(&DatalogEngine, &graph(), &q, &Budget::default()).unwrap();
            let b = eval_on(&RelationalEngine, &graph(), &q, &Budget::default()).unwrap();
            assert_eq!(a, b, "mismatch on {q:?}");
        }
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
        let a = eval_on(&DatalogEngine, &graph(), &q, &Budget::default()).unwrap();
        assert!(a.non_empty());
    }

    #[test]
    fn budget_enforced() {
        use gmark_core::query::PathExpr;
        let q = chain(vec![RegularExpr::star(vec![PathExpr(vec![sym(0)])])]);
        let tight = Budget {
            max_tuples: 5,
            ..Budget::default()
        };
        assert!(eval_on(&DatalogEngine, &graph(), &q, &tight).is_err());
    }

    fn atom(pred: usize, args: &[Term]) -> Atom {
        Atom {
            pred,
            args: args.to_vec(),
        }
    }

    use Term::{Const as C, Var as V};

    /// The smallest `max_tuples` under which `semi_naive` completes: every
    /// budget charge is a `tuples > max_tuples` check, so passing is
    /// monotone in the cap and a doubling + bisection search finds it.
    fn min_passing_cap(prog: &Program, db: &Database) -> usize {
        let passes = |cap: usize| {
            let budget = Budget {
                max_tuples: cap,
                ..Budget::default()
            };
            semi_naive(prog, db.clone(), &budget).is_ok()
        };
        if passes(0) {
            return 0;
        }
        let (mut lo, mut hi) = (0usize, 1usize); // !passes(lo)
        while !passes(hi) {
            lo = hi;
            hi *= 2;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if passes(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// A 24-node graph with a long chain, chords and two cycles.
    fn edge_db(edge: usize) -> Database {
        let mut db = Database::new();
        for i in 0..24u32 {
            db.insert(edge, &[i, (i + 1) % 24]);
            if i % 3 == 0 {
                db.insert(edge, &[i, (i * 7 + 5) % 24]);
            }
            if i % 5 == 0 {
                db.insert(edge, &[i, i]);
            }
        }
        db
    }

    #[test]
    fn budget_charge_points_are_pinned() {
        // Left-linear closure over an EDB step: the sorted-compose path.
        let mut left = Program::new();
        let edge = left.predicate("edge");
        let path = left.predicate("path");
        left.rule(atom(path, &[V(0), V(1)]), vec![atom(edge, &[V(0), V(1)])]);
        left.rule(
            atom(path, &[V(0), V(1)]),
            vec![atom(path, &[V(0), V(2)]), atom(edge, &[V(2), V(1)])],
        );
        // Right-linear closure: the hash-join delta path.
        let mut right = Program::new();
        let edge_r = right.predicate("edge");
        let path_r = right.predicate("path");
        right.rule(
            atom(path_r, &[V(0), V(1)]),
            vec![atom(edge_r, &[V(0), V(1)])],
        );
        right.rule(
            atom(path_r, &[V(0), V(1)]),
            vec![atom(edge_r, &[V(0), V(2)]), atom(path_r, &[V(2), V(1)])],
        );
        // A three-atom chain.
        let mut chain = Program::new();
        let edge_c = chain.predicate("edge");
        let q = chain.predicate("q");
        chain.rule(
            atom(q, &[V(0), V(3)]),
            vec![
                atom(edge_c, &[V(0), V(1)]),
                atom(edge_c, &[V(1), V(2)]),
                atom(edge_c, &[V(2), V(3)]),
            ],
        );
        // A cross product: raw join rows outnumber the distinct facts.
        let mut cross = Program::new();
        let edge_x = cross.predicate("edge");
        let pairs = cross.predicate("pairs");
        cross.rule(
            atom(pairs, &[V(0), V(3)]),
            vec![atom(edge_x, &[V(0), V(1)]), atom(edge_x, &[V(2), V(3)])],
        );
        // Constants and repeated variables.
        let mut consts = Program::new();
        let edge_k = consts.predicate("edge");
        let loops = consts.predicate("loops");
        let from3 = consts.predicate("from3");
        let back = consts.predicate("back");
        let mid = consts.predicate("mid");
        consts.rule(atom(loops, &[V(0)]), vec![atom(edge_k, &[V(0), V(0)])]);
        consts.rule(
            atom(from3, &[V(0), V(1)]),
            vec![atom(edge_k, &[C(3), V(0)]), atom(edge_k, &[V(0), V(1)])],
        );
        consts.rule(
            atom(back, &[V(0), V(1)]),
            vec![atom(edge_k, &[V(0), V(1)]), atom(edge_k, &[V(1), V(0)])],
        );
        consts.rule(
            atom(mid, &[V(0), V(0), C(9)]),
            vec![
                atom(loops, &[V(0)]),
                atom(edge_k, &[V(0), V(1)]),
                atom(from3, &[V(1), V(2)]),
            ],
        );
        // Mutual recursion over the edge graph.
        let mut mutual = Program::new();
        let edge_m = mutual.predicate("edge");
        let start = mutual.predicate("start");
        let even = mutual.predicate("even");
        let odd = mutual.predicate("odd");
        mutual.rule(atom(even, &[V(0)]), vec![atom(start, &[V(0)])]);
        mutual.rule(
            atom(odd, &[V(1)]),
            vec![atom(even, &[V(0)]), atom(edge_m, &[V(0), V(1)])],
        );
        mutual.rule(
            atom(even, &[V(1)]),
            vec![atom(odd, &[V(0)]), atom(edge_m, &[V(0), V(1)])],
        );
        let mut mutual_db = edge_db(edge_m);
        mutual_db.insert(start, &[0]);
        mutual_db.insert(start, &[13]);

        let caps = [
            min_passing_cap(&left, &edge_db(edge)),
            min_passing_cap(&right, &edge_db(edge_r)),
            min_passing_cap(&chain, &edge_db(edge_c)),
            min_passing_cap(&cross, &edge_db(edge_x)),
            min_passing_cap(&consts, &edge_db(edge_k)),
            min_passing_cap(&mutual, &mutual_db),
        ];
        assert_eq!(caps, [613, 613, 131, 1369, 53, 87]);
    }
}
