//! The BOOL engine (Section 5.3): seek-driven intersection over doc-id
//! lists, sort-merge for everything else.
//!
//! BOOL-NONEG queries touch only the query tokens' inverted-list entries;
//! `NOT` and `ANY` additionally consult the node universe (the paper charges
//! these against `IL_ANY` — its `cnodes` entries dominate the BOOL bound).
//! Complements are taken against *all* context nodes, matching the calculus
//! semantics under which `NOT 'x'` holds on empty nodes too.
//!
//! Conjunctions of two or more plain token literals do **not** pay the
//! paper's sequential O(sum of list lengths) cost: they run a k-way
//! leapfrog over [`BlockCursor`]s ordered rarest-first, where each cursor
//! `seek`s to the current candidate node, jumping whole compressed blocks
//! via the skip headers. On skewed (Zipf) corpora a
//! conjunction with one rare operand decodes O(rare · log common) entries;
//! the bypassed entries show up in [`AccessCounters::skipped`] instead of
//! `entries`.

use crate::error::ExecError;
use ftsl_index::block::{BlockCursor, BlockList};
use ftsl_index::{AccessCounters, InvertedIndex};
use ftsl_lang::SurfaceQuery;
use ftsl_model::{Corpus, NodeId, TokenId};

/// The BOOL engine's shape half: refuse any construct outside BOOL
/// (literals, `ANY`, `NOT`, `AND`, `OR`). Depends on the query alone.
pub(crate) fn check_bool(query: &SurfaceQuery) -> Result<(), ExecError> {
    match query {
        SurfaceQuery::Lit(_) | SurfaceQuery::Any => Ok(()),
        SurfaceQuery::Not(inner) => check_bool(inner),
        SurfaceQuery::And(a, b) | SurfaceQuery::Or(a, b) => {
            check_bool(a)?;
            check_bool(b)
        }
        other => Err(ExecError::WrongEngine {
            engine: "BOOL",
            reason: format!("construct {} is not in BOOL", other.render()),
        }),
    }
}

/// The BOOL engine's binding half: merge one segment's lists for a query
/// [`check_bool`] accepted.
pub(crate) fn bind_bool(
    query: &SurfaceQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
) -> (Vec<NodeId>, AccessCounters) {
    let mut counters = AccessCounters::new();
    let nodes = eval(query, corpus, index, &mut counters);
    (nodes, counters)
}

/// Materialize a list's node ids (a token's list, or `IL_ANY` for `None`)
/// through a counting cursor — the BOOL leaf access path.
fn scan_nodes(
    index: &InvertedIndex,
    token: Option<TokenId>,
    counters: &mut AccessCounters,
) -> Vec<NodeId> {
    let mut cursor = match token {
        Some(id) => index.block_cursor(id),
        None => index.any_block_cursor(),
    };
    let mut ids = Vec::new();
    while let Some(n) = cursor.next_entry() {
        ids.push(n);
    }
    *counters += cursor.counters();
    ids
}

fn eval(
    query: &SurfaceQuery,
    corpus: &Corpus,
    index: &InvertedIndex,
    counters: &mut AccessCounters,
) -> Vec<NodeId> {
    match query {
        SurfaceQuery::Lit(tok) => match corpus.token_id(tok) {
            Some(id) => scan_nodes(index, Some(id), counters),
            None => Vec::new(),
        },
        SurfaceQuery::Any => scan_nodes(index, None, counters),
        SurfaceQuery::Not(inner) => {
            let inner_nodes = eval(inner, corpus, index, counters);
            counters.entries += corpus.len() as u64;
            complement(&inner_nodes, corpus.len() as u32)
        }
        SurfaceQuery::And(..) => {
            let mut conjuncts = Vec::new();
            flatten_and(query, &mut conjuncts);
            eval_conjunction(&conjuncts, corpus, index, counters)
        }
        SurfaceQuery::Or(a, b) => {
            let left = eval(a, corpus, index, counters);
            let right = eval(b, corpus, index, counters);
            union_sorted(&left, &right)
        }
        other => unreachable!("check_bool refuses {}", other.render()),
    }
}

fn flatten_and<'q>(query: &'q SurfaceQuery, out: &mut Vec<&'q SurfaceQuery>) {
    match query {
        SurfaceQuery::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

/// Evaluate a flattened conjunction: plain token literals go through the
/// seek-driven k-way intersection; remaining conjuncts are evaluated
/// recursively and merged; `NOT` conjuncts subtract last (the BOOL-NONEG
/// path — no complement is materialized when a positive part exists).
fn eval_conjunction(
    conjuncts: &[&SurfaceQuery],
    corpus: &Corpus,
    index: &InvertedIndex,
    counters: &mut AccessCounters,
) -> Vec<NodeId> {
    let mut literal_ids: Vec<TokenId> = Vec::new();
    let mut negated: Vec<&SurfaceQuery> = Vec::new();
    let mut others: Vec<&SurfaceQuery> = Vec::new();
    for &c in conjuncts {
        match c {
            SurfaceQuery::Lit(tok) => {
                literal_ids.push(corpus.token_id(tok).unwrap_or(TokenId(u32::MAX)))
            }
            SurfaceQuery::Not(inner) => negated.push(inner),
            other => others.push(other),
        }
    }

    let mut acc: Option<Vec<NodeId>> = None;
    if literal_ids.len() >= 2 {
        let lists: Vec<BlockList> = literal_ids.iter().map(|&id| index.block_list(id)).collect();
        let (nodes, c) = intersect_seek(&lists);
        *counters += c;
        acc = Some(nodes);
    } else if let Some(&id) = literal_ids.first() {
        // Out-of-vocabulary ids map to the empty list, so this is a no-op
        // walk for unknown tokens.
        acc = Some(scan_nodes(index, Some(id), counters));
    }

    for other in others {
        let nodes = eval(other, corpus, index, counters);
        acc = Some(match acc {
            Some(have) => intersect_sorted(&have, &nodes),
            None => nodes,
        });
    }

    for inner in negated {
        let nodes = eval(inner, corpus, index, counters);
        acc = Some(match acc {
            Some(have) => difference_sorted(&have, &nodes),
            None => {
                // Pure-negative conjunction: pay the universe scan once.
                counters.entries += corpus.len() as u64;
                complement(&nodes, corpus.len() as u32)
            }
        });
    }

    acc.unwrap_or_default()
}

/// k-way leapfrog intersection of posting lists, rarest first: each seek
/// jumps whole compressed blocks via the skip headers. Returned counters
/// separate consumed entries from seek-skipped ones.
pub fn intersect_seek(lists: &[BlockList]) -> (Vec<NodeId>, AccessCounters) {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return (Vec::new(), AccessCounters::new());
    }
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|&i| lists[i].num_entries());
    let mut cursors: Vec<BlockCursor<'_>> = order.iter().map(|&i| lists[i].cursor()).collect();

    let mut out = Vec::new();
    let k = cursors.len();
    let mut target = cursors[0].next_entry().expect("non-empty list");
    if k == 1 {
        out.push(target);
        while let Some(n) = cursors[0].next_entry() {
            out.push(n);
        }
        return (out, cursors[0].counters());
    }
    // `agree` cursors in a row (ending at `i`'s predecessor) sit on
    // `target`; when all k agree the node is emitted and the ring restarts
    // from the cursor that found the next candidate.
    let mut agree = 1usize;
    let mut i = 1usize;
    while let Some(n) = cursors[i].seek(target) {
        if n == target {
            agree += 1;
            if agree == k {
                out.push(target);
                match cursors[i].next_entry() {
                    Some(next) => {
                        target = next;
                        agree = 1;
                    }
                    None => break,
                }
            }
        } else {
            target = n;
            agree = 1;
        }
        i = (i + 1) % k;
    }
    let mut counters = AccessCounters::new();
    for c in &cursors {
        counters += c.counters();
    }
    (out, counters)
}

fn complement(sorted: &[NodeId], cnodes: u32) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(cnodes as usize - sorted.len());
    let mut it = sorted.iter().peekable();
    for id in 0..cnodes {
        match it.peek() {
            Some(&&n) if n.0 == id => {
                it.next();
            }
            _ => out.push(NodeId(id)),
        }
    }
    out
}

/// Merge-intersection of two sorted id lists.
pub fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Merge-union of two sorted id lists.
pub fn union_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merge-difference of two sorted id lists.
pub fn difference_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if a[i] > b[j] {
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, QueryOutput};
    use crate::snapshot::run_on_texts;

    fn bool_run(query: &str, texts: &[&str]) -> Result<QueryOutput, ExecError> {
        run_on_texts(texts, query, EngineKind::Bool, Default::default())
    }

    fn run(query: &str, texts: &[&str]) -> Vec<u32> {
        let out = bool_run(query, texts).unwrap();
        out.nodes.into_iter().map(|n| n.0).collect()
    }

    #[test]
    fn section_5_3_example_shape() {
        // ('software' AND 'users' AND NOT 'testing') OR 'usability'
        let r = run(
            "('software' AND 'users' AND NOT 'testing') OR 'usability'",
            &[
                "software users",         // matches (left branch)
                "software users testing", // blocked by NOT
                "usability",              // matches (right branch)
                "software testing",       // no
            ],
        );
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn not_includes_empty_nodes() {
        let r = run("NOT 'a'", &["a", "", "b"]);
        assert_eq!(r, vec![1, 2]);
    }

    #[test]
    fn any_excludes_empty_nodes() {
        let r = run("ANY", &["a", "", "b"]);
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn unknown_token_matches_nothing() {
        assert!(run("'zzz'", &["a", "b"]).is_empty());
        let all = run("NOT 'zzz'", &["a", "b"]);
        assert_eq!(all, vec![0, 1]);
    }

    #[test]
    fn double_negation() {
        let r = run("NOT NOT 'a'", &["a", "b", "a c"]);
        assert_eq!(r, vec![0, 2]);
    }

    #[test]
    fn counters_distinguish_noneg_from_neg() {
        let texts = ["a b", "a", "b", "c", "d", "e"];
        let c1 = bool_run("'a' AND 'b'", &texts).unwrap().counters;
        let c2 = bool_run("NOT 'a'", &texts).unwrap().counters;
        // The complement pays the cnodes-sized universe scan.
        assert!(c2.entries > c1.entries);
        assert!(c2.entries >= texts.len() as u64);
    }

    #[test]
    fn merge_helpers() {
        let a: Vec<NodeId> = [1, 3, 5, 7].iter().map(|&i| NodeId(i)).collect();
        let b: Vec<NodeId> = [3, 4, 7, 9].iter().map(|&i| NodeId(i)).collect();
        let i: Vec<u32> = intersect_sorted(&a, &b).iter().map(|n| n.0).collect();
        let u: Vec<u32> = union_sorted(&a, &b).iter().map(|n| n.0).collect();
        let d: Vec<u32> = difference_sorted(&a, &b).iter().map(|n| n.0).collect();
        assert_eq!(i, vec![3, 7]);
        assert_eq!(u, vec![1, 3, 4, 5, 7, 9]);
        assert_eq!(d, vec![1, 5]);
    }

    #[test]
    fn comp_constructs_are_rejected() {
        assert!(matches!(
            bool_run("SOME p1 (p1 HAS 'a')", &["a"]),
            Err(ExecError::WrongEngine { .. })
        ));
    }
}
