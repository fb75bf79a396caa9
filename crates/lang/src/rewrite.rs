//! Query-side rewrites: analysis alignment and thesaurus expansion.
//!
//! * [`map_tokens`] rewrites every token literal in a surface query (used by
//!   the facade to apply the *same* stemming/stop-word analysis the index
//!   used — queries and documents must agree on terms);
//! * [`Thesaurus`] expands a token into the disjunction of its synonyms, the
//!   third extension the paper's conclusion announces. Expansion preserves
//!   the binding variable (`v HAS 'car'` → `(v HAS 'car' OR v HAS 'auto')`),
//!   so PPRED/NPRED queries stay in their class — the `OR` branches expose
//!   identical free variables by construction.

use crate::ast::{SurfaceQuery, TokenArg};
use std::collections::HashMap;

/// Rewrite every token literal with `f`. `f` returning `None` means the
/// token is *stopped*: the literal is replaced by an unsatisfiable
/// sentinel token (stopped terms are absent from the index by construction,
/// so no document can match them — Boolean semantics are preserved rather
/// than silently weakened).
pub fn map_tokens(query: &SurfaceQuery, f: &impl Fn(&str) -> Option<String>) -> SurfaceQuery {
    let apply = |t: &str| f(t).unwrap_or_else(|| "\u{0}stopped\u{0}".to_string());
    match query {
        SurfaceQuery::Lit(t) => SurfaceQuery::Lit(apply(t)),
        SurfaceQuery::Any => SurfaceQuery::Any,
        SurfaceQuery::VarHas(v, t) => SurfaceQuery::VarHas(v.clone(), apply(t)),
        SurfaceQuery::VarHasAny(v) => SurfaceQuery::VarHasAny(v.clone()),
        SurfaceQuery::Pred { name, vars, consts } => SurfaceQuery::Pred {
            name: name.clone(),
            vars: vars.clone(),
            consts: consts.clone(),
        },
        SurfaceQuery::Dist(a, b, d) => {
            let map_arg = |arg: &TokenArg| match arg {
                TokenArg::Lit(t) => TokenArg::Lit(apply(t)),
                TokenArg::Any => TokenArg::Any,
            };
            SurfaceQuery::Dist(map_arg(a), map_arg(b), *d)
        }
        SurfaceQuery::Not(q) => SurfaceQuery::Not(Box::new(map_tokens(q, f))),
        SurfaceQuery::And(a, b) => {
            SurfaceQuery::And(Box::new(map_tokens(a, f)), Box::new(map_tokens(b, f)))
        }
        SurfaceQuery::Or(a, b) => {
            SurfaceQuery::Or(Box::new(map_tokens(a, f)), Box::new(map_tokens(b, f)))
        }
        SurfaceQuery::Some(v, q) => SurfaceQuery::Some(v.clone(), Box::new(map_tokens(q, f))),
        SurfaceQuery::Every(v, q) => SurfaceQuery::Every(v.clone(), Box::new(map_tokens(q, f))),
    }
}

/// A synonym table for query expansion.
#[derive(Clone, Debug, Default)]
pub struct Thesaurus {
    synonyms: HashMap<String, Vec<String>>,
}

impl Thesaurus {
    /// An empty thesaurus (expansion is the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register synonyms for a term (one direction; call twice for
    /// symmetric pairs).
    pub fn add<S: AsRef<str>>(&mut self, term: &str, synonyms: &[S]) {
        self.synonyms
            .entry(term.to_lowercase())
            .or_default()
            .extend(synonyms.iter().map(|s| s.as_ref().to_lowercase()));
    }

    /// True when no term has synonyms: [`Self::expand`] is the identity.
    pub fn is_empty(&self) -> bool {
        self.synonyms.is_empty()
    }

    /// The synonyms of a term (not including the term itself).
    pub fn lookup(&self, term: &str) -> &[String] {
        self.synonyms
            .get(&term.to_lowercase())
            .map_or(&[], Vec::as_slice)
    }

    /// Expand every token literal into the disjunction of itself and its
    /// synonyms. `Dist` sugar arguments are expanded by rewriting into the
    /// equivalent COMP form first is unnecessary: `dist` token arguments are
    /// left unexpanded (they already denote a single existential binding;
    /// expanding them would need the COMP form — use COMP syntax for
    /// expanded proximity queries).
    pub fn expand(&self, query: &SurfaceQuery) -> SurfaceQuery {
        match query {
            SurfaceQuery::Lit(t) => {
                let mut q = SurfaceQuery::Lit(t.clone());
                for syn in self.lookup(t) {
                    q = SurfaceQuery::Or(Box::new(q), Box::new(SurfaceQuery::Lit(syn.clone())));
                }
                q
            }
            SurfaceQuery::VarHas(v, t) => {
                let mut q = SurfaceQuery::VarHas(v.clone(), t.clone());
                for syn in self.lookup(t) {
                    q = SurfaceQuery::Or(
                        Box::new(q),
                        Box::new(SurfaceQuery::VarHas(v.clone(), syn.clone())),
                    );
                }
                q
            }
            SurfaceQuery::Any
            | SurfaceQuery::VarHasAny(_)
            | SurfaceQuery::Pred { .. }
            | SurfaceQuery::Dist(..) => query.clone(),
            SurfaceQuery::Not(q) => SurfaceQuery::Not(Box::new(self.expand(q))),
            SurfaceQuery::And(a, b) => {
                SurfaceQuery::And(Box::new(self.expand(a)), Box::new(self.expand(b)))
            }
            SurfaceQuery::Or(a, b) => {
                SurfaceQuery::Or(Box::new(self.expand(a)), Box::new(self.expand(b)))
            }
            SurfaceQuery::Some(v, q) => SurfaceQuery::Some(v.clone(), Box::new(self.expand(q))),
            SurfaceQuery::Every(v, q) => SurfaceQuery::Every(v.clone(), Box::new(self.expand(q))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, LanguageClass};
    use crate::parser::{parse, Mode};
    use ftsl_predicates::PredicateRegistry;

    #[test]
    fn map_tokens_rewrites_all_literal_sites() {
        let q = parse(
            "SOME p1 ('cars' AND p1 HAS 'tested' AND dist('cars', ANY, 2))",
            Mode::Comp,
        )
        .unwrap();
        let mapped = map_tokens(&q, &|t| Some(format!("{t}X")));
        let rendered = mapped.render();
        assert!(
            rendered.contains("'carsx'") || rendered.contains("'carsX'"),
            "{rendered}"
        );
        assert!(rendered.contains("'testedx'") || rendered.contains("'testedX'"));
        assert!(rendered.contains("ANY")); // ANY untouched
    }

    #[test]
    fn stopped_tokens_become_unsatisfiable() {
        let q = parse("'the'", Mode::Bool).unwrap();
        let mapped = map_tokens(&q, &|_| None);
        // The sentinel contains NUL, which no tokenizer output can equal.
        if let SurfaceQuery::Lit(t) = mapped {
            assert!(t.contains('\u{0}'));
        } else {
            panic!("expected literal");
        }
    }

    #[test]
    fn thesaurus_expands_preserving_class() {
        let mut th = Thesaurus::new();
        th.add("car", &["auto", "vehicle"]);
        let reg = PredicateRegistry::with_builtins();

        let q = parse(
            "SOME p1 SOME p2 (p1 HAS 'car' AND p2 HAS 'red' AND distance(p1,p2,3))",
            Mode::Comp,
        )
        .unwrap();
        assert_eq!(classify(&q, &reg), LanguageClass::Ppred);
        let expanded = th.expand(&q);
        // Expansion keeps the query in PPRED: the OR branches share p1.
        assert_eq!(classify(&expanded, &reg), LanguageClass::Ppred);
        let rendered = expanded.render();
        assert!(rendered.contains("'auto'") && rendered.contains("'vehicle'"));
    }

    #[test]
    fn thesaurus_lookup_is_case_insensitive() {
        let mut th = Thesaurus::new();
        th.add("Car", &["Auto"]);
        assert_eq!(th.lookup("cAr"), &["auto".to_string()]);
        assert!(th.lookup("bike").is_empty());
    }
}
