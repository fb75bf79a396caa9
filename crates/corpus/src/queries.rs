//! Experiment query generation (Section 6.2).
//!
//! The experiments characterize queries by `toks_Q` (1–5, default 3) and
//! `preds_Q` (0–4, default 2), with *positive* predicate sets
//! (distance/ordered/samepara) and *negative* sets built as "the negation of
//! the positive predicates" — exactly how the paper constructed its
//! NPRED-NEG/COMP-NEG workloads.

use ftsl_lang::{parse, Mode, SurfaceQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Whether generated predicates are positive or negative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredPolarity {
    /// distance / ordered / samepara.
    Positive,
    /// not_distance / not_ordered / not_samepara.
    Negative,
}

/// A query shape in the paper's experiment parameter space.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// `toks_Q`: number of query tokens (positions variables).
    pub toks: usize,
    /// `preds_Q`: number of predicates.
    pub preds: usize,
    /// Predicate polarity.
    pub polarity: PredPolarity,
    /// Distance bound used by distance predicates.
    pub distance: i64,
    /// Seed for predicate/shape choices.
    pub seed: u64,
}

impl QuerySpec {
    /// Render the query over the given planted tokens as COMP text.
    ///
    /// Shape: `SOME p0 .. SOME pk (p0 HAS 't0' AND ... AND pred(..) ...)`.
    /// With `preds = 0` and one token this degenerates to a BOOL query.
    pub fn render(&self, tokens: &[String]) -> String {
        assert!(self.toks >= 1);
        assert!(
            tokens.len() >= self.toks,
            "need {} planted tokens",
            self.toks
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut body: Vec<String> = (0..self.toks)
            .map(|i| format!("p{i} HAS '{}'", tokens[i]))
            .collect();
        let pred_templates_pos = ["distance", "ordered", "samepara"];
        let pred_templates_neg = ["not_distance", "not_ordered", "not_samepara"];
        for k in 0..self.preds {
            // Chain predicates over adjacent variable pairs so every
            // variable participates; fall back to (0, 1) for single-token
            // queries.
            let (a, b) = if self.toks >= 2 {
                let a = k % (self.toks - 1);
                (a, a + 1)
            } else {
                (0, 0)
            };
            let which = rng.random_range(0..3);
            let name = match self.polarity {
                PredPolarity::Positive => pred_templates_pos[which],
                PredPolarity::Negative => pred_templates_neg[which],
            };
            let pred = if name.ends_with("distance") {
                format!("{name}(p{a}, p{b}, {})", self.distance)
            } else {
                format!("{name}(p{a}, p{b})")
            };
            body.push(pred);
        }
        let mut q = body.join(" AND ");
        for i in (0..self.toks).rev() {
            q = format!("SOME p{i} ({q})");
        }
        q
    }

    /// Render a plain BOOL conjunction over the same tokens (the BOOL series
    /// of Figures 5–8 uses predicate-free queries).
    pub fn render_bool(&self, tokens: &[String]) -> String {
        tokens[..self.toks]
            .iter()
            .map(|t| format!("'{t}'"))
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    /// Parse the rendered COMP query (convenience for the figures).
    pub fn parse(&self, tokens: &[String]) -> SurfaceQuery {
        parse(&self.render(tokens), Mode::Comp).expect("generated query parses")
    }
}

/// The planted token names used by the figures' corpora: `q0`, `q1`, ...
pub fn planted_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("q{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_lang::{classify, LanguageClass};
    use ftsl_predicates::PredicateRegistry;

    #[test]
    fn rendered_queries_parse_and_classify() {
        let tokens = planted_names(5);
        let reg = PredicateRegistry::with_builtins();

        let pos = QuerySpec {
            toks: 3,
            preds: 2,
            polarity: PredPolarity::Positive,
            distance: 10,
            seed: 1,
        };
        let q = pos.parse(&tokens);
        assert_eq!(classify(&q, &reg), LanguageClass::Ppred);

        let neg = QuerySpec {
            toks: 3,
            preds: 2,
            polarity: PredPolarity::Negative,
            distance: 10,
            seed: 1,
        };
        let q = neg.parse(&tokens);
        assert_eq!(classify(&q, &reg), LanguageClass::Npred);
    }

    #[test]
    fn zero_predicates_yield_pure_conjunctions() {
        let tokens = planted_names(4);
        let spec = QuerySpec {
            toks: 4,
            preds: 0,
            polarity: PredPolarity::Positive,
            distance: 5,
            seed: 3,
        };
        let q = spec.render(&tokens);
        assert!(!q.contains("distance") && !q.contains("ordered"));
        let b = spec.render_bool(&tokens);
        assert_eq!(b, "'q0' AND 'q1' AND 'q2' AND 'q3'");
        let reg = PredicateRegistry::with_builtins();
        assert_eq!(
            classify(&parse(&b, Mode::Bool).unwrap(), &reg),
            LanguageClass::BoolNoNeg
        );
    }

    #[test]
    fn predicates_chain_over_all_variables() {
        let tokens = planted_names(5);
        let spec = QuerySpec {
            toks: 5,
            preds: 4,
            polarity: PredPolarity::Positive,
            distance: 9,
            seed: 8,
        };
        let q = spec.render(&tokens);
        for v in ["p0", "p1", "p2", "p3", "p4"] {
            assert!(q.contains(v), "missing {v} in {q}");
        }
    }

    #[test]
    fn token_count_must_be_satisfiable() {
        let spec = QuerySpec {
            toks: 1,
            preds: 1,
            polarity: PredPolarity::Positive,
            distance: 4,
            seed: 0,
        };
        let tokens = planted_names(1);
        // Single-variable predicates degenerate to (p0, p0) but still parse.
        let q = spec.parse(&tokens);
        let reg = PredicateRegistry::with_builtins();
        let _ = classify(&q, &reg);
    }
}
