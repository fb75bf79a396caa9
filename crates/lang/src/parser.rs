//! Recursive-descent parser for the surface languages.
//!
//! Grammar (COMP; BOOL/DIST are mode-restricted subsets):
//!
//! ```text
//! Query   := OrExpr
//! OrExpr  := AndExpr (OR AndExpr)*
//! AndExpr := Unary (AND Unary)*
//! Unary   := NOT Unary | SOME Var Unary | EVERY Var Unary | Primary
//! Primary := '(' Query ')' | StringLiteral | ANY
//!          | Var HAS (StringLiteral | ANY)
//!          | PredName '(' Arg (',' Arg)* ')'
//! Arg     := Var | Integer | StringLiteral | ANY      (dist takes tokens)
//! ```

use crate::ast::{SurfaceQuery, TokenArg};
use crate::error::LangError;
use crate::lexer::{lex, Tok};

/// The deepest query the parser accepts: both its own recursion depth and
/// the height of the tree it returns stay within this many levels, so
/// every recursive pass downstream (classify, rewrite, lower, plan,
/// evaluate, `Drop`) is bounded too; thesaurus expansion, which the
/// engine's owner configures, adds one level per synonym on top. Query
/// text is untrusted: without the limit, 100k nested parentheses — or a
/// 100k-term `AND` chain, which nests just as deep once folded left —
/// overflow the stack. `tests/hostile_nesting.rs` runs queries at the
/// limit through every engine on a 2 MB thread (a serve worker's stack);
/// the deepest pass, materialized COMP evaluation, then uses about half of
/// it in an unoptimized build and a tenth in an optimized one.
pub const MAX_NESTING: usize = 128;

/// Which surface language to accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// BOOL (Section 4.1): literals, `ANY`, NOT/AND/OR.
    Bool,
    /// DIST (Section 4.2): BOOL plus `dist(Token, Token, Integer)`.
    Dist,
    /// COMP (Section 4.3): the complete language.
    Comp,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Bool => "BOOL",
            Mode::Dist => "DIST",
            Mode::Comp => "COMP",
        }
    }
}

/// Parse `input` in the given language mode.
pub fn parse(input: &str, mode: Mode) -> Result<SurfaceQuery, LangError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        mode,
        depth: 0,
        height: 0,
    };
    let q = p.parse_or()?;
    if p.pos != p.toks.len() {
        return Err(LangError::Parse {
            at: p.pos,
            msg: "trailing input".into(),
        });
    }
    Ok(q)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    mode: Mode,
    /// Live `parse_unary` frames — every recursion cycle of the grammar
    /// passes through it.
    depth: usize,
    /// Height of the tree the last `parse_*` call returned.
    height: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), LangError> {
        match self.bump() {
            Some(t) if &t == tok => Ok(()),
            other => Err(LangError::Parse {
                at: self.pos.saturating_sub(1),
                msg: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn not_in_language(&self, construct: &str) -> LangError {
        LangError::NotInLanguage {
            mode: self.mode.name(),
            construct: construct.to_string(),
        }
    }

    /// One more tree level above a subtree of height `below`.
    fn level_above(below: usize) -> Result<usize, LangError> {
        if below >= MAX_NESTING {
            return Err(LangError::TooDeep { limit: MAX_NESTING });
        }
        Ok(below + 1)
    }

    /// `operand (op operand)*`, folded left-deep: every fold puts a level
    /// above the taller side, so a long chain is as deep as it is long.
    fn parse_chain(
        &mut self,
        op: &Tok,
        operand: fn(&mut Self) -> Result<SurfaceQuery, LangError>,
        node: fn(Box<SurfaceQuery>, Box<SurfaceQuery>) -> SurfaceQuery,
    ) -> Result<SurfaceQuery, LangError> {
        let mut left = operand(self)?;
        let mut height = self.height;
        while self.peek() == Some(op) {
            self.bump();
            let right = operand(self)?;
            height = Self::level_above(height.max(self.height))?;
            left = node(Box::new(left), Box::new(right));
        }
        self.height = height;
        Ok(left)
    }

    fn parse_or(&mut self) -> Result<SurfaceQuery, LangError> {
        self.parse_chain(&Tok::Or, Self::parse_and, SurfaceQuery::Or)
    }

    fn parse_and(&mut self) -> Result<SurfaceQuery, LangError> {
        self.parse_chain(&Tok::And, Self::parse_unary, SurfaceQuery::And)
    }

    fn parse_unary(&mut self) -> Result<SurfaceQuery, LangError> {
        self.depth = Self::level_above(self.depth)?;
        let query = match self.peek() {
            Some(Tok::Not) => {
                self.bump();
                SurfaceQuery::Not(Box::new(self.parse_nested()?))
            }
            Some(Tok::Some) => {
                if self.mode != Mode::Comp {
                    return Err(self.not_in_language("SOME quantifier"));
                }
                self.bump();
                let var = self.parse_var()?;
                SurfaceQuery::Some(var, Box::new(self.parse_nested()?))
            }
            Some(Tok::Every) => {
                if self.mode != Mode::Comp {
                    return Err(self.not_in_language("EVERY quantifier"));
                }
                self.bump();
                let var = self.parse_var()?;
                SurfaceQuery::Every(var, Box::new(self.parse_nested()?))
            }
            _ => self.parse_primary()?,
        };
        self.depth -= 1;
        Ok(query)
    }

    /// The operand of `NOT` / `SOME v` / `EVERY v`: one level below the
    /// node being built.
    fn parse_nested(&mut self) -> Result<SurfaceQuery, LangError> {
        let inner = self.parse_unary()?;
        self.height = Self::level_above(self.height)?;
        Ok(inner)
    }

    fn parse_var(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Some(Tok::Ident(name)) => Ok(name),
            other => Err(LangError::Parse {
                at: self.pos.saturating_sub(1),
                msg: format!("expected variable name, found {other:?}"),
            }),
        }
    }

    fn parse_primary(&mut self) -> Result<SurfaceQuery, LangError> {
        // A leaf, unless the parenthesized branch parses something taller.
        self.height = 1;
        match self.bump() {
            Some(Tok::LParen) => {
                let q = self.parse_or()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(q)
            }
            Some(Tok::Str(lit)) => Ok(SurfaceQuery::Lit(lit)),
            Some(Tok::Any) => Ok(SurfaceQuery::Any),
            Some(Tok::Ident(name)) => match self.peek() {
                Some(Tok::Has) => {
                    if self.mode != Mode::Comp {
                        return Err(self.not_in_language("HAS binding"));
                    }
                    self.bump();
                    match self.bump() {
                        Some(Tok::Str(lit)) => Ok(SurfaceQuery::VarHas(name, lit)),
                        Some(Tok::Any) => Ok(SurfaceQuery::VarHasAny(name)),
                        other => Err(LangError::Parse {
                            at: self.pos.saturating_sub(1),
                            msg: format!("expected token after HAS, found {other:?}"),
                        }),
                    }
                }
                Some(Tok::LParen) => self.parse_call(name),
                other => Err(LangError::Parse {
                    at: self.pos,
                    msg: format!("unexpected {other:?} after identifier {name:?}"),
                }),
            },
            other => Err(LangError::Parse {
                at: self.pos.saturating_sub(1),
                msg: format!("expected a query, found {other:?}"),
            }),
        }
    }

    /// Parse `name(arg, ...)`: either DIST's `dist(tok, tok, int)` sugar or a
    /// COMP position predicate over variables and integers.
    fn parse_call(&mut self, name: String) -> Result<SurfaceQuery, LangError> {
        self.expect(&Tok::LParen, "(")?;
        #[derive(Debug)]
        enum Arg {
            Var(String),
            Int(i64),
            Tok(TokenArg),
        }
        let mut args = Vec::new();
        loop {
            match self.bump() {
                Some(Tok::Ident(v)) => args.push(Arg::Var(v)),
                Some(Tok::Int(i)) => args.push(Arg::Int(i)),
                Some(Tok::Str(s)) => args.push(Arg::Tok(TokenArg::Lit(s))),
                Some(Tok::Any) => args.push(Arg::Tok(TokenArg::Any)),
                other => {
                    return Err(LangError::Parse {
                        at: self.pos.saturating_sub(1),
                        msg: format!("bad predicate argument {other:?}"),
                    })
                }
            }
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                other => {
                    return Err(LangError::Parse {
                        at: self.pos.saturating_sub(1),
                        msg: format!("expected ',' or ')', found {other:?}"),
                    })
                }
            }
        }

        let is_dist_sugar = name.eq_ignore_ascii_case("dist")
            && args.len() == 3
            && matches!(&args[0], Arg::Tok(_))
            && matches!(&args[1], Arg::Tok(_))
            && matches!(&args[2], Arg::Int(_));
        if is_dist_sugar {
            if self.mode == Mode::Bool {
                return Err(self.not_in_language("dist(...)"));
            }
            let mut it = args.into_iter();
            let (Some(Arg::Tok(a)), Some(Arg::Tok(b)), Some(Arg::Int(d))) =
                (it.next(), it.next(), it.next())
            else {
                unreachable!("shape checked above");
            };
            return Ok(SurfaceQuery::Dist(a, b, d));
        }

        if self.mode != Mode::Comp {
            return Err(self.not_in_language(&format!("predicate {name}(...)")));
        }
        // COMP predicate: leading vars, trailing ints.
        let mut vars = Vec::new();
        let mut consts = Vec::new();
        for arg in args {
            match arg {
                Arg::Var(v) => {
                    if !consts.is_empty() {
                        return Err(LangError::Parse {
                            at: self.pos,
                            msg: "predicate variables must precede constants".into(),
                        });
                    }
                    vars.push(v);
                }
                Arg::Int(i) => consts.push(i),
                Arg::Tok(_) => {
                    return Err(LangError::Parse {
                        at: self.pos,
                        msg: format!("predicate {name} takes variables, not token literals"),
                    })
                }
            }
        }
        Ok(SurfaceQuery::Pred { name, vars, consts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bool_example() {
        // Section 4.1: 'test' AND NOT 'usability'
        let q = parse("'test' AND NOT 'usability'", Mode::Bool).unwrap();
        assert_eq!(
            q,
            SurfaceQuery::And(
                Box::new(SurfaceQuery::Lit("test".into())),
                Box::new(SurfaceQuery::Not(Box::new(SurfaceQuery::Lit(
                    "usability".into()
                ))))
            )
        );
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse("'a' OR 'b' AND 'c'", Mode::Bool).unwrap();
        assert!(matches!(q, SurfaceQuery::Or(..)));
    }

    #[test]
    fn parses_the_comp_theorem5_query() {
        let q = parse(
            "SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND NOT distance(p1,p2,0))",
            Mode::Comp,
        )
        .unwrap();
        assert!(matches!(q, SurfaceQuery::Some(..)));
        assert_eq!(q.free_vars().len(), 0);
    }

    #[test]
    fn parses_dist_in_dist_mode_only() {
        let ok = parse("dist('task', 'completion', 10)", Mode::Dist).unwrap();
        assert_eq!(
            ok,
            SurfaceQuery::Dist(
                TokenArg::Lit("task".into()),
                TokenArg::Lit("completion".into()),
                10
            )
        );
        assert!(matches!(
            parse("dist('a', 'b', 1)", Mode::Bool),
            Err(LangError::NotInLanguage { .. })
        ));
    }

    #[test]
    fn dist_accepts_any_arguments() {
        let q = parse("dist(ANY, 'b', 2)", Mode::Dist).unwrap();
        assert_eq!(
            q,
            SurfaceQuery::Dist(TokenArg::Any, TokenArg::Lit("b".into()), 2)
        );
    }

    #[test]
    fn bool_mode_rejects_comp_constructs() {
        assert!(matches!(
            parse("SOME p1 (p1 HAS 'x')", Mode::Bool),
            Err(LangError::NotInLanguage { .. })
        ));
        assert!(matches!(
            parse("p1 HAS 'x'", Mode::Bool),
            Err(LangError::NotInLanguage { .. })
        ));
        assert!(matches!(
            parse("ordered(p1, p2)", Mode::Dist),
            Err(LangError::NotInLanguage { .. })
        ));
    }

    #[test]
    fn parenthesized_grouping() {
        let q = parse("('a' OR 'b') AND 'c'", Mode::Bool).unwrap();
        assert!(matches!(q, SurfaceQuery::And(..)));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(matches!(
            parse("'a' 'b'", Mode::Bool),
            Err(LangError::Parse { .. })
        ));
    }

    #[test]
    fn not_binds_tighter_than_and() {
        let q = parse("NOT 'a' AND 'b'", Mode::Bool).unwrap();
        // (NOT 'a') AND 'b'
        match q {
            SurfaceQuery::And(l, _) => assert!(matches!(*l, SurfaceQuery::Not(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantifier_scopes_to_unary() {
        // SOME p1 'a' AND 'b' == (SOME p1 'a') AND 'b'
        let q = parse("SOME p1 (p1 HAS 'a') AND 'b'", Mode::Comp).unwrap();
        assert!(matches!(q, SurfaceQuery::And(..)));
    }
}
