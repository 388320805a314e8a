//! Recursive-descent parser for the supported SQL subset.

use crate::ast::{AggFunc, CmpOp, Expr, Literal, Query, SelectItem};
use crate::error::{Result, SqlError};
use crate::lexer::{tokenize, Token};

/// The deepest WHERE predicate [`parse`] accepts. Each `NOT`, each level
/// of parentheses and each AND/OR link of a chain counts one level, so a
/// predicate's tree is never deeper than this. Parsing, planning,
/// scanning and dropping a predicate recurse once per tree level. On a
/// 2 MiB thread (a service worker's default stack) a debug build runs
/// parse, plan, both executors and drop at twice this depth and
/// overflows at four times it; an overflow aborts the process.
pub const MAX_PREDICATE_DEPTH: usize = 256;

/// Parses one `SELECT` statement.
///
/// # Errors
///
/// Returns a [`SqlError`] describing the first lexical or syntactic
/// problem.
///
/// # Examples
///
/// ```
/// use fusion_sql::parser::parse;
///
/// let q = parse("SELECT salary FROM Employees WHERE name == 'Bob'")?;
/// assert_eq!(q.table, "Employees");
/// assert_eq!(q.items.len(), 1);
/// assert!(q.predicate.is_some());
/// # Ok::<(), fusion_sql::error::SqlError>(())
/// ```
pub fn parse(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(SqlError::Expected {
            what: "end of query",
            found: p.peek_desc(),
        });
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Predicate levels open at `pos` (see [`MAX_PREDICATE_DEPTH`]).
    depth: usize,
}

impl Parser {
    /// Opens one more predicate level, refusing to pass the cap before
    /// the deeper tree exists.
    fn deeper(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_PREDICATE_DEPTH {
            return Err(SqlError::Invalid(format!(
                "predicate nests deeper than {MAX_PREDICATE_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        match self.peek() {
            Some(t) => t.to_string(),
            None => "end of input".to_string(),
        }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &'static str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::Expected {
                what: kw,
                found: self.peek_desc(),
            })
        }
    }

    fn expect(&mut self, t: Token, what: &'static str) -> Result<()> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SqlError::Expected {
                what,
                found: self.peek_desc(),
            })
        }
    }

    fn ident(&mut self, what: &'static str) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => {
                if is_reserved(&s) {
                    Err(SqlError::Expected { what, found: s })
                } else {
                    Ok(s)
                }
            }
            other => Err(SqlError::Expected {
                what,
                found: other.map_or_else(|| "end of input".into(), |t| t.to_string()),
            }),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.select_item()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            items.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let table = self.ident("table name")?;
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let group_by = if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            let mut cols = vec![self.ident("GROUP BY column")?];
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                cols.push(self.ident("GROUP BY column")?);
            }
            cols
        } else {
            Vec::new()
        };
        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(SqlError::Expected {
                        what: "non-negative LIMIT count",
                        found: other.map_or_else(|| "end of input".into(), |t| t.to_string()),
                    })
                }
            }
        } else {
            None
        };
        Ok(Query {
            items,
            table,
            predicate,
            group_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let name = match self.bump() {
            Some(Token::Ident(s)) => s,
            other => {
                return Err(SqlError::Expected {
                    what: "column or aggregate",
                    found: other.map_or_else(|| "end of input".into(), |t| t.to_string()),
                })
            }
        };
        let func = match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        };
        match func {
            Some(func) if self.peek() == Some(&Token::LParen) => {
                self.pos += 1;
                let arg = if self.peek() == Some(&Token::Star) {
                    self.pos += 1;
                    if func != AggFunc::Count {
                        return Err(SqlError::Invalid(format!("{func}(*) is not supported")));
                    }
                    None
                } else {
                    Some(self.ident("aggregate argument")?)
                };
                self.expect(Token::RParen, ")")?;
                Ok(SelectItem::Aggregate { func, arg })
            }
            _ => {
                if is_reserved(&name) {
                    return Err(SqlError::Expected {
                        what: "column or aggregate",
                        found: name,
                    });
                }
                Ok(SelectItem::Column(name))
            }
        }
    }

    /// expr := and_expr (OR and_expr)*
    ///
    /// The chain builds a left-deep tree, one level per link.
    fn expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            self.deeper()?;
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    /// and_expr := unary_expr (AND unary_expr)*
    fn and_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        while self.eat_keyword("AND") {
            self.deeper()?;
            let rhs = self.unary_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    /// unary_expr := NOT unary_expr | ( expr ) | comparison
    fn unary_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let e = if self.eat_keyword("NOT") {
            self.deeper()?;
            Expr::Not(Box::new(self.unary_expr()?))
        } else if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            self.deeper()?;
            let e = self.expr()?;
            self.expect(Token::RParen, ")")?;
            e
        } else {
            return self.comparison();
        };
        self.depth = depth;
        Ok(e)
    }

    /// comparison := column op literal | literal op column
    fn comparison(&mut self) -> Result<Expr> {
        // Left side: column or literal.
        enum Side {
            Col(String),
            Lit(Literal),
        }
        let left = match self.bump() {
            Some(Token::Ident(s)) if !is_reserved(&s) => Side::Col(s),
            Some(Token::Int(v)) => Side::Lit(Literal::Int(v)),
            Some(Token::Float(v)) => Side::Lit(Literal::Float(v)),
            Some(Token::Str(s)) => Side::Lit(Literal::Str(s)),
            other => {
                return Err(SqlError::Expected {
                    what: "column or literal",
                    found: other.map_or_else(|| "end of input".into(), |t| t.to_string()),
                })
            }
        };
        let op = match self.bump() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(SqlError::Expected {
                    what: "comparison operator",
                    found: other.map_or_else(|| "end of input".into(), |t| t.to_string()),
                })
            }
        };
        let right = match self.bump() {
            Some(Token::Ident(s)) if !is_reserved(&s) => Side::Col(s),
            Some(Token::Int(v)) => Side::Lit(Literal::Int(v)),
            Some(Token::Float(v)) => Side::Lit(Literal::Float(v)),
            Some(Token::Str(s)) => Side::Lit(Literal::Str(s)),
            other => {
                return Err(SqlError::Expected {
                    what: "column or literal",
                    found: other.map_or_else(|| "end of input".into(), |t| t.to_string()),
                })
            }
        };
        match (left, right) {
            (Side::Col(column), Side::Lit(literal)) => Ok(Expr::Cmp {
                column,
                op,
                literal,
            }),
            (Side::Lit(literal), Side::Col(column)) => Ok(Expr::Cmp {
                column,
                op: op.flip(),
                literal,
            }),
            (Side::Col(_), Side::Col(_)) => Err(SqlError::Invalid(
                "column-to-column comparisons are not supported".into(),
            )),
            (Side::Lit(_), Side::Lit(_)) => Err(SqlError::Invalid(
                "literal-to-literal comparisons are not supported".into(),
            )),
        }
    }
}

fn is_reserved(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "SELECT" | "FROM" | "WHERE" | "AND" | "OR" | "NOT" | "GROUP" | "BY" | "LIMIT"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse("SELECT a, b FROM t").unwrap();
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.table, "t");
        assert!(q.predicate.is_none());
    }

    #[test]
    fn paper_running_example() {
        let q = parse("SELECT salary FROM Employees WHERE name == 'Bob'").unwrap();
        assert_eq!(
            q.predicate,
            Some(Expr::Cmp {
                column: "name".into(),
                op: CmpOp::Eq,
                literal: Literal::Str("Bob".into()),
            })
        );
    }

    #[test]
    fn and_or_precedence() {
        let q = parse("SELECT a FROM t WHERE a < 1 OR b > 2 AND c = 3").unwrap();
        // AND binds tighter: a<1 OR (b>2 AND c=3)
        match q.predicate.unwrap() {
            Expr::Or(l, r) => {
                assert!(matches!(*l, Expr::Cmp { .. }));
                assert!(matches!(*r, Expr::And(_, _)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parentheses_override() {
        let q = parse("SELECT a FROM t WHERE (a < 1 OR b > 2) AND c = 3").unwrap();
        assert!(matches!(q.predicate.unwrap(), Expr::And(_, _)));
    }

    #[test]
    fn not_expr() {
        let q = parse("SELECT a FROM t WHERE NOT a = 1").unwrap();
        assert!(matches!(q.predicate.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn flipped_comparison_normalized() {
        let q = parse("SELECT a FROM t WHERE 10 > a").unwrap();
        assert_eq!(
            q.predicate,
            Some(Expr::Cmp {
                column: "a".into(),
                op: CmpOp::Lt,
                literal: Literal::Int(10),
            })
        );
    }

    #[test]
    fn aggregates() {
        let q = parse("SELECT count(*), AVG(fare), sum(x), min(y), max(z) FROM taxi").unwrap();
        assert_eq!(q.items.len(), 5);
        assert_eq!(
            q.items[0],
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: None
            }
        );
        assert_eq!(
            q.items[1],
            SelectItem::Aggregate {
                func: AggFunc::Avg,
                arg: Some("fare".into())
            }
        );
    }

    #[test]
    fn star_only_for_count() {
        assert!(parse("SELECT sum(*) FROM t").is_err());
    }

    #[test]
    fn aggregate_name_without_parens_is_column() {
        let q = parse("SELECT count FROM t").unwrap();
        assert_eq!(q.items[0], SelectItem::Column("count".into()));
    }

    #[test]
    fn date_literal_is_string() {
        let q = parse("SELECT date FROM taxi WHERE date < '2015-12-31'").unwrap();
        assert_eq!(
            q.predicate,
            Some(Expr::Cmp {
                column: "date".into(),
                op: CmpOp::Lt,
                literal: Literal::Str("2015-12-31".into()),
            })
        );
    }

    #[test]
    fn errors() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t WHERE a b c").is_err());
        assert!(parse("SELECT a FROM t WHERE a = b").is_err());
        assert!(parse("SELECT a FROM t WHERE 1 = 2").is_err());
        assert!(parse("SELECT a FROM t extra").is_err());
    }

    #[test]
    fn limit_clause() {
        let q = parse("SELECT a FROM t WHERE a > 1 LIMIT 10").unwrap();
        assert_eq!(q.limit, Some(10));
        let q = parse("SELECT a FROM t LIMIT 0").unwrap();
        assert_eq!(q.limit, Some(0));
        assert!(parse("SELECT a FROM t LIMIT").is_err());
        assert!(parse("SELECT a FROM t LIMIT -3").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        // Roundtrips through Display.
        let q = parse("SELECT a FROM t WHERE a > 1 LIMIT 10").unwrap();
        assert_eq!(parse(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn group_by_clause() {
        let q = parse("SELECT cat, count(*) FROM t WHERE k < 10 GROUP BY cat").unwrap();
        assert_eq!(q.group_by, vec!["cat".to_string()]);
        assert!(q.predicate.is_some());
        // Multi-column keys, and GROUP BY without a WHERE.
        let q = parse("SELECT a, b, sum(x) FROM t GROUP BY a, b").unwrap();
        assert_eq!(q.group_by, vec!["a".to_string(), "b".to_string()]);
        // Clause order: GROUP BY sits between WHERE and LIMIT.
        let q = parse("SELECT a FROM t WHERE a > 1 GROUP BY a LIMIT 5").unwrap();
        assert_eq!(q.group_by, vec!["a".to_string()]);
        assert_eq!(q.limit, Some(5));
        // Roundtrips through Display.
        let q = parse("SELECT a, b, min(x) FROM t WHERE x != 3 GROUP BY a, b").unwrap();
        assert_eq!(parse(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn group_by_errors() {
        assert!(parse("SELECT a FROM t GROUP").is_err());
        assert!(parse("SELECT a FROM t GROUP BY").is_err());
        assert!(parse("SELECT a FROM t GROUP BY 1").is_err());
        assert!(parse("SELECT a FROM t GROUP BY a,").is_err());
        assert!(parse("SELECT a FROM t GROUP BY SELECT").is_err());
        // GROUP/BY are reserved words now.
        assert!(parse("SELECT group FROM t").is_err());
        assert!(parse("SELECT a FROM by").is_err());
    }

    /// One predicate of each deep form, `levels` levels deep.
    fn deep_predicates(levels: usize) -> [String; 4] {
        let leaves = |op: &str| vec!["x = 1"; levels + 1].join(op);
        [
            format!("{}x = 1", "NOT ".repeat(levels)),
            format!("{}x = 1{}", "(".repeat(levels), ")".repeat(levels)),
            leaves(" AND "),
            leaves(" OR "),
        ]
    }

    #[test]
    fn predicate_depth_is_capped() {
        for (at_cap, above) in deep_predicates(MAX_PREDICATE_DEPTH)
            .into_iter()
            .zip(deep_predicates(MAX_PREDICATE_DEPTH + 1))
        {
            let at_cap = format!("SELECT x FROM t WHERE {at_cap}");
            assert!(parse(&at_cap).is_ok(), "{at_cap}");
            let above = format!("SELECT x FROM t WHERE {above}");
            assert!(
                matches!(parse(&above), Err(SqlError::Invalid(why)) if why.contains("deeper")),
                "{above}"
            );
        }
        // Levels add up across forms, and a closed level frees its count.
        let mixed = format!(
            "SELECT x FROM t WHERE {}(x = 1 AND x = 2)",
            "NOT ".repeat(MAX_PREDICATE_DEPTH - 2)
        );
        assert!(parse(&mixed).is_ok());
        assert!(parse(&mixed.replacen("NOT ", "NOT NOT ", 1)).is_err());
        let siblings = vec![format!("({})", "NOT ".repeat(100) + "x = 1"); 20].join(" OR ");
        assert!(parse(&format!("SELECT x FROM t WHERE {siblings}")).is_ok());
    }

    #[test]
    fn display_parses_back() {
        let q = parse("SELECT a, count(*) FROM t WHERE a <= 2.5 AND b != 'x'").unwrap();
        let q2 = parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}
