//! Tokenizer for the T-SQL subset.
//!
//! Identifiers are case-insensitive; keywords are recognized at the
//! parser level by comparing identifier text. Supports `--` line comments,
//! `/* */` block comments, quoted identifiers (`[Read]`, the form the
//! paper uses for its `Read` table) and single-quoted strings with `''`
//! escapes.

use seqdb_types::{DbError, Result};

#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier or keyword (original case preserved).
    Ident(String),
    /// `[bracketed]` or `"quoted"` identifier.
    QuotedIdent(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// 'string literal'.
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Semi,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl Token {
    /// Is this the (case-insensitive) keyword `kw`?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    pub fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier '{s}'"),
            Token::QuotedIdent(s) => format!("identifier [{s}]"),
            Token::Int(i) => format!("integer {i}"),
            Token::Float(f) => format!("number {f}"),
            Token::Str(s) => format!("string '{s}'"),
            other => format!("{other:?}"),
        }
    }
}

/// Tokenize a SQL string into its tokens and each token's start offset
/// in `sql` (parallel vectors).
pub fn tokenize(sql: &str) -> Result<(Vec<Token>, Vec<usize>)> {
    let bytes = sql.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let mut starts = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        let (at, before) = (i, out.len());
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(DbError::Parse(format!(
                            "unterminated block comment at byte {start}"
                        )));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' if !bytes
                .get(i + 1)
                .map(|b| b.is_ascii_digit())
                .unwrap_or(false) =>
            {
                out.push(Token::Dot);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '%' => {
                out.push(Token::Percent);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::NotEq);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::GtEq);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::NotEq);
                i += 2;
            }
            '\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => return Err(DbError::Parse("unterminated string literal".into())),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.push(Token::Str(s));
            }
            '[' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(DbError::Parse("unterminated [identifier]".into()));
                }
                out.push(Token::QuotedIdent(sql[start..i].to_string()));
                i += 1;
            }
            '"' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(DbError::Parse("unterminated \"identifier\"".into()));
                }
                out.push(Token::QuotedIdent(sql[start..i].to_string()));
                i += 1;
            }
            c if c.is_ascii_digit()
                || (c == '.'
                    && bytes
                        .get(i + 1)
                        .map(|b| b.is_ascii_digit())
                        .unwrap_or(false)) =>
            {
                let start = i;
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    if bytes[i] == b'.' || bytes[i] == b'e' || bytes[i] == b'E' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &sql[start..i];
                if is_float {
                    let f: f64 = text
                        .parse()
                        .map_err(|_| DbError::Parse(format!("bad number literal '{text}'")))?;
                    out.push(Token::Float(f));
                } else {
                    let n: i64 = text
                        .parse()
                        .map_err(|_| DbError::Parse(format!("bad integer literal '{text}'")))?;
                    out.push(Token::Int(n));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '@' || c == '#' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'@'
                        || bytes[i] == b'#'
                        || bytes[i] == b'$')
                {
                    i += 1;
                }
                out.push(Token::Ident(sql[start..i].to_string()));
            }
            other => {
                return Err(DbError::Parse(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
        // Each arm adds at most one token.
        if out.len() > before {
            starts.push(at);
        }
    }
    Ok((out, starts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select_tokens() {
        let (toks, _) = tokenize("SELECT COUNT(*), seq FROM [Read] WHERE id >= 10").unwrap();
        assert!(toks[0].is_kw("select"));
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::QuotedIdent("Read".into())));
        assert!(toks.contains(&Token::GtEq));
        assert!(toks.contains(&Token::Int(10)));
    }

    #[test]
    fn strings_with_escapes_and_comments() {
        let sql = "-- comment\nSELECT 'it''s' /* block */ , 1.5e2";
        let (toks, starts) = tokenize(sql).unwrap();
        assert_eq!(toks[1], Token::Str("it's".into()));
        assert_eq!(toks[3], Token::Float(150.0));
        // Offsets skip comments and point at each token's first byte.
        assert_eq!(&sql[starts[0]..starts[1]], "SELECT ");
        assert_eq!(&sql[starts[3]..], "1.5e2");
    }

    #[test]
    fn operators() {
        let (toks, _) = tokenize("a <> b != c <= d >= e < f > g").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::NotEq,
                &Token::NotEq,
                &Token::LtEq,
                &Token::GtEq,
                &Token::Lt,
                &Token::Gt
            ]
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(tokenize("SELECT 'oops").is_err());
        assert!(tokenize("SELECT [oops").is_err());
        assert!(tokenize("SELECT ^").is_err());
        assert!(tokenize("/* never closed").is_err());
    }

    #[test]
    fn qualified_names_and_method_calls() {
        let (toks, _) = tokenize("reads.PathName()").unwrap();
        assert_eq!(toks[1], Token::Dot);
        assert!(toks[2].is_kw("pathname"));
    }
}
