//! Recursive-descent parser for the T-SQL subset.

use seqdb_types::{DbError, Result, Value};

use crate::ast::*;
use crate::lexer::{tokenize, Token};

/// Parse one statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let (tokens, _) = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_if(&Token::Semi);
    if !p.at_end() {
        return Err(p.unexpected("end of statement"));
    }
    Ok(stmt)
}

/// Parse a script of `;`-separated statements, each with its own source
/// text: from its first token up to its terminating `;`, trimmed.
pub fn parse_script(sql: &str) -> Result<Vec<(Statement, &str)>> {
    let (tokens, starts) = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        if p.eat_if(&Token::Semi) {
            continue;
        }
        let from = starts[p.pos];
        let stmt = p.statement()?;
        let to = starts.get(p.pos).copied().unwrap_or(sql.len());
        out.push((stmt, sql[from..to].trim()));
        if !p.at_end() && !p.eat_if(&Token::Semi) {
            return Err(p.unexpected("';' between statements"));
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DbError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn unexpected(&self, wanted: &str) -> DbError {
        match self.peek() {
            Some(t) => DbError::Parse(format!("expected {wanted}, found {}", t.describe())),
            None => DbError::Parse(format!("expected {wanted}, found end of input")),
        }
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<()> {
        if self.eat_if(t) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {kw}")))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    /// Any identifier (quoted or not).
    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            Token::QuotedIdent(s) => Ok(s),
            t => Err(DbError::Parse(format!(
                "expected identifier, found {}",
                t.describe()
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.kw("explain") {
            let analyze = self.kw("analyze");
            let inner = self.statement()?;
            return Ok(Statement::Explain {
                analyze,
                inner: Box::new(inner),
            });
        }
        if self.peek_kw("select") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.kw("create") {
            if self.kw("table") {
                return self.create_table();
            }
            let unique = self.kw("unique");
            let clustered = self.kw("clustered") || {
                self.kw("nonclustered");
                false
            };
            if self.kw("index") {
                return self.create_index(unique, clustered);
            }
            return Err(self.unexpected("TABLE or INDEX after CREATE"));
        }
        if self.kw("drop") {
            self.expect_kw("table")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name });
        }
        if self.kw("insert") {
            return self.insert();
        }
        if self.kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let predicate = if self.kw("where") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, predicate });
        }
        if self.kw("checkpoint") {
            return Ok(Statement::Checkpoint);
        }
        if self.kw("check") {
            let table = if self.kw("database") {
                None
            } else {
                self.expect_kw("table")?;
                Some(self.ident()?)
            };
            let repair = self.kw("repair");
            return Ok(Statement::Check { table, repair });
        }
        if self.kw("backup") {
            self.expect_kw("database")?;
            self.expect_kw("to")?;
            let dir = self.str_literal("backup destination directory")?;
            let incremental_from = if self.kw("incremental") {
                self.expect_kw("from")?;
                Some(self.str_literal("incremental base directory")?)
            } else {
                None
            };
            return Ok(Statement::Backup {
                dir,
                incremental_from,
            });
        }
        if self.kw("restore") {
            self.expect_kw("database")?;
            self.expect_kw("from")?;
            let dir = self.str_literal("backup directory")?;
            let to = if self.kw("to") {
                Some(self.str_literal("restore target directory")?)
            } else {
                None
            };
            let verify_only = if self.kw("verify") {
                self.expect_kw("only")?;
                true
            } else {
                false
            };
            return Ok(Statement::Restore {
                dir,
                to,
                verify_only,
            });
        }
        if self.kw("set") {
            let name = self.ident()?.to_ascii_uppercase();
            self.expect(&Token::Eq, "'=' in SET")?;
            let value = match self.next()? {
                Token::Int(i) => SetValue::Int(i),
                Token::Str(s) => SetValue::Str(s),
                t => {
                    return Err(DbError::Parse(format!(
                        "expected integer or string value for SET {name}, found {}",
                        t.describe()
                    )))
                }
            };
            return Ok(Statement::Set { name, value });
        }
        if self.kw("kill") {
            let id = match self.next()? {
                Token::Int(i) => i,
                t => {
                    return Err(DbError::Parse(format!(
                        "expected statement id after KILL, found {}",
                        t.describe()
                    )))
                }
            };
            return Ok(Statement::Kill(id));
        }
        if self.kw("update") {
            let table = self.ident()?;
            self.expect_kw("set")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect(&Token::Eq, "'=' in SET assignment")?;
                let value = self.expr()?;
                assignments.push((col, value));
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            let predicate = if self.kw("where") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                assignments,
                predicate,
            });
        }
        Err(self.unexpected(
            "a statement (SELECT/INSERT/UPDATE/DELETE/CREATE/DROP/CHECK/BACKUP/RESTORE/EXPLAIN)",
        ))
    }

    /// Consume a `'string'` literal, e.g. a directory path.
    fn str_literal(&mut self, what: &str) -> Result<String> {
        match self.next()? {
            Token::Str(s) => Ok(s),
            t => Err(DbError::Parse(format!(
                "expected {what} as a 'string', found {}",
                t.describe()
            ))),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect(&Token::LParen, "'(' after table name")?;
        let mut columns = Vec::new();
        let mut primary_key: Option<Vec<String>> = None;
        loop {
            if self.kw("primary") {
                self.expect_kw("key")?;
                self.expect(&Token::LParen, "'(' after PRIMARY KEY")?;
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen, "')' after key columns")?;
                primary_key = Some(cols);
            } else {
                let col_name = self.ident()?;
                let mut type_name = self.ident()?.to_ascii_uppercase();
                // Strip length arguments: VARCHAR(50), VARBINARY(MAX).
                if self.eat_if(&Token::LParen) {
                    match self.next()? {
                        Token::Int(_) => {}
                        Token::Ident(s) if s.eq_ignore_ascii_case("max") => {}
                        t => {
                            return Err(DbError::Parse(format!(
                                "expected length or MAX in type, found {}",
                                t.describe()
                            )))
                        }
                    }
                    self.expect(&Token::RParen, "')' after type length")?;
                }
                // Normalize e.g. "INT" and "INTEGER".
                if type_name == "INTEGER" {
                    type_name = "INT".into();
                }
                let mut def = ColumnDef {
                    name: col_name,
                    type_name,
                    not_null: false,
                    filestream: false,
                    rowguidcol: false,
                };
                // Column options in any order.
                loop {
                    if self.kw("not") {
                        self.expect_kw("null")?;
                        def.not_null = true;
                    } else if self.kw("null") {
                        // explicit NULL: default
                    } else if self.kw("filestream") {
                        def.filestream = true;
                    } else if self.kw("rowguidcol") {
                        def.rowguidcol = true;
                    } else if self.kw("primary") {
                        self.expect_kw("key")?;
                        def.not_null = true;
                        primary_key = Some(vec![def.name.clone()]);
                    } else {
                        break;
                    }
                }
                columns.push(def);
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen, "')' after column list")?;

        let mut compression = None;
        let mut filestream_on = None;
        loop {
            if self.kw("with") {
                self.expect(&Token::LParen, "'(' after WITH")?;
                loop {
                    let opt = self.ident()?.to_ascii_uppercase();
                    self.expect(&Token::Eq, "'=' in WITH option")?;
                    let val = self.ident()?.to_ascii_uppercase();
                    if opt == "DATA_COMPRESSION" {
                        compression = Some(val);
                    } else {
                        return Err(DbError::Parse(format!("unknown table option {opt}")));
                    }
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen, "')' after WITH options")?;
            } else if self.kw("filestream_on") {
                filestream_on = Some(self.ident()?);
            } else {
                break;
            }
        }

        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            primary_key,
            compression,
            filestream_on,
        }))
    }

    fn create_index(&mut self, unique: bool, clustered: bool) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect(&Token::LParen, "'(' after table name")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            // Ignore per-column ASC/DESC (B+-trees scan both ways).
            let _ = self.kw("asc") || self.kw("desc");
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen, "')' after index columns")?;
        Ok(Statement::CreateIndex(CreateIndex {
            name,
            table,
            columns,
            unique,
            clustered,
        }))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut columns = None;
        if self.peek() == Some(&Token::LParen) {
            // Could be a column list or a VALUES-less subselect; we only
            // support a column list here.
            self.expect(&Token::LParen, "'('")?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "')' after column list")?;
            columns = Some(cols);
        }
        if self.kw("values") {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen, "'(' before row values")?;
                let mut vals = Vec::new();
                loop {
                    vals.push(self.expr()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen, "')' after row values")?;
                rows.push(vals);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert(Insert {
                table,
                columns,
                source: InsertSource::Values(rows),
            }));
        }
        if self.peek_kw("select") {
            let q = self.select()?;
            return Ok(Statement::Insert(Insert {
                table,
                columns,
                source: InsertSource::Query(Box::new(q)),
            }));
        }
        Err(self.unexpected("VALUES or SELECT after INSERT INTO"))
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let mut top = None;
        if self.kw("top") {
            match self.next()? {
                Token::Int(n) if n >= 0 => top = Some(n as u64),
                t => {
                    return Err(DbError::Parse(format!(
                        "expected row count after TOP, found {}",
                        t.describe()
                    )))
                }
            }
        }
        let mut items = Vec::new();
        loop {
            if self.eat_if(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let mut alias = None;
                if self.kw("as")
                    || matches!(self.peek(), Some(Token::Ident(s)) if !is_clause_keyword(s))
                {
                    alias = Some(self.ident()?);
                }
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }

        let mut from = None;
        if self.kw("from") {
            let base = self.table_ref()?;
            let mut joins = Vec::new();
            loop {
                if self.kw("join") || (self.kw("inner") && self.expect_kw("join").is_ok()) {
                    let table = self.table_ref()?;
                    self.expect_kw("on")?;
                    let on = self.expr()?;
                    joins.push(JoinClause::Inner { table, on });
                } else if self.kw("cross") {
                    self.expect_kw("apply")?;
                    let func = self.table_ref()?;
                    joins.push(JoinClause::CrossApply { func });
                } else {
                    break;
                }
            }
            from = Some(FromClause { base, joins });
        }

        let mut where_clause = None;
        if self.kw("where") {
            where_clause = Some(self.expr()?);
        }

        let mut group_by = Vec::new();
        if self.kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }

        let mut having = None;
        if self.kw("having") {
            having = Some(self.expr()?);
        }

        let mut order_by = Vec::new();
        if self.kw("order") {
            self.expect_kw("by")?;
            order_by = self.order_items()?;
        }

        Ok(Select {
            top,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
        })
    }

    fn order_items(&mut self) -> Result<Vec<OrderItem>> {
        let mut out = Vec::new();
        loop {
            let expr = self.expr()?;
            let desc = if self.kw("desc") {
                true
            } else {
                self.kw("asc");
                false
            };
            out.push(OrderItem { expr, desc });
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        // Subquery.
        if self.peek() == Some(&Token::LParen) {
            self.expect(&Token::LParen, "'('")?;
            let q = self.select()?;
            self.expect(&Token::RParen, "')' after subquery")?;
            let alias = self.optional_alias()?;
            return Ok(TableRef::Subquery {
                query: Box::new(q),
                alias,
            });
        }
        // OPENROWSET(BULK 'path', SINGLE_BLOB)
        if self.peek_kw("openrowset") {
            self.pos += 1;
            self.expect(&Token::LParen, "'(' after OPENROWSET")?;
            self.expect_kw("bulk")?;
            let path = match self.next()? {
                Token::Str(s) => s,
                t => {
                    return Err(DbError::Parse(format!(
                        "expected file path string, found {}",
                        t.describe()
                    )))
                }
            };
            self.expect(&Token::Comma, "',' before SINGLE_BLOB")?;
            self.expect_kw("single_blob")?;
            self.expect(&Token::RParen, "')' after OPENROWSET")?;
            return Ok(TableRef::OpenRowset { path });
        }
        let name = self.ident()?;
        // Function in FROM / CROSS APPLY.
        if self.peek() == Some(&Token::LParen) {
            self.expect(&Token::LParen, "'('")?;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen, "')' after function arguments")?;
            let alias = self.optional_alias()?;
            return Ok(TableRef::Function { name, args, alias });
        }
        let alias = self.optional_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.kw("as") {
            return Ok(Some(self.ident()?));
        }
        match self.peek() {
            Some(Token::Ident(s)) if !is_clause_keyword(s) => Ok(Some(self.ident()?)),
            Some(Token::QuotedIdent(_)) => Ok(Some(self.ident()?)),
            _ => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.kw("or") {
            let right = self.and_expr()?;
            left = AstExpr::Binary {
                op: AstBinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.kw("and") {
            let right = self.not_expr()?;
            left = AstExpr::Binary {
                op: AstBinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.kw("not") {
            let inner = self.not_expr()?;
            return Ok(AstExpr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(AstBinOp::Eq),
            Some(Token::NotEq) => Some(AstBinOp::NotEq),
            Some(Token::Lt) => Some(AstBinOp::Lt),
            Some(Token::LtEq) => Some(AstBinOp::LtEq),
            Some(Token::Gt) => Some(AstBinOp::Gt),
            Some(Token::GtEq) => Some(AstBinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        // IS [NOT] NULL
        if self.kw("is") {
            let negated = self.kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => AstBinOp::Add,
                Some(Token::Minus) => AstBinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => AstBinOp::Mul,
                Some(Token::Slash) => AstBinOp::Div,
                Some(Token::Percent) => AstBinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.eat_if(&Token::Minus) {
            let inner = self.unary()?;
            return Ok(AstExpr::Neg(Box::new(inner)));
        }
        if self.eat_if(&Token::Plus) {
            return self.unary();
        }
        self.postfix()
    }

    /// Primary expression plus postfix method calls (`expr.Method()`).
    fn postfix(&mut self) -> Result<AstExpr> {
        let mut e = self.primary()?;
        // Method-call syntax: ident.Method() — rewrite to Method(ident).
        while self.peek() == Some(&Token::Dot) && matches!(e, AstExpr::Ident(_)) {
            // Only rewrite when followed by ident + '(' — otherwise the
            // dot was already folded into the qualified ident by primary.
            let Some(Token::Ident(m)) = self.peek2().cloned() else {
                break;
            };
            if self.tokens.get(self.pos + 2) != Some(&Token::LParen) {
                break;
            }
            self.pos += 3; // consume . method (
            self.expect(&Token::RParen, "')' after method call")?;
            e = AstExpr::Func {
                name: m.to_ascii_uppercase(),
                args: vec![e],
                star: false,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Int(n)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::text(s)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(e)
            }
            Some(Token::Ident(s))
                if is_clause_keyword(&s)
                    && !s.eq_ignore_ascii_case("null")
                    && !s.eq_ignore_ascii_case("not")
                    && self.peek2() != Some(&Token::LParen) =>
            {
                Err(DbError::Parse(format!(
                    "expected expression, found keyword {s}"
                )))
            }
            Some(Token::Ident(_)) | Some(Token::QuotedIdent(_)) => self.ident_or_call(),
            Some(t) => Err(DbError::Parse(format!(
                "expected expression, found {}",
                t.describe()
            ))),
            None => Err(DbError::Parse(
                "expected expression, found end of input".into(),
            )),
        }
    }

    fn ident_or_call(&mut self) -> Result<AstExpr> {
        let first = self.ident()?;

        // NULL / TRUE / FALSE literals.
        if first.eq_ignore_ascii_case("null") {
            return Ok(AstExpr::Literal(Value::Null));
        }
        if first.eq_ignore_ascii_case("true") {
            return Ok(AstExpr::Literal(Value::Bool(true)));
        }
        if first.eq_ignore_ascii_case("false") {
            return Ok(AstExpr::Literal(Value::Bool(false)));
        }

        // CAST(expr AS TYPE)
        if first.eq_ignore_ascii_case("cast") && self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let inner = self.expr()?;
            self.expect_kw("as")?;
            let mut type_name = self.ident()?.to_ascii_uppercase();
            if self.eat_if(&Token::LParen) {
                match self.next()? {
                    Token::Int(_) => {}
                    Token::Ident(s) if s.eq_ignore_ascii_case("max") => {}
                    t => {
                        return Err(DbError::Parse(format!(
                            "expected length in CAST type, found {}",
                            t.describe()
                        )))
                    }
                }
                self.expect(&Token::RParen, "')' after type length")?;
            }
            if type_name == "INTEGER" {
                type_name = "INT".into();
            }
            self.expect(&Token::RParen, "')' after CAST")?;
            return Ok(AstExpr::Cast {
                expr: Box::new(inner),
                type_name,
            });
        }

        // Function call?
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let mut args = Vec::new();
            let mut star = false;
            if self.eat_if(&Token::Star) {
                star = true;
            } else if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen, "')' after arguments")?;

            // OVER clause -> window function.
            if self.kw("over") {
                self.expect(&Token::LParen, "'(' after OVER")?;
                self.expect_kw("order")?;
                self.expect_kw("by")?;
                let order_by = self.order_items()?;
                self.expect(&Token::RParen, "')' after OVER clause")?;
                if !first.eq_ignore_ascii_case("row_number") {
                    return Err(DbError::Unsupported(format!(
                        "window function {first} (only ROW_NUMBER is supported)"
                    )));
                }
                return Ok(AstExpr::Window {
                    name: first.to_ascii_uppercase(),
                    order_by,
                });
            }

            return Ok(AstExpr::Func {
                name: first.to_ascii_uppercase(),
                args,
                star,
            });
        }

        // Qualified identifier a.b (but stop before method calls, which
        // postfix() handles).
        let mut parts = vec![first];
        while self.peek() == Some(&Token::Dot) {
            // a '.' must be followed by an ident; if that ident is then
            // followed by '(', it is a method call — leave it for postfix.
            let Some(next) = self.peek2() else { break };
            let is_ident = matches!(next, Token::Ident(_) | Token::QuotedIdent(_));
            if !is_ident {
                break;
            }
            if self.tokens.get(self.pos + 2) == Some(&Token::LParen) {
                break;
            }
            self.pos += 1; // dot
            parts.push(self.ident()?);
        }
        Ok(AstExpr::Ident(parts))
    }
}

/// Keywords that terminate an implicit alias position.
fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "from", "where", "group", "order", "having", "join", "inner", "left", "right", "cross",
        "on", "as", "top", "and", "or", "not", "is", "null", "asc", "desc", "union", "values",
        "select", "insert", "into", "set", "with",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query1_from_the_paper() {
        let sql = "
            SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC),
                   COUNT(*),
                   short_read_seq
            FROM [Read]
            WHERE r_e_id=1 AND r_sg_id=2 AND r_s_id=1
                  AND CHARINDEX('N', short_read_seq)=0
            GROUP BY short_read_seq";
        let stmt = parse(sql).unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.items.len(), 3);
        assert!(matches!(
            s.items[0],
            SelectItem::Expr {
                expr: AstExpr::Window { .. },
                ..
            }
        ));
        assert_eq!(s.group_by.len(), 1);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_checkpoint() {
        assert!(matches!(
            parse("CHECKPOINT").unwrap(),
            Statement::Checkpoint
        ));
        assert!(matches!(
            parse("checkpoint").unwrap(),
            Statement::Checkpoint
        ));
    }

    #[test]
    fn parses_backup_and_restore() {
        assert_eq!(
            parse("BACKUP DATABASE TO '/backups/full'").unwrap(),
            Statement::Backup {
                dir: "/backups/full".into(),
                incremental_from: None
            }
        );
        assert_eq!(
            parse("BACKUP DATABASE TO '/b/2' INCREMENTAL FROM '/b/1'").unwrap(),
            Statement::Backup {
                dir: "/b/2".into(),
                incremental_from: Some("/b/1".into())
            }
        );
        assert_eq!(
            parse("RESTORE DATABASE FROM '/b/1' VERIFY ONLY").unwrap(),
            Statement::Restore {
                dir: "/b/1".into(),
                to: None,
                verify_only: true
            }
        );
        assert_eq!(
            parse("RESTORE DATABASE FROM '/b/1' TO '/data/db'").unwrap(),
            Statement::Restore {
                dir: "/b/1".into(),
                to: Some("/data/db".into()),
                verify_only: false
            }
        );
        // The destination must be a string literal, not an identifier.
        assert!(parse("BACKUP DATABASE TO somewhere").is_err());
        // VERIFY must be followed by ONLY.
        assert!(parse("RESTORE DATABASE FROM '/b/1' VERIFY").is_err());
    }

    #[test]
    fn parses_check_statements() {
        assert_eq!(
            parse("CHECK TABLE reads").unwrap(),
            Statement::Check {
                table: Some("reads".into()),
                repair: false
            }
        );
        assert_eq!(
            parse("CHECK TABLE reads REPAIR").unwrap(),
            Statement::Check {
                table: Some("reads".into()),
                repair: true
            }
        );
        assert_eq!(
            parse("check database repair").unwrap(),
            Statement::Check {
                table: None,
                repair: true
            }
        );
        assert_eq!(
            parse("CHECK DATABASE").unwrap(),
            Statement::Check {
                table: None,
                repair: false
            }
        );
        // CHECK alone is not a statement.
        assert!(parse("CHECK").is_err());
    }

    #[test]
    fn parses_set_option() {
        assert_eq!(
            parse("SET QUERY_TIMEOUT_MS = 500").unwrap(),
            Statement::Set {
                name: "QUERY_TIMEOUT_MS".into(),
                value: SetValue::Int(500)
            }
        );
        // Option names are case-normalized; UPDATE's SET is unaffected.
        assert_eq!(
            parse("set query_memory_limit_kb = 0").unwrap(),
            Statement::Set {
                name: "QUERY_MEMORY_LIMIT_KB".into(),
                value: SetValue::Int(0)
            }
        );
        // String values parse (the binder type-checks per option); a bare
        // identifier is still a syntax error.
        assert_eq!(
            parse("SET TRACE_EVENTS = 'WAIT,SPILL'").unwrap(),
            Statement::Set {
                name: "TRACE_EVENTS".into(),
                value: SetValue::Str("WAIT,SPILL".into())
            }
        );
        assert!(parse("SET QUERY_TIMEOUT_MS = soon").is_err());
        assert!(matches!(
            parse("UPDATE t SET a = 1").unwrap(),
            Statement::Update { .. }
        ));
    }

    #[test]
    fn parses_query2_insert_select_join() {
        let sql = "
            INSERT INTO GeneExpression
            SELECT a_g_id, a_e_id, SUM(t_frequency), COUNT(a_t_id)
            FROM Alignment JOIN Tag ON (a_t_id = t_id)
            WHERE a_e_id = 1
            GROUP BY a_g_id, a_e_id";
        let Statement::Insert(ins) = parse(sql).unwrap() else {
            panic!()
        };
        let InsertSource::Query(q) = ins.source else {
            panic!()
        };
        assert_eq!(q.group_by.len(), 2);
        let from = q.from.unwrap();
        assert_eq!(from.joins.len(), 1);
    }

    #[test]
    fn parses_create_table_with_filestream_and_compression() {
        let sql = "
            CREATE TABLE ShortReadFiles (
                guid UNIQUEIDENTIFIER ROWGUIDCOL PRIMARY KEY,
                sample INT,
                lane INT,
                reads VARBINARY(MAX) FILESTREAM
            ) FILESTREAM_ON FILESTREAMGROUP";
        let Statement::CreateTable(ct) = parse(sql).unwrap() else {
            panic!()
        };
        assert_eq!(ct.columns.len(), 4);
        assert!(ct.columns[0].rowguidcol);
        assert!(ct.columns[3].filestream);
        assert_eq!(ct.primary_key, Some(vec!["guid".to_string()]));
        assert_eq!(ct.filestream_on.as_deref(), Some("FILESTREAMGROUP"));

        let sql2 = "CREATE TABLE T1 (c1 INT, c2 NVARCHAR(50)) WITH (DATA_COMPRESSION = ROW)";
        let Statement::CreateTable(ct2) = parse(sql2).unwrap() else {
            panic!()
        };
        assert_eq!(ct2.compression.as_deref(), Some("ROW"));
    }

    #[test]
    fn parses_openrowset_bulk_import() {
        let sql = "
            INSERT INTO ShortReadFiles (guid, sample, lane, reads)
            SELECT NEWID(), 855, 1, *
            FROM OPENROWSET(BULK 'D:\\855_s_1.fastq', SINGLE_BLOB)";
        let Statement::Insert(ins) = parse(sql).unwrap() else {
            panic!()
        };
        let InsertSource::Query(q) = ins.source else {
            panic!()
        };
        let from = q.from.unwrap();
        assert!(matches!(from.base, TableRef::OpenRowset { .. }));
    }

    #[test]
    fn parses_cross_apply_and_tvf() {
        let sql = "
            SELECT chromosome, pos
            FROM Alignments a JOIN [Read] r ON (a_r_id = r_id)
            CROSS APPLY PivotAlignment(pos, seq, quals)
            WHERE a_e_id = 3";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        let from = s.from.unwrap();
        assert_eq!(from.joins.len(), 2);
        assert!(matches!(from.joins[1], JoinClause::CrossApply { .. }));
    }

    #[test]
    fn parses_method_call_pathname() {
        let sql = "SELECT guid, reads.PathName(), DATALENGTH(reads) FROM ShortReadFiles";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[1] else {
            panic!()
        };
        let AstExpr::Func { name, args, .. } = expr else {
            panic!("got {expr:?}")
        };
        assert_eq!(name, "PATHNAME");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn parses_subquery_in_from() {
        let sql = "
            SELECT chromosome, AssembleSequence(pos, b)
            FROM (SELECT chromosome, pos, CallBase(base, qual) b
                  FROM Pileup GROUP BY chromosome, pos) x
            GROUP BY chromosome";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        let from = s.from.unwrap();
        assert!(matches!(from.base, TableRef::Subquery { .. }));
    }

    #[test]
    fn parses_top_and_order_by() {
        let sql = "SELECT TOP 10 seq FROM t ORDER BY freq DESC, seq";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        assert_eq!(s.top, Some(10));
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
    }

    #[test]
    fn explain_wraps_statement() {
        let stmt = parse("EXPLAIN SELECT 1").unwrap();
        assert!(matches!(stmt, Statement::Explain { analyze: false, .. }));
        let stmt = parse("EXPLAIN ANALYZE SELECT 1").unwrap();
        assert!(matches!(stmt, Statement::Explain { analyze: true, .. }));
    }

    #[test]
    fn script_splits_on_semicolons() {
        let stmts =
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);\n  SELECT * FROM t ;;")
                .unwrap();
        let texts: Vec<&str> = stmts.iter().map(|(_, text)| *text).collect();
        assert_eq!(
            texts,
            [
                "CREATE TABLE t (a INT)",
                "INSERT INTO t VALUES (1)",
                "SELECT * FROM t"
            ]
        );
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = parse("SELECT FROM").unwrap_err();
        assert!(e.to_string().contains("expression"));
        let e = parse("CREATE VIEW v").unwrap_err();
        assert!(e.to_string().contains("TABLE or INDEX"));
        assert!(parse("SELECT 1 extra junk, ,").is_err());
    }

    #[test]
    fn arithmetic_precedence() {
        let Statement::Select(s) = parse("SELECT 1 + 2 * 3").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        // Must parse as 1 + (2*3).
        let AstExpr::Binary { op, right, .. } = expr else {
            panic!()
        };
        assert_eq!(*op, AstBinOp::Add);
        assert!(matches!(
            **right,
            AstExpr::Binary {
                op: AstBinOp::Mul,
                ..
            }
        ));
    }
}
