//! Recursive-descent parser for Jive.

use crate::ast::*;
use crate::diag::{CompileError, Pos};
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// The deepest nesting the parser accepts. Each nested expression
/// (parentheses, call arguments, indices), unary operator, nested block
/// (`if`/`else if`/`while` bodies), and link of a binary-operator or
/// call/field/index chain counts one level. The parser and every later
/// phase recurse over the tree, so the bound keeps the whole pipeline —
/// debug builds included — within a 2 MiB thread stack; real programs
/// stay far below it.
pub const MAX_NESTING: usize = 100;

/// Parses Jive source text into an AST.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its source position,
/// including input nested deeper than [`MAX_NESTING`].
pub fn parse(source: &str) -> Result<Program, CompileError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser {
        tokens,
        at: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
    /// Current nesting depth, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    /// Goes one nesting level deeper, failing with a parse error at the
    /// current token past [`MAX_NESTING`]. Callers restore `depth` when
    /// they finish the construct.
    fn descend(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(CompileError::parse(
                self.pos(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let depth = self.depth;
        self.descend()?;
        let result = f(self);
        self.depth = depth;
        result
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.at].kind
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.at].kind.clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        k
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), CompileError> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(CompileError::parse(
                self.pos(),
                format!("expected {kind}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(CompileError::parse(
                self.pos(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut program = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(program),
                TokenKind::Class => program.classes.push(self.class_decl()?),
                TokenKind::Fn => program.functions.push(self.fn_decl(TokenKind::Fn)?),
                other => {
                    return Err(CompileError::parse(
                        self.pos(),
                        format!("expected `class` or `fn` at top level, found {other}"),
                    ))
                }
            }
        }
    }

    fn class_decl(&mut self) -> Result<ClassDecl, CompileError> {
        let pos = self.pos();
        self.expect(TokenKind::Class)?;
        let name = self.ident()?;
        let parent = if self.eat(&TokenKind::Colon) {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            match self.peek() {
                TokenKind::Field => {
                    self.bump();
                    fields.push(self.ident()?);
                    self.expect(TokenKind::Semi)?;
                }
                TokenKind::Method => methods.push(self.fn_decl(TokenKind::Method)?),
                other => {
                    return Err(CompileError::parse(
                        self.pos(),
                        format!("expected `field` or `method` in class body, found {other}"),
                    ))
                }
            }
        }
        Ok(ClassDecl {
            name,
            parent,
            fields,
            methods,
            pos,
        })
    }

    fn fn_decl(&mut self, keyword: TokenKind) -> Result<FnDecl, CompileError> {
        let pos = self.pos();
        self.expect(keyword)?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                params.push(self.ident()?);
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        let body = self.block()?;
        Ok(FnDecl {
            name,
            params,
            body,
            pos,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(TokenKind::LBrace)?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            while !p.eat(&TokenKind::RBrace) {
                stmts.push(p.stmt()?);
            }
            Ok(stmts)
        })
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        match self.peek() {
            TokenKind::Var => {
                self.bump();
                let name = self.ident()?;
                let init = if self.eat(&TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Var { name, init, pos })
            }
            TokenKind::If => self.if_stmt(),
            TokenKind::While => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, pos })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return { value, pos })
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Break { pos })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Continue { pos })
            }
            TokenKind::Print => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let value = self.expr()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Print { value, pos })
            }
            _ => {
                let expr = self.expr()?;
                if self.eat(&TokenKind::Assign) {
                    let target = Self::as_lvalue(expr).ok_or_else(|| {
                        CompileError::parse(pos, "left side of `=` is not assignable")
                    })?;
                    let value = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Assign { target, value, pos })
                } else {
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Expr { expr, pos })
                }
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        self.expect(TokenKind::If)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat(&TokenKind::Else) {
            if self.peek() == &TokenKind::If {
                vec![self.nested(Self::if_stmt)?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            pos,
        })
    }

    fn as_lvalue(expr: Expr) -> Option<LValue> {
        match expr {
            Expr::Var(name, _) => Some(LValue::Var(name)),
            Expr::FieldGet { obj, field, .. } => Some(LValue::Field { obj, field }),
            Expr::Index { arr, idx, .. } => Some(LValue::Index { arr, idx }),
            _ => None,
        }
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut lhs = self.and_expr()?;
        while self.peek() == &TokenKind::OrOr {
            self.descend()?;
            let pos = self.pos();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinaryOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut lhs = self.cmp_expr()?;
        while self.peek() == &TokenKind::AndAnd {
            self.descend()?;
            let pos = self.pos();
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary {
                op: BinaryOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::EqEq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::Ne,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::Le => BinaryOp::Le,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::Ge => BinaryOp::Ge,
            _ => return Ok(lhs),
        };
        let pos = self.pos();
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            pos,
        })
    }

    fn add_expr(&mut self) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                TokenKind::Pipe => BinaryOp::BitOr,
                TokenKind::Caret => BinaryOp::BitXor,
                _ => break,
            };
            self.descend()?;
            let pos = self.pos();
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Rem,
                TokenKind::Amp => BinaryOp::BitAnd,
                TokenKind::Shl => BinaryOp::Shl,
                TokenKind::Shr => BinaryOp::Shr,
                _ => break,
            };
            self.descend()?;
            let pos = self.pos();
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnaryOp::Neg),
            TokenKind::Bang => Some(UnaryOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.nested(Self::unary_expr)?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                pos,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut expr = self.primary_expr()?;
        loop {
            let pos = self.pos();
            if matches!(self.peek(), TokenKind::Dot | TokenKind::LBracket) {
                self.descend()?;
            }
            if self.eat(&TokenKind::Dot) {
                let name = self.ident()?;
                if self.peek() == &TokenKind::LParen {
                    let args = self.args()?;
                    expr = Expr::MethodCall {
                        obj: Box::new(expr),
                        method: name,
                        args,
                        pos,
                    };
                } else {
                    expr = Expr::FieldGet {
                        obj: Box::new(expr),
                        field: name,
                        pos,
                    };
                }
            } else if self.eat(&TokenKind::LBracket) {
                let idx = self.expr()?;
                self.expect(TokenKind::RBracket)?;
                expr = Expr::Index {
                    arr: Box::new(expr),
                    idx: Box::new(idx),
                    pos,
                };
            } else {
                self.depth = depth;
                return Ok(expr);
            }
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, CompileError> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.eat(&TokenKind::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat(&TokenKind::RParen) {
                return Ok(args);
            }
            self.expect(TokenKind::Comma)?;
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, pos))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool(true, pos))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool(false, pos))
            }
            TokenKind::Null => {
                self.bump();
                Ok(Expr::Null(pos))
            }
            TokenKind::SelfKw => {
                self.bump();
                Ok(Expr::SelfRef(pos))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::New => {
                self.bump();
                let class = self.ident()?;
                Ok(Expr::New { class, pos })
            }
            TokenKind::Array => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let len = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::NewArray {
                    len: Box::new(len),
                    pos,
                })
            }
            TokenKind::Len => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let arr = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Len {
                    arr: Box::new(arr),
                    pos,
                })
            }
            TokenKind::Busy => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cycles = match self.peek().clone() {
                    TokenKind::Int(v) => {
                        self.bump();
                        v
                    }
                    other => {
                        return Err(CompileError::parse(
                            self.pos(),
                            format!("`busy` takes an integer literal, found {other}"),
                        ))
                    }
                };
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Busy { cycles, pos })
            }
            TokenKind::Spawn => {
                self.bump();
                let name = self.ident()?;
                let args = self.args()?;
                Ok(Expr::Spawn { name, args, pos })
            }
            TokenKind::Join => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let thread = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Join {
                    thread: Box::new(thread),
                    pos,
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek() == &TokenKind::LParen {
                    let args = self.args()?;
                    Ok(Expr::Call { name, args, pos })
                } else {
                    Ok(Expr::Var(name, pos))
                }
            }
            other => Err(CompileError::parse(
                pos,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_with_while_and_if() {
        let p = parse(
            "fn main() { var i = 0; while (i < 10) { if (i % 2 == 0) { print(i); } i = i + 1; } }",
        )
        .unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "main");
        assert_eq!(p.functions[0].body.len(), 2);
    }

    #[test]
    fn parses_class_with_inheritance() {
        let p =
            parse("class A { field x; method get() { return self.x; } } class B : A { field y; }")
                .unwrap();
        assert_eq!(p.classes.len(), 2);
        assert_eq!(p.classes[1].parent.as_deref(), Some("A"));
        assert_eq!(p.classes[0].methods.len(), 1);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("fn f() { var x = 1 + 2 * 3; }").unwrap();
        let Stmt::Var { init: Some(e), .. } = &p.functions[0].body[0] else {
            panic!("expected var");
        };
        let Expr::Binary { op, rhs, .. } = e else {
            panic!("expected binary");
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn assignment_targets() {
        assert!(parse("fn f(a) { a = 1; }").is_ok());
        assert!(parse("fn f(a) { a.x = 1; }").is_ok());
        assert!(parse("fn f(a) { a[0] = 1; }").is_ok());
        let err = parse("fn f(a) { (a + 1) = 2; }").unwrap_err();
        assert!(err.message.contains("not assignable"));
    }

    #[test]
    fn method_call_chain() {
        let p = parse("fn f(o) { o.next().next().x = 3; }").unwrap();
        assert!(matches!(p.functions[0].body[0], Stmt::Assign { .. }));
    }

    #[test]
    fn else_if_chains() {
        let p = parse("fn f(x) { if (x == 0) {} else if (x == 1) {} else {} }").unwrap();
        let Stmt::If { else_body, .. } = &p.functions[0].body[0] else {
            panic!();
        };
        assert!(matches!(else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn spawn_and_join() {
        let p = parse("fn w(n) {} fn main() { var t = spawn w(5); join(t); }").unwrap();
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn error_has_position() {
        let e = parse("fn main() { var 1 = 2; }").unwrap_err();
        assert!(e.pos.is_some());
        assert!(e.message.contains("identifier"));
    }

    #[test]
    fn rejects_stray_top_level_token() {
        assert!(parse("var x = 1;").is_err());
    }
}
