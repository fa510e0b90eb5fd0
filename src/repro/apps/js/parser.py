"""Pratt parser for the JavaScript subset."""

from __future__ import annotations

from repro.apps.js import ast_nodes as ast
from repro.apps.js.lexer import JsSyntaxError, Token, TokenType, tokenize

# Binding powers for binary operators (higher binds tighter).
_BINARY_BP = {
    "||": 4, "&&": 5,
    "|": 6, "^": 7, "&": 8,
    "==": 9, "!=": 9, "===": 9, "!==": 9,
    "<": 10, ">": 10, "<=": 10, ">=": 10, "in": 10,
    "<<": 11, ">>": 11, ">>>": 11,
    "+": 12, "-": 12,
    "*": 13, "/": 13, "%": 13,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}


class Parser:
    """Parses a token stream into a :class:`~ast_nodes.Program`."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers -------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self.current
        if not token.is_punct(text):
            raise JsSyntaxError(f"expected {text!r}, got {token.value!r}", token.line, token.col)
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self.current
        if not token.is_keyword(word):
            raise JsSyntaxError(f"expected {word!r}, got {token.value!r}", token.line, token.col)
        return self._advance()

    def _expect_ident(self) -> str:
        token = self.current
        if token.type is not TokenType.IDENT:
            raise JsSyntaxError(f"expected identifier, got {token.value!r}", token.line, token.col)
        self._advance()
        return str(token.value)

    def _eat_punct(self, text: str) -> bool:
        if self.current.is_punct(text):
            self._advance()
            return True
        return False

    def _eat_semicolon(self) -> None:
        # Permissive automatic-semicolon handling: a semicolon is consumed
        # if present; otherwise statement boundaries are inferred.
        self._eat_punct(";")

    # -- entry point ------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        body: list[ast.Node] = []
        while self.current.type is not TokenType.EOF:
            body.append(self.parse_statement())
        return ast.Program(body=tuple(body))

    # -- statements ----------------------------------------------------------------
    def parse_statement(self) -> ast.Node:
        token = self.current
        if token.is_punct("{"):
            return self.parse_block()
        if token.is_punct(";"):
            self._advance()
            return ast.Block(statements=())
        if token.type is TokenType.KEYWORD:
            word = str(token.value)
            if word in ("var", "let", "const"):
                decl = self.parse_var_decl()
                self._eat_semicolon()
                return decl
            if word == "function":
                return self.parse_function_decl()
            if word == "return":
                self._advance()
                if self.current.is_punct(";") or self.current.is_punct("}") or self.current.type is TokenType.EOF:
                    self._eat_semicolon()
                    return ast.Return(value=None)
                value = self.parse_expression()
                self._eat_semicolon()
                return ast.Return(value=value)
            if word == "if":
                return self.parse_if()
            if word == "while":
                return self.parse_while()
            if word == "do":
                return self.parse_do_while()
            if word == "for":
                return self.parse_for()
            if word == "break":
                self._advance()
                self._eat_semicolon()
                return ast.Break()
            if word == "continue":
                self._advance()
                self._eat_semicolon()
                return ast.Continue()
            if word == "throw":
                self._advance()
                value = self.parse_expression()
                self._eat_semicolon()
                return ast.Throw(value=value)
            if word == "try":
                return self.parse_try()
            if word == "switch":
                return self.parse_switch()
        expr = self.parse_expression()
        self._eat_semicolon()
        return ast.ExprStmt(expr=expr)

    def parse_block(self) -> ast.Block:
        self._expect_punct("{")
        statements: list[ast.Node] = []
        while not self.current.is_punct("}"):
            if self.current.type is TokenType.EOF:
                raise JsSyntaxError("unterminated block", self.current.line, self.current.col)
            statements.append(self.parse_statement())
        self._expect_punct("}")
        return ast.Block(statements=tuple(statements))

    def parse_var_decl(self) -> ast.VarDecl:
        kind = str(self._advance().value)
        declarations: list[tuple[str, ast.Node | None]] = []
        while True:
            name = self._expect_ident()
            init: ast.Node | None = None
            if self._eat_punct("="):
                init = self.parse_assignment()
            declarations.append((name, init))
            if not self._eat_punct(","):
                break
        return ast.VarDecl(kind=kind, declarations=tuple(declarations))

    def parse_function_decl(self) -> ast.FunctionDecl:
        self._expect_keyword("function")
        name = self._expect_ident()
        params, body = self._parse_function_rest()
        return ast.FunctionDecl(name=name, params=params, body=body)

    def _parse_function_rest(self) -> tuple[tuple[str, ...], tuple[ast.Node, ...]]:
        self._expect_punct("(")
        params: list[str] = []
        while not self.current.is_punct(")"):
            params.append(self._expect_ident())
            if not self._eat_punct(","):
                break
        self._expect_punct(")")
        block = self.parse_block()
        return tuple(params), block.statements

    def parse_if(self) -> ast.If:
        self._expect_keyword("if")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        consequent = self.parse_statement()
        alternate: ast.Node | None = None
        if self.current.is_keyword("else"):
            self._advance()
            alternate = self.parse_statement()
        return ast.If(test=test, consequent=consequent, alternate=alternate)

    def parse_while(self) -> ast.While:
        self._expect_keyword("while")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        return ast.While(test=test, body=self.parse_statement())

    def parse_do_while(self) -> ast.DoWhile:
        self._expect_keyword("do")
        body = self.parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        self._eat_semicolon()
        return ast.DoWhile(body=body, test=test)

    def parse_try(self) -> ast.Try:
        self._expect_keyword("try")
        block = self.parse_block()
        param: str | None = None
        handler: ast.Block | None = None
        finalizer: ast.Block | None = None
        if self.current.is_keyword("catch"):
            self._advance()
            if self._eat_punct("("):
                param = self._expect_ident()
                self._expect_punct(")")
            handler = self.parse_block()
        if self.current.is_keyword("finally"):
            self._advance()
            finalizer = self.parse_block()
        if handler is None and finalizer is None:
            token = self.current
            raise JsSyntaxError("try without catch or finally", token.line, token.col)
        return ast.Try(block=block, param=param, handler=handler, finalizer=finalizer)

    def parse_switch(self) -> ast.Switch:
        self._expect_keyword("switch")
        self._expect_punct("(")
        discriminant = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[ast.SwitchCase] = []
        seen_default = False
        while not self.current.is_punct("}"):
            if self.current.is_keyword("case"):
                self._advance()
                test: ast.Node | None = self.parse_expression()
            elif self.current.is_keyword("default"):
                if seen_default:
                    token = self.current
                    raise JsSyntaxError("duplicate default clause", token.line, token.col)
                seen_default = True
                self._advance()
                test = None
            else:
                token = self.current
                raise JsSyntaxError("expected case or default", token.line, token.col)
            self._expect_punct(":")
            body: list[ast.Node] = []
            while not (
                self.current.is_keyword("case")
                or self.current.is_keyword("default")
                or self.current.is_punct("}")
            ):
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(test=test, body=tuple(body)))
        self._expect_punct("}")
        return ast.Switch(discriminant=discriminant, cases=tuple(cases))

    def parse_for(self) -> "ast.For | ast.ForIn":
        self._expect_keyword("for")
        self._expect_punct("(")
        # Disambiguate `for (x in obj)` / `for (var x in obj)` first.
        saved = self.pos
        declares = False
        if self.current.type is TokenType.KEYWORD and self.current.value in ("var", "let", "const"):
            self._advance()
            declares = True
        if self.current.type is TokenType.IDENT:
            name = str(self.current.value)
            self._advance()
            if self.current.is_keyword("in"):
                self._advance()
                obj = self.parse_expression()
                self._expect_punct(")")
                return ast.ForIn(var_name=name, declares=declares, obj=obj,
                                 body=self.parse_statement())
        self.pos = saved  # not a for-in: reparse as a classic for

        init: ast.Node | None = None
        if not self.current.is_punct(";"):
            if self.current.type is TokenType.KEYWORD and self.current.value in ("var", "let", "const"):
                init = self.parse_var_decl()
            else:
                init = ast.ExprStmt(expr=self.parse_expression())
        self._expect_punct(";")
        test: ast.Node | None = None
        if not self.current.is_punct(";"):
            test = self.parse_expression()
        self._expect_punct(";")
        update: ast.Node | None = None
        if not self.current.is_punct(")"):
            update = self.parse_expression()
        self._expect_punct(")")
        return ast.For(init=init, test=test, update=update, body=self.parse_statement())

    # -- expressions -------------------------------------------------------------------
    def parse_expression(self) -> ast.Node:
        expr = self.parse_assignment()
        while self._eat_punct(","):
            right = self.parse_assignment()
            expr = ast.Binary(op=",", left=expr, right=right)
        return expr

    def parse_assignment(self) -> ast.Node:
        left = self.parse_conditional()
        token = self.current
        if token.type is TokenType.PUNCT and token.value in _ASSIGN_OPS:
            if not isinstance(left, (ast.Identifier, ast.Member)):
                raise JsSyntaxError("invalid assignment target", token.line, token.col)
            self._advance()
            value = self.parse_assignment()
            return ast.Assign(op=str(token.value), target=left, value=value)
        return left

    def parse_conditional(self) -> ast.Node:
        test = self.parse_binary(0)
        if self._eat_punct("?"):
            consequent = self.parse_assignment()
            self._expect_punct(":")
            alternate = self.parse_assignment()
            return ast.Conditional(test=test, consequent=consequent, alternate=alternate)
        return test

    def parse_binary(self, min_bp: int) -> ast.Node:
        left = self.parse_unary()
        while True:
            token = self.current
            op = str(token.value)
            if token.is_keyword("in"):
                op = "in"
            elif token.type is not TokenType.PUNCT:
                break
            bp = _BINARY_BP.get(op)
            if bp is None or bp < min_bp:
                break
            self._advance()
            right = self.parse_binary(bp + 1)
            if op in ("&&", "||"):
                left = ast.Logical(op=op, left=left, right=right)
            else:
                left = ast.Binary(op=op, left=left, right=right)
        return left

    def parse_unary(self) -> ast.Node:
        token = self.current
        if token.type is TokenType.PUNCT and token.value in ("!", "-", "+", "~"):
            self._advance()
            return ast.Unary(op=str(token.value), operand=self.parse_unary())
        if token.is_keyword("typeof"):
            self._advance()
            return ast.Unary(op="typeof", operand=self.parse_unary())
        if token.is_keyword("delete"):
            self._advance()
            operand = self.parse_unary()
            if not isinstance(operand, ast.Member):
                raise JsSyntaxError("delete requires a property reference",
                                    token.line, token.col)
            return ast.Unary(op="delete", operand=operand)
        if token.type is TokenType.PUNCT and token.value in ("++", "--"):
            self._advance()
            target = self.parse_unary()
            if not isinstance(target, (ast.Identifier, ast.Member)):
                raise JsSyntaxError("invalid update target", token.line, token.col)
            return ast.Update(op=str(token.value), target=target, prefix=True)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Node:
        expr = self.parse_call_member()
        token = self.current
        if token.type is TokenType.PUNCT and token.value in ("++", "--"):
            if not isinstance(expr, (ast.Identifier, ast.Member)):
                raise JsSyntaxError("invalid update target", token.line, token.col)
            self._advance()
            return ast.Update(op=str(token.value), target=expr, prefix=False)
        return expr

    def parse_call_member(self) -> ast.Node:
        return self._member_chain(self._parse_member_head(), calls=True)

    def _parse_member_head(self) -> ast.Node:
        """A primary expression, or a ``new`` expression.  ``new`` takes
        the member chain up to its argument list only, so ``new G().a``
        reads ``(new G()).a``; without a list it calls with none."""
        if not self.current.is_keyword("new"):
            return self.parse_primary()
        self._advance()
        callee = self._member_chain(self._parse_member_head(), calls=False)
        args = self._parse_arguments() if self.current.is_punct("(") else ()
        return ast.New(callee=callee, args=args)

    def _member_chain(self, expr: ast.Node, calls: bool) -> ast.Node:
        """``expr`` followed by ``.name`` and ``[index]`` accesses, and by
        argument lists when ``calls`` is set."""
        while True:
            if self._eat_punct("."):
                name = self.current
                if name.type not in (TokenType.IDENT, TokenType.KEYWORD):
                    raise JsSyntaxError("expected property name", name.line, name.col)
                self._advance()
                expr = ast.Member(obj=expr, prop=str(name.value), computed=False)
            elif self.current.is_punct("["):
                self._advance()
                index = self.parse_expression()
                self._expect_punct("]")
                expr = ast.Member(obj=expr, prop=index, computed=True)
            elif calls and self.current.is_punct("("):
                expr = ast.Call(callee=expr, args=self._parse_arguments())
            else:
                return expr

    def _parse_arguments(self) -> tuple[ast.Node, ...]:
        self._expect_punct("(")
        args: list[ast.Node] = []
        while not self.current.is_punct(")"):
            args.append(self.parse_assignment())
            if not self._eat_punct(","):
                break
        self._expect_punct(")")
        return tuple(args)

    def parse_primary(self) -> ast.Node:
        token = self.current
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.NumberLit(value=float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.StringLit(value=str(token.value))
        if token.type is TokenType.IDENT:
            self._advance()
            return ast.Identifier(name=str(token.value))
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolLit(value=True)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolLit(value=False)
        if token.is_keyword("null"):
            self._advance()
            return ast.NullLit()
        if token.is_keyword("undefined"):
            self._advance()
            return ast.UndefinedLit()
        if token.is_keyword("this"):
            self._advance()
            return ast.ThisExpr()
        if token.is_keyword("function"):
            self._advance()
            name: str | None = None
            if self.current.type is TokenType.IDENT:
                name = self._expect_ident()
            params, body = self._parse_function_rest()
            return ast.FunctionExpr(name=name, params=params, body=body)
        if token.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if token.is_punct("["):
            self._advance()
            elements: list[ast.Node] = []
            while not self.current.is_punct("]"):
                elements.append(self.parse_assignment())
                if not self._eat_punct(","):
                    break
            self._expect_punct("]")
            return ast.ArrayLit(elements=tuple(elements))
        if token.is_punct("{"):
            self._advance()
            entries: list[tuple[str, ast.Node]] = []
            while not self.current.is_punct("}"):
                key_token = self.current
                if key_token.type in (TokenType.IDENT, TokenType.KEYWORD, TokenType.STRING):
                    key = str(key_token.value)
                elif key_token.type is TokenType.NUMBER:
                    key = _number_to_key(float(key_token.value))
                else:
                    raise JsSyntaxError("bad object key", key_token.line, key_token.col)
                self._advance()
                self._expect_punct(":")
                entries.append((key, self.parse_assignment()))
                if not self._eat_punct(","):
                    break
            self._expect_punct("}")
            return ast.ObjectLit(entries=tuple(entries))
        raise JsSyntaxError(f"unexpected token {token.value!r}", token.line, token.col)


def _number_to_key(value: float) -> str:
    return str(int(value)) if value == int(value) else str(value)


def parse(source: str) -> ast.Program:
    """Parse ``source`` into a program AST."""
    return Parser(source).parse_program()


def token_count(source: str) -> int:
    """Number of tokens in ``source`` (drives the parse cost model)."""
    return len(tokenize(source)) - 1  # exclude EOF
