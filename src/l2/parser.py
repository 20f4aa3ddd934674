"""Concrete syntax for .l2 files.

Grammar sketch:

    program  := ("type" NAME "=" type)* expr
    type     := tor ("->" type)?                 arrow is loosest, right assoc
    tor      := tand ("\\/" tand)*
    tand     := tatom ("/\\" tatom)*
    tatom    := "number" | "boolean" | NAME | "{" "v" ":" base "|" pred "}" | "(" type ")"
    expr     := "let" NAME "=" expr "in" expr
              | "if" expr "then" expr "else" expr
              | "\\" NAME "=>" expr
              | app
    app      := atom atom*
    atom     := INT | "-" INT | "true" | "false" | NAME
              | "(" expr (":" type)? ")"
    pred     := pimp;  "=>" right assoc over "||" over "&&" over "!"
    patom    := "true" | "false" | arith (CMP arith)? | "(" pred ")"
    arith    := term (("+"|"-") term)*;  term := factor ("*" factor)*

Binders are renamed apart on ingest, and type aliases are expanded eagerly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import constants, syntax
from .logic import (
    BVar,
    LinTerm,
    PAtom,
    PBool,
    Pred,
    cmp_pred,
    pand,
    pimp,
    pnot,
    por,
)
from .syntax import (
    AndType,
    App,
    Ascribe,
    BOOLEAN,
    Const,
    FunType,
    If,
    Lam,
    Let,
    NUMBER,
    OrType,
    PrimType,
    Program,
    SrcExpr,
    SrcType,
    Var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnboundAlias(ParseError):
    pass


KEYWORDS = {"let", "in", "if", "then", "else", "type", "true", "false", "number", "boolean"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>=>|->|/\\|\\/|&&|\|\||<=|>=|!=|[\\(){}:|=<>!+\-*,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "int" | "name" | "sym" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        i = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.aliases: dict[str, SrcType] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise self.error(f"expected a name, found {tok.text!r}")
        return self.next()

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        aliases: list[tuple[str, SrcType]] = []
        while self.at("type"):
            self.next()
            name = self.expect_name().text
            self.expect("=")
            t = self.type_()
            if name in self.aliases:
                raise self.error(f"duplicate type alias {name!r}")
            self.aliases[name] = t
            aliases.append((name, t))
        main = self.expr()
        if self.peek().kind != "eof":
            raise self.error(f"trailing input {self.peek().text!r}")
        return Program(tuple(aliases), syntax.uniquify(main))

    # -- types ---------------------------------------------------------------

    def type_(self) -> SrcType:
        left = self.type_or()
        if self.eat("->"):
            return FunType(left, self.type_())
        return left

    def type_or(self) -> SrcType:
        left = self.type_and()
        while self.eat("\\/"):
            left = OrType(left, self.type_and())
        return left

    def type_and(self) -> SrcType:
        left = self.type_atom()
        while self.eat("/\\"):
            left = AndType(left, self.type_atom())
        return left

    def type_atom(self) -> SrcType:
        tok = self.peek()
        if tok.text == "number":
            self.next()
            return syntax.NUM
        if tok.text == "boolean":
            self.next()
            return syntax.BOOL
        if tok.text == "{":
            return self.refinement_type()
        if tok.text == "(":
            self.next()
            t = self.type_()
            self.expect(")")
            return t
        if tok.kind == "name":
            self.next()
            if tok.text not in self.aliases:
                raise UnboundAlias(f"unknown type alias {tok.text!r}", tok.line, tok.col)
            return self.aliases[tok.text]
        raise self.error(f"expected a type, found {tok.text!r}")

    def refinement_type(self) -> SrcType:
        self.expect("{")
        v = self.expect_name()
        if v.text != "v":
            raise ParseError("refinement binder must be 'v'", v.line, v.col)
        self.expect(":")
        base_tok = self.next()
        if base_tok.text not in (NUMBER, BOOLEAN):
            raise ParseError(f"expected number or boolean, found {base_tok.text!r}",
                             base_tok.line, base_tok.col)
        self.expect("|")
        p = self.pred()
        self.expect("}")
        return PrimType(base_tok.text, p)

    # -- predicates ----------------------------------------------------------

    def pred(self) -> Pred:
        left = self.pred_or()
        if self.eat("=>"):
            return pimp(left, self.pred())
        return left

    def pred_or(self) -> Pred:
        parts = [self.pred_and()]
        while self.eat("||"):
            parts.append(self.pred_and())
        return por(parts) if len(parts) > 1 else parts[0]

    def pred_and(self) -> Pred:
        parts = [self.pred_not()]
        while self.eat("&&"):
            parts.append(self.pred_not())
        return pand(parts) if len(parts) > 1 else parts[0]

    def pred_not(self) -> Pred:
        if self.eat("!"):
            return pnot(self.pred_not())
        return self.pred_atom()

    def pred_atom(self) -> Pred:
        tok = self.peek()
        if tok.text == "true":
            self.next()
            return PBool(True)
        if tok.text == "false":
            self.next()
            return PBool(False)
        if tok.text == "(":
            # Parenthesized predicate or parenthesized arithmetic head.
            saved = self.pos
            try:
                self.next()
                p = self.pred()
                self.expect(")")
                if self.peek().text in ("<", "<=", "=", "!=", ">=", ">", "+", "-", "*"):
                    raise self.error("arithmetic context")
                return p
            except ParseError:
                self.pos = saved
        lhs = self.arith()
        op_tok = self.peek()
        if op_tok.text in ("<", "<=", "=", "!=", ">=", ">"):
            self.next()
            rhs = self.arith()
            return cmp_pred(lhs, op_tok.text, rhs)
        # A bare term must be a boolean variable.
        if len(lhs.coeffs) == 1 and lhs.const == 0 and lhs.coeffs[0][1] == 1:
            return PAtom(BVar(lhs.coeffs[0][0]))
        raise self.error("expected a comparison or boolean variable")

    def arith(self) -> LinTerm:
        left = self.arith_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            right = self.arith_term()
            left = left + right if op == "+" else left - right
        return left

    def arith_term(self) -> LinTerm:
        left = self.arith_factor()
        while self.eat("*"):
            right = self.arith_factor()
            if left.is_const():
                left = right.scale(left.const)
            elif right.is_const():
                left = left.scale(right.const)
            else:
                raise self.error("non-linear product of two variables")
        return left

    def arith_factor(self) -> LinTerm:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            return self.arith_factor().scale(-1)
        if tok.kind == "int":
            self.next()
            return LinTerm.of_const(int(tok.text))
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.next()
            return LinTerm.of_var(tok.text)
        if tok.text == "(":
            self.next()
            t = self.arith()
            self.expect(")")
            return t
        raise self.error(f"expected an arithmetic term, found {tok.text!r}")

    # -- expressions -----------------------------------------------------------

    def expr(self) -> SrcExpr:
        tok = self.peek()
        if tok.text == "let":
            self.next()
            name = self.expect_name().text
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            body = self.expr()
            return Let(name, bound, body, (tok.line, tok.col))
        if tok.text == "if":
            self.next()
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            els = self.expr()
            return If(cond, then, els, (tok.line, tok.col))
        if tok.text == "\\":
            self.next()
            param = self.expect_name().text
            self.expect("=>")
            body = self.expr()
            return Lam(param, body, (tok.line, tok.col))
        return self.app()

    def app(self) -> SrcExpr:
        head = self.atom()
        while True:
            tok = self.peek()
            if tok.kind in ("int", "name") and tok.text not in KEYWORDS or tok.text in ("(", "\\"):
                if tok.text == "\\":
                    raise self.error("a lambda argument must be parenthesized")
                head = App(head, self.atom(), (tok.line, tok.col))
            elif tok.text in ("true", "false"):
                head = App(head, self.atom(), (tok.line, tok.col))
            elif tok.text == "-" and self.tokens[self.pos + 1].kind == "int":
                head = App(head, self.atom(), (tok.line, tok.col))
            else:
                return head

    def atom(self) -> SrcExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Const(constants.int_const(int(tok.text)), (tok.line, tok.col))
        if tok.text == "-" and self.tokens[self.pos + 1].kind == "int":
            self.next()
            num = self.next()
            return Const(constants.int_const(-int(num.text)), (tok.line, tok.col))
        if tok.text in ("true", "false"):
            self.next()
            return Const(constants.bool_const(tok.text == "true"), (tok.line, tok.col))
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.next()
            con = constants.NAMED_CONSTANTS.get(tok.text)
            if con is not None:
                return Const(con, (tok.line, tok.col))
            return Var(tok.text, (tok.line, tok.col))
        if tok.text == "(":
            self.next()
            e = self.expr()
            if self.eat(":"):
                t = self.type_()
                self.expect(")")
                return Ascribe(e, t, (tok.line, tok.col))
            self.expect(")")
            return e
        raise self.error(f"expected an expression, found {tok.text!r}")


def parse_program(text: str) -> Program:
    return _Parser(tokenize(text)).program()


def parse_expr(text: str) -> SrcExpr:
    parser = _Parser(tokenize(text))
    e = parser.expr()
    if parser.peek().kind != "eof":
        raise parser.error(f"trailing input {parser.peek().text!r}")
    return syntax.uniquify(e)


def parse_type(text: str, aliases: dict[str, SrcType] | None = None) -> SrcType:
    parser = _Parser(tokenize(text))
    parser.aliases = dict(aliases or {})
    t = parser.type_()
    if parser.peek().kind != "eof":
        raise parser.error(f"trailing input {parser.peek().text!r}")
    return t


def parse_pred(text: str) -> Pred:
    parser = _Parser(tokenize(text))
    p = parser.pred()
    if parser.peek().kind != "eof":
        raise parser.error(f"trailing input {parser.peek().text!r}")
    return p
