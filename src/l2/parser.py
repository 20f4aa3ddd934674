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

Tokens are named tuples, scanned a line at a time.  ``expr`` parses a chain
of let bodies, lambda bodies and else branches with a loop, so a chain of any
length parses and only nesting in other positions costs recursion.  Binders
are renamed apart on ingest, and type aliases are expanded eagerly.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from typing import NamedTuple

from . import constants, syntax
from .logic import (
    BVar,
    CMP_OPS,
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

# One token, after the whitespace before it: a line is scanned with its
# trailing whitespace stripped, so every match ends on a token and no match
# backtracks over a run of whitespace.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<comment>--.*)
    | (?P<int>\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<sym>=>|->|/\\|\\/|&&|\|\||<=|>=|!=|[\\(){}:|=<>!+\-*,])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "int" | "name" | "sym" | "eof"
    text: str
    line: int
    col: int


_new_token = tuple.__new__  # builds a Token without its Python-level __new__


def tokenize(text: str) -> list[Token]:
    """The tokens of text, scanned one line at a time: the line number is
    the line's index from 1, and a column counts characters from 1."""
    tokens: list[Token] = []
    append = tokens.append
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(chars.rstrip()):
            kind = m.lastgroup
            if kind == "comment":
                continue
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group(kind)!r}", line, m.start(kind) + 1)
            append(_new_token(Token, (kind, m.group(kind), line, m.start(kind) + 1)))
    append(Token("eof", "", line, len(chars) + 1))
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
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def eat(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect_name(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise self.error(f"expected a name, found {tok.text!r}")
        self.pos += 1
        return tok

    def end(self, result):
        """result, once the input is used up."""
        if self.peek().kind != "eof":
            raise self.error(f"trailing input {self.peek().text!r}")
        return result

    def joined(self, part, sym: str, join):
        """One or more of part separated by sym, joined by join when more."""
        parts = [part()]
        while self.eat(sym):
            parts.append(part())
        return join(parts) if len(parts) > 1 else parts[0]

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        while self.eat("type"):
            name = self.expect_name().text
            self.expect("=")
            t = self.type_()
            if name in self.aliases:
                raise self.error(f"duplicate type alias {name!r}")
            self.aliases[name] = t
        return Program(tuple(self.aliases.items()), syntax.uniquify(self.end(self.expr())))

    # -- types ---------------------------------------------------------------

    def type_(self) -> SrcType:
        left = self.type_or()
        if self.eat("->"):
            return FunType(left, self.type_())
        return left

    def type_or(self) -> SrcType:
        return self.joined(self.type_and, "\\/", partial(reduce, OrType))

    def type_and(self) -> SrcType:
        return self.joined(self.type_atom, "/\\", partial(reduce, AndType))

    def type_atom(self) -> SrcType:
        if self.eat("number"):
            return syntax.NUM
        if self.eat("boolean"):
            return syntax.BOOL
        tok = self.peek()
        if tok.text == "{":
            return self.refinement_type()
        if self.eat("("):
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
        return self.joined(self.pred_and, "||", por)

    def pred_and(self) -> Pred:
        return self.joined(self.pred_not, "&&", pand)

    def pred_not(self) -> Pred:
        if self.eat("!"):
            return pnot(self.pred_not())
        return self.pred_atom()

    def pred_atom(self) -> Pred:
        if self.eat("true"):
            return PBool(True)
        if self.eat("false"):
            return PBool(False)
        if self.peek().text == "(":
            # Parenthesized predicate or parenthesized arithmetic head.
            saved = self.pos
            try:
                self.next()
                p = self.pred()
                self.expect(")")
                if self.peek().text in (*CMP_OPS, "+", "-", "*"):
                    raise self.error("arithmetic context")
                return p
            except ParseError:
                self.pos = saved
        lhs = self.arith()
        op_tok = self.peek()
        if op_tok.text in CMP_OPS:
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
            left = constants.BINARY["mul"](left, self.arith_factor())
            if left is None:
                raise self.error("non-linear product of two variables")
        return left

    def arith_factor(self) -> LinTerm:
        if self.eat("-"):
            return self.arith_factor().scale(-1)
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return LinTerm.of_const(int(tok.text))
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.next()
            return LinTerm.of_var(tok.text)
        if self.eat("("):
            t = self.arith()
            self.expect(")")
            return t
        raise self.error(f"expected an arithmetic term, found {tok.text!r}")

    # -- expressions -----------------------------------------------------------

    def expr(self) -> SrcExpr:
        """A let body, a lambda body and an else branch are parsed by this
        loop, not by recursion: the binders and conditionals before the
        innermost application are kept on ``spine`` and folded around it
        from the inside out."""
        tokens = self.tokens
        spine: list[tuple] = []  # (class, the fields before the body, pos)
        while True:
            tok = tokens[self.pos]
            if tok.text == "let":
                self.pos += 1
                name = self.expect_name().text
                self.expect("=")
                bound = self.expr()
                self.expect("in")
                spine.append((Let, (name, bound), (tok.line, tok.col)))
            elif tok.text == "if":
                self.pos += 1
                cond = self.expr()
                self.expect("then")
                then = self.expr()
                self.expect("else")
                spine.append((If, (cond, then), (tok.line, tok.col)))
            elif tok.text == "\\":
                self.pos += 1
                param = self.expect_name().text
                self.expect("=>")
                spine.append((Lam, (param,), (tok.line, tok.col)))
            else:
                break
        e = self.app()
        for cls, fields, pos in reversed(spine):
            e = cls(*fields, e, pos=pos)
        return e

    def app(self) -> SrcExpr:
        head = self.atom()
        if head is None:
            raise self.error(f"expected an expression, found {self.peek().text!r}")
        while True:
            tok = self.tokens[self.pos]
            if tok.text == "\\":
                raise self.error("a lambda argument must be parenthesized")
            arg = self.atom()
            if arg is None:
                return head
            head = App(head, arg, (tok.line, tok.col))

    def atom(self) -> SrcExpr | None:
        """The atom that starts here, or None when none does."""
        tok = self.tokens[self.pos]
        kind, text, pos = tok.kind, tok.text, (tok.line, tok.col)
        if kind == "int":
            self.pos += 1
            return Const(constants.int_const(int(text)), pos)
        if kind == "name" and text not in KEYWORDS:
            self.pos += 1
            con = constants.NAMED_CONSTANTS.get(text)
            return Var(text, pos) if con is None else Const(con, pos)
        if text == "-" and self.tokens[self.pos + 1].kind == "int":
            self.pos += 2
            return Const(constants.int_const(-int(self.tokens[self.pos - 1].text)), pos)
        if text in ("true", "false"):
            self.pos += 1
            return Const(constants.bool_const(text == "true"), pos)
        if self.eat("("):
            e = self.expr()
            if self.eat(":"):
                t = self.type_()
                self.expect(")")
                return Ascribe(e, t, pos)
            self.expect(")")
            return e
        return None


def parse_program(text: str) -> Program:
    return _Parser(tokenize(text)).program()


def parse_expr(text: str) -> SrcExpr:
    return syntax.uniquify(_parse_all(text, _Parser.expr))


def parse_type(text: str, aliases: dict[str, SrcType] | None = None) -> SrcType:
    return _parse_all(text, _Parser.type_, aliases)


def parse_pred(text: str) -> Pred:
    return _parse_all(text, _Parser.pred)


def _parse_all(text: str, rule, aliases: dict[str, SrcType] | None = None):
    """rule's parse of the whole of text."""
    parser = _Parser(tokenize(text))
    parser.aliases = dict(aliases or {})
    return parser.end(rule(parser))
