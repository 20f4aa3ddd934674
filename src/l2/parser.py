"""Concrete syntax for .l2 files.

Grammar sketch:

    program  := ("type" NAME "=" type)* expr
    type     := tatom joined by "->" (right assoc), then "\\/", then "/\\"
    tatom    := "number" | "boolean" | NAME | "{" "v" ":" base "|" pred "}" | "(" type ")"
    expr     := "let" NAME "=" expr "in" expr
              | "if" expr "then" expr "else" expr
              | "\\" NAME "=>" expr
              | app
    app      := atom atom*
    atom     := INT | "-" INT | "true" | "false" | NAME
              | "(" expr (":" type)? ")"
    pred     := pnot joined by "=>" (right assoc), then "<=>", then "||", then "&&"
    pnot     := "!" pnot | "true" | "false" | arith (CMP arith)? | "(" pred ")"
              | NAME "[" (arith "/" NAME ("," arith "/" NAME)*)? "]"
    arith    := factor joined by "+" or "-", then "*"
    factor   := "-" factor | INT | NAME | "(" arith ")"

Tokens are named tuples, scanned a line at a time; a formula's names may be
phase 2's reserved ones (``$g1``), and a formula may apply a kappa
(``k1[flag/v]``, ``k2[]``), so that printed obligations and Horn clauses read
back; a program can write neither.
``expr`` parses a chain of let bodies, lambda bodies and else branches with
a loop, and ``binary`` a chain of binary operators, so a chain of any length
parses and only nesting in other positions costs recursion.  Binders are
renamed apart on ingest, and the names ascribed refinements mention with
them; type aliases are expanded eagerly.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import constants, syntax
from .logic import (
    BVar,
    CMP_OPS,
    LinTerm,
    PAtom,
    PBool,
    PKappa,
    Pred,
    cmp_pred,
    pand,
    piff,
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
        self.message = message
        self.line = line
        self.col = col


class UnboundAlias(ParseError):
    pass


KEYWORDS = {"let", "in", "if", "then", "else", "type", "true", "false", "number", "boolean"}

# One token, after the whitespace before it: a line is scanned with its
# trailing whitespace stripped, so every match ends on a token and no match
# backtracks over a run of whitespace.
_TOKEN = r"""
    \s*(?:
      (?P<comment>--.*)
    | (?P<int>\d+)
    | (?P<name>NAME)
    | (?P<sym><=>|=>|->|/\\|\\/|&&|\|\||<=|>=|!=|[\\(){}:|=<>!+\-*,EXTRA])
    | (?P<bad>\S)
    )
    """
_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_TOKEN_RE = re.compile(_TOKEN.replace("NAME", _NAME).replace("EXTRA", ""), re.VERBOSE)
# A formula's names may also be phase 2's reserved ones, which start with $,
# and its kappa applications bring [, / and ].
_FORMULA_TOKEN_RE = re.compile(
    _TOKEN.replace("NAME", r"\$?" + _NAME).replace("EXTRA", r"\[\]/"), re.VERBOSE)


class Token(NamedTuple):
    kind: str  # "int" | "name" | "sym" | "eof"
    text: str
    line: int
    col: int


_new_token = tuple.__new__  # builds a Token without its Python-level __new__


def tokenize(text: str, token_re: re.Pattern = _TOKEN_RE) -> list[Token]:
    """The tokens of text, scanned one line at a time: the line number is
    the line's index from 1, and a column counts characters from 1."""
    tokens: list[Token] = []
    append = tokens.append
    for line, chars in enumerate(text.split("\n"), 1):
        for m in token_re.finditer(chars.rstrip()):
            kind = m.lastgroup
            if kind == "comment":
                continue
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group(kind)!r}", line, m.start(kind) + 1)
            append(_new_token(Token, (kind, m.group(kind), line, m.start(kind) + 1)))
    append(Token("eof", "", line, len(chars) + 1))
    return tokens


# Binary operators, one tuple of levels per grammar, loosest first.  A level
# maps each of its tokens to the join of two operands and says how it groups:
# to the left, to the right, or, for an associative connective, as a whole
# run, whose join takes every operand at once.  Only ``*`` can fail to join:
# it gives None for a product of two variables.
TYPE_LEVELS = (({"->": FunType}, "right"), ({"\\/": OrType}, "left"), ({"/\\": AndType}, "left"))
PRED_LEVELS = (({"=>": pimp}, "right"), ({"<=>": piff}, "left"), ({"||": por}, "run"),
               ({"&&": pand}, "run"))
ARITH_LEVELS = (({"+": LinTerm.__add__, "-": LinTerm.__sub__}, "left"),
                ({"*": constants.BINARY["mul"]}, "left"))


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

    def binary(self, levels: tuple, atom, i: int = 0):
        """atoms joined by the operators of levels[i:], one loop per level: a
        left-grouping join is made as each right operand is read, a
        right-grouping chain is joined from the right once it ends, and a run
        once, all its operands together."""
        if i == len(levels):
            return atom()
        joins, group = levels[i]
        left = self.binary(levels, atom, i + 1)
        pending = []  # (left operand, join) of a right-grouping chain or a run, in order
        while (join := joins.get(self.tokens[self.pos].text)) is not None:
            self.pos += 1
            operand = self.binary(levels, atom, i + 1)
            if group != "left":
                pending.append((left, join))
                left = operand
            elif (left := join(left, operand)) is None:
                raise self.error("non-linear product of two variables")
        if pending and group == "run":
            return pending[0][1]([operand for operand, _ in pending] + [left])
        for operand, join in reversed(pending):
            left = join(operand, left)
        return left

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        while self.eat("type"):
            name = self.expect_name()
            if name.text in self.aliases:  # reported at the name, before its type is read
                raise ParseError(f"duplicate type alias {name.text!r}", name.line, name.col)
            self.expect("=")
            self.aliases[name.text] = self.type_()
        return Program(tuple(self.aliases.items()), syntax.uniquify(self.end(self.expr())))

    # -- types ---------------------------------------------------------------

    def type_(self) -> SrcType:
        return self.binary(TYPE_LEVELS, self.type_atom)

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
        return self.binary(PRED_LEVELS, self.pred_not)

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
        if self.peek().kind == "name" and self.tokens[self.pos + 1].text == "[":
            return self.kappa()
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

    def kappa(self) -> PKappa:
        """A kappa application, ``k[term/name, ...]``; only a formula's
        tokens include the brackets."""
        kappa = self.next().text
        self.expect("[")
        subst = []
        while not self.eat("]"):
            if subst:
                self.expect(",")
            term = self.arith()
            self.expect("/")
            subst.append((self.expect_name().text, term))
        return PKappa(kappa, tuple(subst))

    def arith(self) -> LinTerm:
        return self.binary(ARITH_LEVELS, self.arith_factor)

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


def parse_type(text: str) -> SrcType:
    return _parse_all(text, _Parser.type_)


def parse_pred(text: str) -> Pred:
    return _parse_all(text, _Parser.pred, token_re=_FORMULA_TOKEN_RE)


def _parse_all(text: str, rule, token_re: re.Pattern = _TOKEN_RE):
    """rule's parse of the whole of text."""
    parser = _Parser(tokenize(text, token_re))
    return parser.end(rule(parser))
