"""The type printer and the type map against the functions they replaced.

The reference functions below are the former recursive printers of both
notations (``_print_type``, ``print_type``, ``_print_ref``) and the former
arrow naming behind ``elab_type`` (``_name_arrows``), kept unchanged.  The
template printer (``syntax.print_type``, ``refine.print_ref_type``) and the
``map_prims`` rebuild ``refine.elab_type`` must agree with them on random
refined types, their images under the reference ``ftx`` (in ``conftest``),
and on every ascribed type of the generator's programs.
"""

import itertools
import random
from typing import Iterator

import pytest

from l2 import refine, syntax
from l2.harness import gen_program
from l2.infer import _KappaCounter, make_templates
from l2.logic import FALSE, TRUE, pnot, render_pred
from l2.syntax import (
    NUM,
    AndType,
    Ascribe,
    FunType,
    OrType,
    PrimType,
    SrcType,
    subexprs,
)
from tests.conftest import ftx
from tests.test_target import TT, _random_type

# ---------------------------------------------------------------------------
# References: the former recursive type walkers
# ---------------------------------------------------------------------------


def print_type(t: SrcType) -> str:
    return _print_type(t, 0)


def _print_type(t: SrcType, prec: int) -> str:
    match t:
        case PrimType(base, refinement):
            if refinement == TRUE:
                return base
            return f"{{v:{base} | {render_pred(refinement)}}}"
        case FunType(dom, cod):
            s = f"{_print_type(dom, 1)} -> {_print_type(cod, 0)}"
            return f"({s})" if prec > 0 else s
        case OrType(left, right):
            s = f"{_print_type(left, 2)} \\/ {_print_type(right, 2)}"
            return f"({s})" if prec > 1 else s
        case AndType(left, right):
            s = f"{_print_type(left, 3)} /\\ {_print_type(right, 3)}"
            return f"({s})" if prec > 2 else s
    raise TypeError(f"not a source type: {t!r}")


def print_ref_type(t: SrcType) -> str:
    """Each arrow with its binder, a union as a sum (+), an intersection as a
    product (*)."""
    return _print_ref(t, 0)


def _print_ref(t: SrcType, prec: int) -> str:
    match t:
        case PrimType():
            return print_type(t)
        case FunType(dom, cod, binder):
            s = f"({binder}:{_print_ref(dom, 0)}) -> {_print_ref(cod, 0)}"
            return f"({s})" if prec > 0 else s
        case OrType(left, right):
            s = f"{_print_ref(left, 2)} + {_print_ref(right, 2)}"
            return f"({s})" if prec > 1 else s
        case AndType(left, right):
            s = f"{_print_ref(left, 3)} * {_print_ref(right, 3)}"
            return f"({s})" if prec > 2 else s
    raise TypeError(f"not a type: {t!r}")


def elab_type(t: SrcType) -> SrcType:
    """t with a fresh binder on every arrow, ``$d1``, ``$d2``, ... in preorder.

    The names are reserved, so they cannot collide with program variables.
    """
    return _name_arrows(t, itertools.count(1))


def _name_arrows(t: SrcType, counter: Iterator[int]) -> SrcType:
    match t:
        case PrimType():
            return t
        case FunType(dom, cod):
            binder = f"$d{next(counter)}"
            return FunType(_name_arrows(dom, counter), _name_arrows(cod, counter), binder)
        case AndType(left, right) | OrType(left, right):
            return type(t)(_name_arrows(left, counter), _name_arrows(right, counter))
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Agreement
# ---------------------------------------------------------------------------


def assert_agrees(t: SrcType) -> None:
    """Both notations of t, its elaboration, built both ways, and the ftx
    images of that, each printed both ways, are the same."""
    assert syntax.print_type(t) == print_type(t)
    named = refine.elab_type(t)
    assert named == elab_type(t)
    images = [named] + [ftx(named, r) for r in (FALSE, TRUE, TT.refinement, pnot(TT.refinement))]
    for u in images:
        assert syntax.print_type(u) == print_type(u)
        assert refine.print_ref_type(u) == print_ref_type(u)


def test_random_refined_types_agree():
    rng = random.Random(19)
    for _ in range(500):
        assert_agrees(_random_type(rng, 3))


@pytest.mark.parametrize("budget", [30, 60])
def test_generated_ascriptions_agree(budget):
    # every ascribed type and its kappa template, which refines every base type
    for seed in range(400):
        for e in subexprs(gen_program(seed, budget).main):
            if isinstance(e, Ascribe):
                assert_agrees(e.ty)
                assert_agrees(make_templates(e.ty, _KappaCounter()))


def test_deep_arrow_prints_without_recursion():
    # the parser's type grammar recurses, so the type is built directly
    t = NUM
    for i in range(5000):
        t = FunType(NUM, t, f"x{i}")
    assert syntax.print_type(t) == " -> ".join(["number"] * 5001)
    expected = "".join(f"(x{i}:number) -> " for i in reversed(range(5000))) + "number"
    assert refine.print_ref_type(t) == expected
