"""Each binary primitive means one thing: its delta, its refined types and
phase 2's embedding of an application agree on every small input."""

import pytest

from l2 import constants
from l2.refine import RefEnv, embed_guard, embed_term
from l2.logic import TRUE
from l2.syntax import NUMBER, Const, FunType, PrimType
from l2.target import TApp, TConst
from tests.conftest import eval_pred

BINARY = [c for c in constants.NAMED_CONSTANTS.values()
          if c.is_function and isinstance(c.refined_type.cod, FunType)]
SMALL = range(-3, 4)


def num(k: int) -> TConst:
    return TConst(constants.int_const(k))


def value_of(e) -> int:
    """A numeric or boolean constant as the integer the logic reads it as."""
    k = constants.const_int_value(e)
    return int(constants.const_bool_value(e)) if k is None else k


def test_the_binary_primitives():
    assert sorted(c.name for c in BINARY) == ["add", "eq", "le", "lt", "mul", "ne", "sub"]


@pytest.mark.parametrize("op", BINARY, ids=lambda c: c.name)
def test_delta_types_and_embedding_agree(op):
    outer = op.refined_type
    for k in SMALL:
        partial = constants.delta_apply(op, Const(constants.int_const(k))).con
        assert partial.partial == (op.name, k)
        inner = partial.refined_type
        for m in SMALL:
            value = value_of(constants.delta_apply(partial, Const(constants.int_const(m))))
            # delta satisfies op@k's result refinement, with $b = m ...
            assert eval_pred(inner.cod.refinement, {"v": value, inner.binder: m})
            # ... and the outer type's, with $a = k and $b = m.
            env = {"v": value, outer.binder: k, outer.cod.binder: m}
            assert eval_pred(outer.cod.cod.refinement, env)
            # Phase 2 embeds op k m, and op@k m, as that same value.
            for w in (TApp(TApp(TConst(op), num(k)), num(m)), TApp(TConst(partial), num(m))):
                if inner.cod.base == NUMBER:
                    assert embed_term(w, RefEnv()).const == value
                else:
                    pred, exact = embed_guard(w, RefEnv())
                    assert exact and eval_pred(pred, {}) == bool(value)


@pytest.mark.parametrize("op", constants.BINARY)
def test_domains_are_unrefined(op):
    # Phase 2 types a full application by its meaning and emits no obligation
    # for either operand, which is sound only while neither domain is refined.
    outer = constants.NAMED_CONSTANTS[op].refined_type
    assert outer.dom == PrimType(NUMBER, TRUE)
    assert outer.cod.dom == PrimType(NUMBER, TRUE)
