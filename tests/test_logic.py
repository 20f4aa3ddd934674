import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from l2 import logic
from l2.logic import (
    BVar,
    Cmp,
    LinTerm,
    PAnd,
    PAtom,
    PBool,
    PIff,
    PImp,
    PKappa,
    PNot,
    POr,
    ResourceLimit,
    TRUE,
    VC,
    cmp_pred,
    dnf_cubes,
    fm_unsat,
    instantiate_kappas,
    is_tautology,
    pand,
    pimp,
    pnot,
    por,
    pred_key,
    pred_leaves,
    render_pred,
    subst_pred,
    to_smtlib,
    valid,
)
from tests.conftest import eval_pred

x = LinTerm.of_var("x")
y = LinTerm.of_var("y")
z = LinTerm.of_var("z")
nu = LinTerm.of_var("v")


def const(k):
    return LinTerm.of_const(k)


class TestLinTerm:
    def test_arith(self):
        t = x + y.scale(2) - const(3)
        assert t.coeffs == (("x", 1), ("y", 2))
        assert t.const == -3

    def test_cancellation(self):
        assert (x - x).coeffs == ()

    def test_subst(self):
        t = x.scale(2) + y
        assert t.subst_var("x", y + const(1)) == y.scale(3) + const(2)

    def test_render(self):
        assert (x.scale(2) - y + const(5)).render() == "2*x - y + 5"
        assert const(-7).render() == "-7"


class TestFmUnsat:
    def test_empty_interval(self):
        assert fm_unsat([(Cmp(x, ">=", const(1)), True), (Cmp(x, "<=", const(0)), True)])

    def test_complementary(self):
        assert fm_unsat([(Cmp(x, "!=", const(0)), True), (Cmp(x, "=", const(0)), True)])

    def test_satisfiable(self):
        assert not fm_unsat([(Cmp(x, ">=", const(1)), True), (Cmp(x, "<=", const(5)), True)])

    def test_bool_conflict(self):
        assert fm_unsat([(BVar("b"), True), (BVar("b"), False)])

    def test_boolean_is_one_or_zero(self):
        b, c = LinTerm.of_var("b"), LinTerm.of_var("c")
        assert fm_unsat([(BVar("b"), True), (BVar("c"), False), (Cmp(b, "=", c), True)])
        assert fm_unsat([(BVar("b"), True), (Cmp(b, "=", const(0)), True)])
        assert not fm_unsat([(BVar("b"), False), (Cmp(b, "=", c), True)])

    def test_mixed_sorts_against_enumeration(self):
        # fm_unsat may refute a cube of boolean literals and comparisons over
        # shared names only when no assignment of booleans in {0, 1} and
        # integers in [-3, 3] satisfies it
        rng = random.Random(11)
        bools, ints = ("b", "c"), ("x", "y")
        names = bools + ints

        def term():
            picked = sorted(rng.sample(names, rng.randint(1, 2)))
            return LinTerm(tuple((n, rng.choice((-2, -1, 1, 2))) for n in picked), rng.randint(-2, 2))

        def literal():
            if rng.random() < 0.4:
                return BVar(rng.choice(bools)), rng.random() < 0.5
            rhs = LinTerm.of_var(rng.choice(names)) if rng.random() < 0.5 else const(rng.randint(-2, 2))
            return Cmp(term(), rng.choice(["<", "<=", "=", "!=", ">=", ">"]), rhs), True

        envs = [
            dict(zip(names, combo))
            for combo in itertools.product((0, 1), (0, 1), range(-3, 4), range(-3, 4))
        ]
        refuted = 0
        for _ in range(400):
            lits = [literal() for _ in range(rng.randint(1, 4))]
            if fm_unsat(lits):
                refuted += 1
                for env in envs:
                    assert not all(eval_pred(PAtom(a), env) == pos for a, pos in lits), (lits, env)
        assert refuted > 40

    def test_constant_literals_are_components_alone(self):
        free = [(Cmp(x, "!=", const(0)), True), (Cmp(y, ">=", x), True)]
        assert fm_unsat(free + [(Cmp(const(1), "<", const(0)), True)])
        assert fm_unsat(free + [(Cmp(x - x, "!=", const(0)), True)])
        assert not fm_unsat(free + [(Cmp(const(1), "!=", const(0)), True)])
        assert not fm_unsat(free + [(Cmp(const(0), "<=", const(0)), True)])

    def test_integer_tightening(self):
        # 0 < x < 1 has rational solutions but no integer ones
        assert fm_unsat([(Cmp(const(0), "<", x), True), (Cmp(x, "<", const(1)), True)])

    def test_three_variable_chain(self):
        lits = [
            (Cmp(x, "<", y), True),
            (Cmp(y, "<", z), True),
            (Cmp(z, "<", x), True),
        ]
        assert fm_unsat(lits)

    def test_random_systems_against_enumeration(self):
        # fm_unsat may only claim unsat when brute force finds no model
        rng = random.Random(7)
        names = ["x", "y", "z"]
        for _ in range(300):
            lits = []
            for _ in range(rng.randint(1, 4)):
                lhs = LinTerm(
                    tuple(
                        (n, c)
                        for n, c in zip(names, (rng.randint(-2, 2) for _ in names))
                        if c != 0
                    ),
                    rng.randint(-4, 4),
                )
                op = rng.choice(["<", "<=", "=", "!=", ">=", ">"])
                lits.append((Cmp(lhs, op, const(rng.randint(-3, 3))), True))
            if not fm_unsat(lits):
                continue
            for combo in itertools.product(range(-8, 9), repeat=3):
                env = dict(zip(names, combo))
                assert not all(eval_pred(PAtom(a), env) for a, _ in lits), (lits, combo)


def _eager_fm_unsat(literals) -> bool:
    """Reference decision procedure for comparison literals: split every
    disequality down to the leaves, then run Fourier-Motzkin on each leaf's
    rows as given."""
    rows, neqs = [], []
    for atom, positive in literals:
        c = atom if positive else atom.flip()
        t = c.lhs - c.rhs
        match c.op:
            case "<":
                rows.append(t + const(1))
            case "<=":
                rows.append(t)
            case ">":
                rows.append(t.scale(-1) + const(1))
            case ">=":
                rows.append(t.scale(-1))
            case "=":
                rows.append(t)
                rows.append(t.scale(-1))
            case "!=":
                neqs.append(t)
    return _eager_split_neqs(rows, neqs)


def _eager_split_neqs(rows, neqs) -> bool:
    if not neqs:
        return _eager_fm_rows_unsat(rows)
    t, rest = neqs[0], neqs[1:]
    low = rows + [t + const(1)]
    high = rows + [t.scale(-1) + const(1)]
    return _eager_split_neqs(low, rest) and _eager_split_neqs(high, rest)


def _eager_fm_rows_unsat(rows) -> bool:
    rows = list(rows)
    while True:
        pending, names = [], set()
        for r in rows:
            if r.is_const():
                if r.const > 0:
                    return True
            else:
                pending.append(r)
                names.update(r.names())
        if not pending:
            return False
        best, best_cost = None, None
        for n in sorted(names):
            pos = sum(1 for r in pending if dict(r.coeffs).get(n, 0) > 0)
            neg = sum(1 for r in pending if dict(r.coeffs).get(n, 0) < 0)
            if best_cost is None or pos * neg < best_cost:
                best, best_cost = n, pos * neg
        pos = [r for r in pending if dict(r.coeffs).get(best, 0) > 0]
        neg = [r for r in pending if dict(r.coeffs).get(best, 0) < 0]
        rest = [r for r in pending if dict(r.coeffs).get(best, 0) == 0]
        if not pos or not neg:
            rows = rest
            continue
        rows = list(rest)
        for rp, rn in itertools.product(pos, neg):
            a, b = dict(rp.coeffs)[best], -dict(rn.coeffs)[best]
            rows.append(rp.scale(b) + rn.scale(a))


class TestFmAgainstEagerReference:
    def test_random_row_sets_agree(self):
        # 1-7 rows and 0-3 disequalities over at most 4 variables.  Each
        # literal mentions 1-3 of them: dense rows make the reference's
        # elimination blow up to seconds per set.
        rng = random.Random(11)
        names = ["w", "x", "y", "z"]
        unsat = 0
        for _ in range(1500):
            lits = []
            for op_pool, count in (
                (["<", "<=", "=", ">=", ">"], rng.randint(1, 7)),
                (["!="], rng.randint(0, 3)),
            ):
                for _ in range(count):
                    used = sorted(rng.sample(names, rng.randint(1, 3)))
                    lhs = LinTerm(
                        tuple((n, rng.choice([-2, -1, 1, 2])) for n in used), rng.randint(-4, 4)
                    )
                    lits.append((Cmp(lhs, rng.choice(op_pool), const(rng.randint(-3, 3))), True))
            rng.shuffle(lits)
            expected = _eager_fm_unsat(lits)
            assert fm_unsat(lits) == expected, lits
            unsat += expected
        assert 100 < unsat < 1400  # both answers are exercised

    def test_random_component_sets_agree(self):
        # Each literal mentions one of two disjoint variable pools, so most
        # sets split into several components; one memo serves every set, as
        # in one Houdini solve.
        rng = random.Random(12)
        pools = (["w", "x"], ["y", "z"])
        memo: dict = {}
        unsat = split = 0
        for _ in range(1500):
            lits = []
            for op_pool, count in (
                (["<", "<=", "=", ">=", ">"], rng.randint(1, 7)),
                (["!="], rng.randint(0, 4)),
            ):
                for _ in range(count):
                    pool = rng.choice(pools)
                    used = sorted(rng.sample(pool, rng.randint(1, 2)))
                    lhs = LinTerm(
                        tuple((n, rng.choice([-2, -1, 1, 2])) for n in used), rng.randint(-4, 4)
                    )
                    lits.append((Cmp(lhs, rng.choice(op_pool), const(rng.randint(-3, 3))), True))
            rng.shuffle(lits)
            named = [(lit, logic._literal_rows(lit[0])[2]) for lit in lits]
            split += len(logic._components(named)) > 1
            expected = _eager_fm_unsat(lits)
            assert fm_unsat(lits) == expected, lits
            assert fm_unsat(frozenset(lits), memo) == expected, lits
            unsat += expected
        assert 100 < unsat < 1400 and split > 700

    def test_contradictory_bounds_refuted_before_splitting(self, monkeypatch):
        calls = []
        rows_unsat = logic._fm_rows_unsat

        def counting(rows):
            calls.append(len(rows))
            return rows_unsat(rows)

        monkeypatch.setattr(logic, "_fm_rows_unsat", counting)
        lits = [(Cmp(x, ">=", const(1)), True), (Cmp(x, "<=", const(0)), True)]
        lits += [(Cmp(y, "!=", const(i)), True) for i in range(12)]
        assert fm_unsat(lits)
        assert calls == [2]

    def test_independent_component_refuted_without_splitting_the_other(self, monkeypatch):
        # x's twelve disequalities come first; splitting them with y's
        # system takes thousands of eliminations, y's system alone five
        calls = []
        rows_unsat = logic._fm_rows_unsat

        def counting(rows):
            calls.append(len(rows))
            return rows_unsat(rows)

        monkeypatch.setattr(logic, "_fm_rows_unsat", counting)
        lits = [(Cmp(x, "!=", const(i)), True) for i in range(12)]
        lits += [(Cmp(y, ">=", const(0)), True), (Cmp(y, "<=", const(1)), True)]
        lits += [(Cmp(y, "!=", const(0)), True), (Cmp(y, "!=", const(1)), True)]
        assert _eager_fm_unsat(lits[12:])
        assert fm_unsat(lits)
        assert len(calls) <= 10


def _vc(hyps, p, q):
    return VC(tuple(hyps), p, q, "test")


class TestValid:
    def test_inconsistent_hypotheses(self):
        # guard refinements contradict, so the dead obligation holds
        vc = _vc(
            [cmp_pred(LinTerm.of_var("flag"), "!=", const(0)), TRUE,
             cmp_pred(LinTerm.of_var("flag"), "=", const(0))],
            cmp_pred(nu, "=", x),
            PBool(False),
        )
        assert valid(vc).is_valid

    def test_nonzero_literal(self):
        vc = _vc([TRUE], cmp_pred(nu, "=", const(1)), cmp_pred(nu, "!=", const(0)))
        assert valid(vc).is_valid

    def test_rejecting_vc(self):
        vc = _vc([TRUE], cmp_pred(nu, "=", const(0)), cmp_pred(nu, "!=", const(0)))
        verdict = valid(vc)
        assert not verdict.is_valid
        assert verdict.model is not None and verdict.model.get("v") == 0

    def test_counter_model_built_on_first_read(self, monkeypatch):
        calls = []
        cube_model = logic._cube_model

        def counting(cube):
            calls.append(cube)
            return cube_model(cube)

        monkeypatch.setattr(logic, "_cube_model", counting)
        vc = _vc([TRUE], cmp_pred(nu, "=", const(0)), cmp_pred(nu, "!=", const(0)))
        verdict = valid(vc)
        assert verdict.kind == "invalid" and calls == []
        assert verdict.render() == "invalid (cube: v = 0) model {'v': 0}"
        assert verdict.model == {"v": 0} and len(calls) == 1

    def test_double_negation_invariance(self):
        vc = _vc([cmp_pred(x, ">=", const(0))], cmp_pred(nu, "=", x), cmp_pred(nu, ">=", const(0)))
        doubled = VC(vc.hyps, pnot(pnot(vc.antecedent)), pnot(pnot(vc.consequent)), "t")
        assert valid(vc).kind == valid(doubled).kind == "valid"

    def test_boolean_structure(self):
        p = por([cmp_pred(x, "=", const(1)), cmp_pred(x, "=", const(2))])
        q = cmp_pred(x, ">=", const(1))
        assert valid(_vc([], p, q)).is_valid
        assert not valid(_vc([], q, p)).is_valid

    def test_iff_expansion(self):
        from l2.logic import piff

        b = PAtom(BVar("b"))
        vc = _vc([piff(b, cmp_pred(x, "=", const(0))), b], TRUE, cmp_pred(x, "=", const(0)))
        assert valid(vc).is_valid

    def test_kappa_rejected(self):
        with pytest.raises(ValueError):
            valid(_vc([], PKappa("k1"), PBool(False)))

    def test_clause_budget(self):
        parts = [por([cmp_pred(x, "=", const(i)), cmp_pred(y, "=", const(i))]) for i in range(20)]
        vc = _vc(parts, TRUE, PBool(False))
        with pytest.raises(ResourceLimit):
            valid(vc, clause_budget=16)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_valid_never_has_small_counterexample(self, a, b, c, d):
        hyp = cmp_pred(x.scale(a) + y.scale(b), "<=", const(c))
        con = cmp_pred(x.scale(a) + y.scale(b), "<=", const(c + max(d, 0)))
        vc = _vc([hyp], TRUE, con)
        if valid(vc).is_valid:
            for vx in range(-8, 9):
                for vy in range(-8, 9):
                    env = {"x": vx, "y": vy}
                    assert not (eval_pred(hyp, env) and not eval_pred(con, env))


def _product_dnf_kind(vc) -> str:
    """The verdict kind of one DNF over the whole negated VC, cube by cube."""
    cubes = dnf_cubes(vc.negated(), budget=10**6)
    return "valid" if all(fm_unsat(cube) for cube in cubes) else "invalid"


_INT_NAMES = ("x", "y", "z")


@st.composite
def _atoms(draw):
    if draw(st.integers(0, 4)) == 0:
        return PAtom(BVar(draw(st.sampled_from(["a", "b"]))))
    used = draw(st.lists(st.sampled_from(_INT_NAMES), min_size=1, max_size=2, unique=True))
    lhs = LinTerm(tuple((n, draw(st.sampled_from([-2, -1, 1, 2]))) for n in sorted(used)),
                  draw(st.integers(-2, 2)))
    return cmp_pred(lhs, draw(st.sampled_from(logic.CMP_OPS)), const(draw(st.integers(-2, 2))))


_preds = st.recursive(
    _atoms(),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(pand),
        st.lists(kids, min_size=2, max_size=3).map(por),
        kids.map(pnot),
        st.tuples(kids, kids).map(lambda pq: pimp(*pq)),
        st.tuples(kids, kids).map(lambda pq: logic.piff(*pq)),
    ),
    max_leaves=4,
)


class TestComponentDischarge:
    def test_independent_disjunctions_past_the_budget(self):
        # 2^14 cubes in one product DNF, over the default budget of 10,000,
        # but fourteen components of two cubes each
        names = [LinTerm.of_var(f"x{i}") for i in range(14)]
        hyps = [por([cmp_pred(n, "=", const(0)), cmp_pred(n, "=", const(1))]) for n in names]
        vc = _vc(hyps, TRUE, cmp_pred(names[0], ">=", const(0)))
        with pytest.raises(ResourceLimit):
            dnf_cubes(vc.negated())
        assert valid(vc).is_valid
        twin = valid(_vc(hyps, TRUE, cmp_pred(names[0], ">=", const(1))))
        assert twin.kind == "invalid"
        assert not fm_unsat(twin.cube)
        assert twin.model is not None and twin.model["x0"] == 0

    def test_over_budget_component_does_not_hide_a_refutation(self):
        parts = [por([cmp_pred(x, "=", const(i)), cmp_pred(y, "=", const(i))]) for i in range(20)]
        vc = _vc(parts, cmp_pred(z, ">=", const(1)), cmp_pred(z, ">=", const(0)))
        assert valid(vc, clause_budget=16).is_valid

    def test_shared_hypotheses_decided_once(self, monkeypatch):
        calls = []
        cubes = logic.dnf_cubes

        def counting(p, budget=logic.DEFAULT_CLAUSE_BUDGET):
            calls.append(p)
            return cubes(p, budget)

        monkeypatch.setattr(logic, "dnf_cubes", counting)
        hyp = por([cmp_pred(x, "=", const(0)), cmp_pred(x, "=", const(1))])
        memo: dict = {}
        for k in range(5):
            assert valid(_vc([hyp], TRUE, cmp_pred(y, "!=", const(k))), memo=memo).kind == "invalid"
        # the hypothesis once, then each negated consequent once
        assert len(calls) == 6

    def test_model_merged_over_components(self):
        vc = _vc([cmp_pred(x + y, "=", const(3)), cmp_pred(z, ">", const(2))], TRUE,
                 cmp_pred(LinTerm.of_var("w"), "!=", const(5)))
        verdict = valid(vc)
        # four names: out of reach of one search over at most three
        assert verdict.kind == "invalid" and verdict.model is not None
        assert list(verdict.model) == sorted(verdict.model)
        assert all(logic.eval_atom(a, verdict.model) == pos for a, pos in verdict.cube)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_preds, max_size=3), _preds, _preds)
    def test_kind_matches_product_dnf(self, hyps, antecedent, consequent):
        vc = _vc(hyps, antecedent, consequent)
        verdict = valid(vc)
        assert verdict.kind == _product_dnf_kind(vc)
        if verdict.kind == "invalid":
            assert not fm_unsat(verdict.cube)
            if verdict.model is not None:
                assert eval_pred(vc.negated(), verdict.model)


class TestTautologyFilter:
    def test_true_consequent(self):
        assert is_tautology(_vc([], cmp_pred(nu, "=", const(1)), TRUE))

    def test_false_hypothesis(self):
        assert is_tautology(_vc([PBool(False)], TRUE, PBool(False)))

    def test_false_antecedent(self):
        assert is_tautology(_vc([], PBool(False), cmp_pred(nu, "=", const(1))))

    def test_concrete_reflexive_is_kept(self):
        p = cmp_pred(nu, "=", const(0))
        assert not is_tautology(_vc([], p, p))

    def test_kappa_reflexive_is_dropped(self):
        k = PKappa("k2")
        assert is_tautology(_vc([], k, k))


class TestSubstAndKappa:
    def test_subst_linear(self):
        p = cmp_pred(nu, "=", x)
        assert subst_pred(p, "x", const(3)) == cmp_pred(nu, "=", const(3))

    def test_subst_records_on_kappa(self):
        p = PKappa("k1")
        out = subst_pred(p, "v", LinTerm.of_var("flag"))
        assert out == PKappa("k1", (("v", LinTerm.of_var("flag")),))

    def test_reserved_names_not_recorded(self):
        out = subst_pred(PKappa("k1"), "$d1", const(3))
        assert out == PKappa("k1")

    def test_instantiate(self):
        app = subst_pred(PKappa("k1"), "v", LinTerm.of_var("flag"))
        got = instantiate_kappas(app, {"k1": cmp_pred(nu, "!=", const(0))})
        assert got == cmp_pred(LinTerm.of_var("flag"), "!=", const(0))

    def test_instantiate_is_simultaneous(self):
        # swap v and w through the recorded substitution
        body = cmp_pred(nu, "=", LinTerm.of_var("w"))
        app = PKappa("k", (("v", LinTerm.of_var("w")), ("w", LinTerm.of_var("v"))))
        got = instantiate_kappas(app, {"k": body})
        assert got == cmp_pred(LinTerm.of_var("w"), "=", nu)


class TestCanonicalKeys:
    def test_conjunct_order_ignored(self):
        a, b = cmp_pred(x, "=", const(1)), cmp_pred(y, "<=", const(2))
        assert pred_key(pand([a, b])) == pred_key(pand([b, a]))

    def test_true_conjuncts_dropped(self):
        a = cmp_pred(x, "=", const(1))
        assert pred_key(pand([a, TRUE])) == pred_key(a)

    def test_negated_comparison_folds(self):
        assert pred_key(pnot(cmp_pred(x, "=", const(0)))) == pred_key(
            cmp_pred(x, "!=", const(0))
        )

    def test_scaled_equalities_identified(self):
        assert pred_key(cmp_pred(x.scale(2), "=", const(4))) == pred_key(
            cmp_pred(x, "=", const(2))
        )


class TestSmtlib:
    def test_shape(self):
        vc = _vc(
            [cmp_pred(LinTerm.of_var("flag"), "!=", const(0))],
            cmp_pred(nu, "=", x),
            PBool(False),
        )
        text = to_smtlib(vc)
        assert text.startswith("(set-logic QF_LIA)\n")
        assert "(declare-const flag Int)" in text
        assert "(declare-const v Int)" in text
        assert "(declare-const x Int)" in text
        assert text.rstrip().endswith("(check-sat)")
        assert "(assert (not (=>" in text

    def test_bool_sorts(self):
        # a boolean is the integer 1 or 0: declared Int, bounded, read as b = 1
        vc = _vc([PAtom(BVar("b"))], TRUE, PAtom(BVar("b")))
        assert to_smtlib(vc) == (
            "(set-logic QF_LIA)\n"
            "(declare-const b Int)\n"
            "(assert (and (<= 0 b) (<= b 1)))\n"
            "(assert (not (=> (= b 1) (=> true (= b 1)))))\n"
            "(check-sat)\n"
        )

    def test_byte_stable(self):
        vc = _vc([cmp_pred(x + y, "<=", const(1))], TRUE, cmp_pred(x, "<=", const(1)))
        assert to_smtlib(vc) == to_smtlib(vc)

    def test_declaration_order_is_first_occurrence(self):
        vc = _vc([cmp_pred(y, "=", const(0))], cmp_pred(x, "=", const(0)), TRUE)
        text = to_smtlib(vc)
        assert text.index("declare-const y") < text.index("declare-const x")

    def test_mixed_sorts_declared_in_first_occurrence_order(self):
        w = LinTerm.of_var("w")
        vc = _vc(
            [PAtom(BVar("p")), cmp_pred(y, "<=", x)],
            pand([cmp_pred(z, "=", const(1)), PAtom(BVar("q"))]),
            por([PNot(PAtom(BVar("p"))), cmp_pred(w + x, "!=", const(0)), PAtom(BVar("a"))]),
        )
        assert to_smtlib(vc) == (
            "(set-logic QF_LIA)\n"
            "(declare-const p Int)\n"
            "(declare-const y Int)\n"
            "(declare-const x Int)\n"
            "(declare-const z Int)\n"
            "(declare-const q Int)\n"
            "(declare-const w Int)\n"
            "(declare-const a Int)\n"
            "(assert (and (<= 0 p) (<= p 1)))\n"
            "(assert (and (<= 0 q) (<= q 1)))\n"
            "(assert (and (<= 0 a) (<= a 1)))\n"
            "(assert (not (=> (and (= p 1) (<= y x)) (=> (and (= z 1) (= q 1)) "
            "(or (not (= p 1)) (not (= (+ w x) 0)) (= a 1))))))\n"
            "(check-sat)\n"
        )


class TestPredLeaves:
    def test_left_to_right(self):
        a, b, c = (PAtom(BVar(n)) for n in "abc")
        p = PImp(PAnd((a, PNot(PKappa("k1")))), PIff(POr((PBool(False), b)), c))
        assert list(pred_leaves(p)) == [a, PKappa("k1"), PBool(False), b, c]

    def test_deep_predicate_needs_no_recursion(self):
        leaf = PAtom(BVar("a"))
        p = leaf
        for i in range(5000):
            p = PNot(p) if i % 2 else PImp(PAtom(BVar(f"h{i}")), p)
        leaves = list(pred_leaves(p))
        assert len(leaves) == 2501
        assert leaves[-1] == leaf


class TestRender:
    def test_vc_render(self):
        vc = _vc([TRUE], cmp_pred(nu, "=", const(0)), cmp_pred(nu, "!=", const(0)))
        assert vc.render() == "(true) => (v = 0 => v != 0)"

    def test_kappa_render(self):
        app = subst_pred(PKappa("k1"), "v", LinTerm.of_var("flag"))
        assert render_pred(app) == "k1[flag/v]"

    def test_dnf_budget_boundary(self):
        p = pand([por([PAtom(BVar(f"a{i}")), PAtom(BVar(f"b{i}"))]) for i in range(3)])
        assert len(dnf_cubes(p, budget=8)) == 8
