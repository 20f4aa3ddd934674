import itertools

import pytest

from l2 import elaborate, infer, logic, parser, syntax
from l2.infer import (
    HornClause,
    Solution,
    Unsat,
    apply_solution,
    default_candidates,
    gen_horn,
    houdini_solve,
    infer_refinements,
    make_templates,
    template_program,
)
from l2.logic import (
    LinTerm,
    PAtom,
    PBool,
    PKappa,
    ResourceLimit,
    TRUE,
    VALUE_VAR,
    VC,
    cmp_pred,
    dnf_cubes,
    instantiate_kappas,
    kappas_of,
    pand,
    por,
    pred_key,
    render_pred,
    valid,
)
from l2.refine import RefEnv, check_refined
from l2.syntax import AndType, BOOL, FunType, NUM, OrType, PrimType
from tests.conftest import NEGATE_INFER, clause_valid

nu = LinTerm.of_var(VALUE_VAR)


def lit(k):
    return LinTerm.of_const(k)


NEG_UNREFINED = AndType(
    FunType(NUM, FunType(NUM, NUM)), FunType(NUM, FunType(BOOL, BOOL))
)


class TestTemplates:
    def test_six_positions(self):
        t = make_templates(NEG_UNREFINED)
        kappas = []

        def collect(u):
            match u:
                case PrimType(_, PKappa(k, _)):
                    kappas.append(k)
                case FunType(d, c) | AndType(d, c) | OrType(d, c):
                    collect(d)
                    collect(c)
                case _:
                    pass

        collect(t)
        assert kappas == ["k1", "k2", "k3", "k4", "k5", "k6"]

    def test_single_position(self):
        t = make_templates(NUM)
        assert isinstance(t.refinement, PKappa)

    def test_retemplating_gives_fresh_variables(self):
        from l2.infer import _KappaCounter

        counter = _KappaCounter()
        once = make_templates(NUM, counter)
        twice = make_templates(once, counter)
        assert isinstance(twice.refinement, PKappa)
        assert twice.refinement.kappa != once.refinement.kappa

    def test_inner_ascription_numbered_first(self):
        program = parser.parse_program(
            "let f = (((\\x => x) : number -> number) : number -> number) in (f 1 : number)"
        )
        templated, kappas = template_program(program)
        assert [k.id for k in kappas] == ["k1", "k2", "k3", "k4", "k5"]
        assert syntax.print_program(templated) == (
            "let f = ((\\x => x : {v:number | k1} -> {v:number | k2})"
            " : {v:number | k3} -> {v:number | k4}) in (f 1 : {v:number | k5})\n"
        )


def _find(clauses, body_atoms, head_key):
    """Locate a clause whose body contains the given atoms and whose head
    matches; extra kappa hypotheses are tolerated."""
    for clause in clauses:
        keys = {pred_key(p) for p in clause.body}
        if all(pred_key(a) in keys for a in body_atoms) and pred_key(clause.head) == head_key:
            return clause
    return None


class TestGenHorn:
    def test_paper_clause_structures(self):
        p = parser.parse_program(NEGATE_INFER)
        clauses, kappas, _ = gen_horn(p)
        flag = LinTerm.of_var("flag")
        x = LinTerm.of_var("x")
        k1_at_flag = PKappa("k1", ((VALUE_VAR, flag),))
        k4_at_flag = PKappa("k4", ((VALUE_VAR, flag),))

        dead1 = _find(
            clauses,
            [k1_at_flag, cmp_pred(flag, "=", lit(0)), cmp_pred(nu, "=", x)],
            pred_key(PBool(False)),
        )
        assert dead1 is not None
        dead2 = _find(
            clauses,
            [k4_at_flag, cmp_pred(flag, "!=", lit(0))],
            pred_key(PBool(False)),
        )
        assert dead2 is not None
        call_a = _find(clauses, [cmp_pred(nu, "=", lit(1))], pred_key(PKappa("k1")))
        assert call_a is not None
        call_b = _find(clauses, [cmp_pred(nu, "=", lit(0))], pred_key(PKappa("k4")))
        assert call_b is not None

    def test_kappa_free_program_degenerates_to_plain_vcs(self):
        p = parser.parse_program("let x = (1 : {v:number | v != 0}) in x")
        clauses, kappas, _ = gen_horn(p)
        # templating replaced the one refinement, so one kappa exists; with
        # no refinements at all there are no clauses
        p2 = parser.parse_program("add 1 2")
        clauses2, kappas2, _ = gen_horn(p2)
        assert kappas2 == []
        assert all(not c.kappas() for c in clauses2)

    def test_scopes_are_integer_variables_in_every_occurrence(self):
        p = parser.parse_program(NEGATE_INFER)
        _, kappas, _ = gen_horn(p)
        for k in kappas:
            assert all(not n.startswith("$") for n in k.scope)


class TestHoudini:
    def brute_force_greatest(self, clauses, candidates):
        """The valid assignments are closed under union, so the greatest one
        is the union of all valid ones.  Clause validity only depends on the
        assignment restricted to the clause's own kappas, which keeps the
        enumeration tractable."""
        names = sorted(candidates)
        cache: dict = {}

        def check(clause_index, clause, assignment):
            relevant = tuple(
                (k, assignment.get(k, ())) for k in sorted(clause.kappas())
            )
            key = (clause_index, relevant)
            if key not in cache:
                cache[key] = clause_valid(clause, dict(relevant))
            return cache[key]

        all_subsets = [
            list(itertools.chain.from_iterable(itertools.combinations(candidates[k], n)
                                               for n in range(len(candidates[k]) + 1)))
            for k in names
        ]
        best = {k: () for k in names}
        for combo in itertools.product(*all_subsets):
            assignment = dict(zip(names, combo))
            if all(check(i, c, assignment) for i, c in enumerate(clauses)):
                for k in names:
                    merged = list(best[k])
                    for cand in assignment[k]:
                        if cand not in merged:
                            merged.append(cand)
                    best[k] = tuple(merged)
        if not all(clause_valid(c, best) for c in clauses):
            return None
        return best

    def test_negate_solution_and_oracle(self):
        p = parser.parse_program(NEGATE_INFER)
        clauses, kappas, templated = gen_horn(p)
        small = [cmp_pred(nu, "=", lit(0)), cmp_pred(nu, "!=", lit(0)),
                 cmp_pred(nu, "=", lit(1))]
        candidates = {k.id: (list(small) if k.sort == "number" else []) for k in kappas}
        outcome = houdini_solve(clauses, candidates)
        assert isinstance(outcome, Solution)
        # the numeric guard keeps "nonzero", the boolean guard keeps "zero";
        # the printed assignment in the source narrative has them swapped,
        # which its own constraints contradict, so the oracle is authoritative
        assert pred_key(cmp_pred(nu, "!=", lit(0))) in {
            pred_key(c) for c in outcome.assignment["k1"]
        }
        assert pred_key(cmp_pred(nu, "=", lit(0))) in {
            pred_key(c) for c in outcome.assignment["k4"]
        }
        assert outcome.assignment["k5"] == ()
        assert outcome.assignment["k6"] == ()
        for clause in clauses:
            assert clause_valid(clause, outcome.assignment)
        oracle = self.brute_force_greatest(clauses, candidates)
        assert oracle is not None
        for k in candidates:
            assert {pred_key(c) for c in oracle[k]} == {
                pred_key(c) for c in outcome.assignment[k]
            }, k

    def test_empty_candidates(self):
        p = parser.parse_program(NEGATE_INFER)
        clauses, kappas, _ = gen_horn(p)
        outcome = houdini_solve(clauses, {k.id: [] for k in kappas})
        # with every kappa at true the dead clauses lose their contradiction
        assert isinstance(outcome, Unsat)

    def test_contradictory_fixed_head(self):
        clause = HornClause((TRUE,), PBool(False))
        assert isinstance(houdini_solve([clause], {}), Unsat)

    def test_trivially_valid_fixed_heads(self):
        clause = HornClause((cmp_pred(nu, "=", lit(1)),), cmp_pred(nu, "!=", lit(0)))
        assert isinstance(houdini_solve([clause], {}), Solution)


class TestApplySolution:
    def test_round_trip_acceptance(self):
        p = parser.parse_program(NEGATE_INFER)
        outcome, clauses, kappas, templated = infer_refinements(p)
        assert isinstance(outcome, Solution)
        solved = apply_solution(templated, outcome)
        result = elaborate.elaborate_program(solved)
        report = check_refined(RefEnv(), result.target)
        assert report.accepted

    def test_identity_on_kappa_free_program(self):
        p = parser.parse_program("add 1 2")
        solved = apply_solution(p, Solution({}))
        assert solved == p

    def test_partial_solution_rejected(self):
        p = parser.parse_program(NEGATE_INFER)
        templated, kappas = template_program(p)
        with pytest.raises(ValueError):
            apply_solution(templated, Solution({}))


class TestDefaultCandidates:
    def test_literals_and_scope(self):
        p = parser.parse_program(NEGATE_INFER)
        _, kappas, _ = gen_horn(p)
        k1 = next(k for k in kappas if k.id == "k1")
        cands = default_candidates(p, k1)
        keys = {pred_key(c) for c in cands}
        assert pred_key(cmp_pred(nu, "=", lit(0))) in keys
        assert pred_key(cmp_pred(nu, "!=", lit(1))) in keys
        assert pred_key(cmp_pred(nu, "<=", lit(0))) in keys

    def test_boolean_kappas_get_none(self):
        p = parser.parse_program(NEGATE_INFER)
        _, kappas, _ = gen_horn(p)
        k5 = next(k for k in kappas if k.id == "k5")
        assert k5.sort == "boolean"
        assert default_candidates(p, k5) == []


class TestUnsatPath:
    def test_conflicting_calls_make_inference_unsat(self):
        # both a zero and a nonzero guard reach the numeric clone, so no
        # candidate refinement can make its dead cast unreachable
        text = """
        let neg = ((\\flag => \\x => if ne flag 0 then sub 0 x else not x)
                : (number -> number -> number) /\\ (number -> boolean -> boolean)) in
        let a = neg 1 1 in
        let c = neg 0 1 in
        c
        """
        p = parser.parse_program(text)
        outcome, clauses, kappas, _ = infer_refinements(p)
        assert isinstance(outcome, Unsat)


class TestChainedClauses:
    def test_kappa_in_body_and_head_simultaneously(self):
        # g forwards its argument to f, so f's domain template appears as a
        # clause head while g's own templates sit in the body
        text = """
        let f = ((\\x => x) : number -> number) in
        let g = ((\\y => f y) : number -> number) in
        g 3
        """
        p = parser.parse_program(text)
        clauses, kappas, _ = gen_horn(p)
        chained = [
            c for c in clauses
            if c.head_kappa() is not None
            and any(kappas_of(b) for b in c.body)
        ]
        assert chained, [c.render() for c in clauses]
        # both occurrences carry their substitutions
        clause = chained[0]
        assert isinstance(clause.head, PKappa)


# ---------------------------------------------------------------------------
# The incremental solver against the plain sweep
# ---------------------------------------------------------------------------


def reference_houdini(clauses, candidates, clause_budget=logic.DEFAULT_CLAUSE_BUDGET):
    """Houdini as a plain sweep: every round re-instantiates and re-checks
    every clause, one valid() call per candidate."""
    assignment = {k: tuple(v) for k, v in candidates.items()}
    for clause in clauses:
        for k in clause.kappas():
            assignment.setdefault(k, ())
    pred_map = {k: pand(v) for k, v in assignment.items()}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            head_k = clause.head_kappa()
            body = tuple(instantiate_kappas(p, pred_map) for p in clause.body)
            if head_k is None:
                head = instantiate_kappas(clause.head, pred_map)
                if not valid(VC(body, TRUE, head, clause.origin), clause_budget).is_valid:
                    return Unsat(clause)
                continue
            keep = tuple(
                c
                for c in assignment[head_k]
                if valid(
                    VC(body, TRUE, instantiate_kappas(clause.head, {head_k: c}), clause.origin),
                    clause_budget,
                ).is_valid
            )
            if len(keep) != len(assignment[head_k]):
                assignment[head_k] = keep
                pred_map[head_k] = pand(keep)
                changed = True
    return Solution(assignment)


_NEG = (
    "((\\flag => \\x => if ne flag 0 then sub 0 x else not x)\n"
    "        : (number -> number -> number) /\\ (number -> boolean -> boolean))"
)


def negate_infer_program(c: int) -> str:
    return f"let neg = {_NEG} in\nlet a = neg {c} {c} in\nlet b = neg 0 true in\nb\n"


def width2_program(c: int) -> str:
    return (
        f"let neg = {_NEG} in\nlet neg2 = {_NEG} in\n"
        f"let a = neg {c} {c} in\nlet b = neg 0 true in\n"
        f"let d = neg2 {c} {c} in\nlet e = neg2 0 false in\ne\n"
    )


def dependent_program(c: int) -> str:
    return (
        f"let neg = {_NEG} in\n"
        "let twice = ((\\flag => \\x => if ne flag 0 then neg 1 (neg 1 x) else neg 0 (neg 0 x))\n"
        "        : (number -> number -> number) /\\ (number -> boolean -> boolean)) in\n"
        f"let a = twice {c} {c} in\nlet b = twice 0 true in\nb\n"
    )


def width_program(m: int) -> str:
    """m independent copies of the overloaded neg, each called once per clone."""
    lines = [f"let neg{i} = {_NEG} in" for i in range(m)]
    for i in range(m):
        lines += [f"let a{i} = neg{i} 3 3 in", f"let b{i} = neg{i} 0 true in"]
    return "\n".join(lines) + f"\nb{m - 1}\n"


def width_distinct_program(m: int) -> str:
    """As ``width_program``, with a distinct literal in each numeric call."""
    lines = [f"let neg{i} = {_NEG} in" for i in range(m)]
    for i in range(m):
        lines += [f"let a{i} = neg{i} {i + 1} {i + 1} in", f"let b{i} = neg{i} 0 true in"]
    return "\n".join(lines) + f"\nb{m - 1}\n"


def _default_problem(text):
    program = parser.parse_program(text)
    clauses, kappas, _ = gen_horn(program)
    return clauses, {k.id: default_candidates(program, k) for k in kappas}


def _same_outcome(clauses, candidates, clause_budget=logic.DEFAULT_CLAUSE_BUDGET):
    got = houdini_solve(clauses, candidates, clause_budget)
    want = reference_houdini(clauses, candidates, clause_budget)
    assert type(got) is type(want)
    if isinstance(want, Unsat):
        assert got.clause == want.clause
    else:
        assert list(got.assignment.items()) == list(want.assignment.items())
    return got


class TestIncrementalHoudini:
    # With c = 0 the numeric call `neg 0 0` reaches the numeric clone's dead
    # branch, so no assignment makes it unreachable.
    @pytest.mark.parametrize("c", range(10))
    def test_negate_family(self, c):
        outcome = _same_outcome(*_default_problem(negate_infer_program(c)))
        assert isinstance(outcome, Unsat if c == 0 else Solution)

    @pytest.mark.parametrize("c", [0, 3, 7])
    def test_width2_family(self, c):
        outcome = _same_outcome(*_default_problem(width2_program(c)))
        assert isinstance(outcome, Unsat if c == 0 else Solution)

    @pytest.mark.parametrize("c", [0, 5])
    def test_dependent_family(self, c):
        outcome = _same_outcome(*_default_problem(dependent_program(c)))
        assert isinstance(outcome, Unsat if c == 0 else Solution)

    def test_preds_style_candidates(self):
        # as `infer --preds`: every numeric kappa gets the same list
        program = parser.parse_program(NEGATE_INFER)
        clauses, kappas, _ = gen_horn(program)
        preds = [cmp_pred(nu, op, lit(k)) for k in (0, 1, 2) for op in ("=", "!=", ">=", "<")]
        preds.append(pand([cmp_pred(nu, ">=", lit(1)), cmp_pred(nu, "<=", lit(5))]))
        candidates = {k.id: list(preds) if k.sort == "number" else [] for k in kappas}
        assert isinstance(_same_outcome(clauses, candidates), Solution)

    def test_empty_candidates_unsat(self):
        program = parser.parse_program(NEGATE_INFER)
        clauses, kappas, _ = gen_horn(program)
        assert isinstance(_same_outcome(clauses, {k.id: [] for k in kappas}), Unsat)

    def test_conflicting_calls_unsat(self):
        text = NEGATE_INFER.replace("neg 0 true", "neg 0 1")
        assert "neg 0 1" in text
        assert isinstance(_same_outcome(*_default_problem(text)), Unsat)

    def test_head_conjunction_over_budget_falls_back(self, monkeypatch):
        # two body cubes times four negated candidates exceed a budget of 4,
        # while each candidate alone has two cubes
        body = (por([cmp_pred(nu, "=", lit(1)), cmp_pred(nu, "=", lit(2))]),)
        cands = [cmp_pred(nu, ">=", lit(1)), cmp_pred(nu, "<=", lit(2)),
                 cmp_pred(nu, "!=", lit(0)), cmp_pred(nu, "=", lit(1))]
        clause = HornClause(body, PKappa("k1"), "test")
        with pytest.raises(ResourceLimit):
            dnf_cubes(VC(body, TRUE, pand(cands), "").negated(), 4)
        limits = []
        checked = infer.valid

        def spy(*args):
            try:
                return checked(*args)
            except ResourceLimit:
                limits.append(args[0])
                raise

        monkeypatch.setattr(infer, "valid", spy)
        got = _same_outcome([clause], {"k1": cands}, clause_budget=4)
        assert got.assignment["k1"] == tuple(cands[:3])
        assert len(limits) == 1


def _count_valid_calls(monkeypatch, text):
    calls = []
    checked = infer.valid

    def spy(*args):
        calls.append(args[0])
        return checked(*args)

    monkeypatch.setattr(infer, "valid", spy)
    outcome, *_ = infer_refinements(parser.parse_program(text))
    assert isinstance(outcome, Solution)
    return len(calls)


class TestValidCallCounts:
    def test_negate_infer(self, monkeypatch):
        # the plain sweep makes 99 calls
        assert _count_valid_calls(monkeypatch, NEGATE_INFER) <= 50

    def test_independent_copies_grow_near_linearly(self, monkeypatch):
        # the plain sweep makes 798 calls for m=4 alone
        one = _count_valid_calls(monkeypatch, width_program(1))
        eight = _count_valid_calls(monkeypatch, width_program(8))
        assert eight <= 12 * one


class TestComponentDischarge:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_distinct_width_family(self, m):
        assert isinstance(_same_outcome(*_default_problem(width_distinct_program(m))), Solution)

    def test_distinct_width_cube_and_literal_counts(self, monkeypatch):
        # one product DNF per VC decides 5,256 cubes of 644,444 literals at m = 8
        cubes, literals = [], []
        fm_unsat = logic.fm_unsat

        def counting(cube, memo=None):
            cubes.append(cube)
            literals.append(len(cube))
            return fm_unsat(cube, memo)

        monkeypatch.setattr(logic, "fm_unsat", counting)
        outcome, *_ = infer_refinements(parser.parse_program(width_distinct_program(8)))
        assert isinstance(outcome, Solution)
        assert 3 * len(cubes) <= 5256
        assert 6 * sum(literals) <= 644444
