import pathlib
from math import gcd

import pytest

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
    Pred,
    TRUE,
    VC,
    eval_atom,
    instantiate_kappas,
    kappas_of,
    pand,
    pnot,
    valid,
)
from l2.refine import RefEnv
from l2.source_interp import DEFAULT_FUEL, eval_source_trace
from l2.target_interp import eval_target_trace
from l2.syntax import AndType, App, Ascribe, Const, FunType, If, Lam, Let, OrType, PrimType, Var

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"

NEGATE_OK = (PROGRAMS / "negate_ok.l2").read_text()
NEGATE_ERR_C = (PROGRAMS / "negate_err_c.l2").read_text()
NEGATE_FULL = (PROGRAMS / "negate_full.l2").read_text()
NEGATE_INFER = (PROGRAMS / "negate_infer.l2").read_text()
DEAD_SEMANTICS = (PROGRAMS / "dead_semantics.l2").read_text()
UNION_OK = (PROGRAMS / "union_ok.l2").read_text()
UNION_ERR = (PROGRAMS / "union_err.l2").read_text()


@pytest.fixture
def programs_dir():
    return PROGRAMS


def let_chain(n: int) -> str:
    """A program of n nested lets, each adding a literal to the previous one."""
    lines = ["let x0 = 1 in"]
    lines += [f"let x{i} = add x{i - 1} {i % 10} in" for i in range(1, n)]
    return "\n".join(lines) + f"\nx{n - 1}\n"


def disj_program(k: int) -> str:
    """k parameters refined to 0 or 1, summed and checked against v >= 0:
    valid, and the last obligation's negation has 2**k DNF cubes."""
    params = " => ".join(f"\\p{i}" for i in range(k))
    total = "add p0 p1"
    for i in range(2, k):
        total = f"add ({total}) p{i}"
    arrows = " -> ".join(["b01"] * k)
    return (f"type b01 = {{v:number | v = 0 || v = 1}}\n"
            f"(({params} => {total}) : {arrows} -> {{v:number | v >= 0}})\n")


def oblig_program(n: int) -> str:
    """n lets, each passing the previous one to f : {v >= 0} -> {v >= 0}:
    accepted, with one obligation per let under all the lets before it."""
    lines = ["let f = ((\\z => z) : {v:number | v >= 0} -> {v:number | v >= 0}) in",
             "let x0 = f 0 in"]
    lines += [f"let x{i} = f x{i - 1} in" for i in range(1, n)]
    return "\n".join(lines) + f"\nx{n - 1}\n"


@pytest.fixture(scope="session")
def corpus_reports():
    """(label, refinement report) for each program of ``programs/`` and each
    ``gen_program(seed, budget)``, seeds 0-399 and budgets 30 and 60, that
    passes phase 1: one pass, shared by the tests that read the whole corpus."""
    from l2.elaborate import ElabError, elaborate_program
    from l2.harness import gen_program
    from l2.parser import parse_program
    from l2.refine import check_refined

    programs = [(path.name, parse_program(path.read_text()))
                for path in sorted(PROGRAMS.glob("*.l2"))]
    programs += [(f"gen_program({seed}, {budget})", gen_program(seed, budget))
                 for budget in (30, 60) for seed in range(400)]
    reports = []
    for label, program in programs:
        try:
            reports.append((label, check_refined(elaborate_program(program).target)))
        except ElabError:
            continue
    return reports


def eval_source(e, fuel: int = DEFAULT_FUEL):
    """The outcome of a source run, without its trace."""
    return eval_source_trace(e, fuel)[0]


def eval_target(w, fuel: int = DEFAULT_FUEL):
    """The outcome of a target run, without its trace."""
    return eval_target_trace(w, fuel)[0]


def alpha_equal(a, b) -> bool:
    def go(a, b, env: dict[str, str]) -> bool:
        match (a, b):
            case (Const(ca), Const(cb)):
                return ca == cb
            case (Var(na), Var(nb)):
                return env.get(na, na) == nb
            case (Lam(pa, ba), Lam(pb, bb)):
                return go(ba, bb, {**env, pa: pb})
            case (Ascribe(ea, ta), Ascribe(eb, tb)):
                return ta == tb and go(ea, eb, env)
            case (Let(na, ba, ca), Let(nb, bb, cb)):
                return go(ba, bb, env) and go(ca, cb, {**env, na: nb})
            case (If(ca, ta, fa), If(cb, tb, fb)):
                return go(ca, cb, env) and go(ta, tb, env) and go(fa, fb, env)
            case (App(fa, aa), App(fb, ab)):
                return go(fa, fb, env) and go(aa, ab, env)
            case _:
                return False

    return go(a, b, {})


def ftx(t, r):
    """Replace every base refinement with r, negating across arrow domains:
    the paper's meta-function, kept as the reference for ``refine.dead_type``
    (``ftx(t, FALSE)`` is fbot) and for the type printers' test images."""
    match t:
        case PrimType(base):
            return PrimType(base, r)
        case FunType(dom, cod, binder):
            return FunType(ftx(dom, pnot(r)), ftx(cod, r), binder)
        case AndType(left, right) | OrType(left, right):
            return type(t)(ftx(left, r), ftx(right, r))
    raise TypeError(f"not a type: {t!r}")


# The oracle of predicate identity up to conjunct order and trivia, against
# which tests compare what l2 builds through its smart constructors.
def _canon_cmp(c: Cmp):
    t = c.lhs - c.rhs
    op = c.op
    if op == ">":
        t, op = t.scale(-1), "<"
    elif op == ">=":
        t, op = t.scale(-1), "<="
    if op in ("=", "!="):
        lead = t.coeffs[0][1] if t.coeffs else t.const
        if lead < 0:
            t = t.scale(-1)
    nums = [c for _, c in t.coeffs] + ([t.const] if t.const else [])
    g = 0
    for n in nums:
        g = gcd(g, abs(n))
    if g > 1 and t.const % g == 0 and all(c % g == 0 for _, c in t.coeffs):
        t = LinTerm(tuple((n, c // g) for n, c in t.coeffs), t.const // g)
    return ("cmp", op, t.coeffs, t.const)


def pred_key(p: Pred):
    """Hashable key identifying predicates up to conjunct order and trivia."""
    match p:
        case PBool(b):
            return ("bool", b)
        case PAtom(Cmp() as c):
            return _canon_cmp(c)
        case PAtom(BVar(n)):
            return ("bvar", n)
        case PNot(PAtom(Cmp() as c)):
            return _canon_cmp(c.flip())
        case PNot(inner):
            return ("not", pred_key(inner))
        case PAnd(parts) | POr(parts):
            unit = ("bool", isinstance(p, PAnd))  # the key of the empty conjunction or disjunction
            keys = sorted({k for k in map(pred_key, parts) if k != unit})
            if len(keys) > 1:
                return ("and" if unit[1] else "or",) + tuple(keys)
            return keys[0] if keys else unit
        case PImp(a, b):
            return ("imp", pred_key(a), pred_key(b))
        case PIff(a, b):
            return ("iff",) + tuple(sorted([pred_key(a), pred_key(b)]))
        case PKappa(k, subst):
            return ("kappa", k, tuple((n, v.render()) for n, v in subst))
    raise TypeError(f"not a predicate: {p!r}")


def guarded_vc(hyps, antecedent, consequent, origin: str = "") -> VC:
    """A VC whose hypotheses are hyps, built on a chain of guards, as
    ``infer.houdini_solve`` builds a clause's hypotheses."""
    env = RefEnv()
    for h in hyps:
        env = env.guard(h)
    return VC(env, antecedent, consequent, origin)


def vc_negated(vc: VC):
    """The conjunction whose refutation proves the VC."""
    return pand(list(vc.hyps) + [vc.antecedent, pnot(vc.consequent)])


def vc_key(vc: VC):
    """A VC up to the order, repetition and true members of its hypotheses."""
    return (
        tuple(sorted(set(k for k in (pred_key(h) for h in vc.hyps) if k != ("bool", True)))),
        pred_key(vc.antecedent),
        pred_key(vc.consequent),
    )


def term_names(t) -> frozenset[str]:
    """The names a linear term mentions."""
    return frozenset(n for n, _ in t.coeffs)


def horn(clause: VC):
    """A VC read as a Horn clause: its body (the hypotheses, then the
    antecedent) and its head (the consequent)."""
    return (*clause.hyps, clause.antecedent), clause.consequent


def clause_kappas(clause: VC) -> frozenset[str]:
    """The kappas of a Horn clause, collected as ``infer.houdini_solve`` does."""
    body, head = horn(clause)
    return kappas_of(head) | frozenset().union(*map(kappas_of, body))


def clause_valid(clause, assignment, clause_budget: int = 10000) -> bool:
    """Reference check of one Horn clause under a full assignment."""
    pred_map = {k: pand(v) for k, v in assignment.items()}
    body = tuple(instantiate_kappas(p, pred_map) for p in horn(clause)[0])
    head = instantiate_kappas(clause.consequent, pred_map)
    return valid(guarded_vc(body, TRUE, head, clause.origin), clause_budget).is_valid


def eval_pred(p, env: dict[str, object]) -> bool:
    """The truth value of a kappa-free predicate under an assignment."""
    match p:
        case PBool(b):
            return b
        case PAtom(a):
            return eval_atom(a, env)
        case PNot(inner):
            return not eval_pred(inner, env)
        case PAnd(parts):
            return all(eval_pred(q, env) for q in parts)
        case POr(parts):
            return any(eval_pred(q, env) for q in parts)
        case PImp(a, b):
            return (not eval_pred(a, env)) or eval_pred(b, env)
        case PIff(a, b):
            return eval_pred(a, env) == eval_pred(b, env)
        case PKappa():
            raise ValueError("kappa variable in evaluated predicate")
    raise TypeError(f"not a predicate: {p!r}")
