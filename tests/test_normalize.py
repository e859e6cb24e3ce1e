"""Incremental normalization against its spec: iterating the first of
``rewrite_step``'s leftmost-outermost one-step rewrites, compared as whole
``NormalizeResult``s at every fuel."""

from __future__ import annotations

import random
import time

import pytest

from debruijn import (
    Assignment,
    BindingArity,
    BindingSignature,
    EquationalTheory,
    ExplicitSubst,
    MetaVar,
    NormalizeResult,
    Op,
    Rule,
    Var,
    beta_eta_theory,
    beta_theory,
    compile_metaterm,
    compile_pattern,
    equiv,
    make_signature,
    match_pattern,
    normalize,
)
from debruijn.gen import random_term

from helpers import (
    CHURCH_PLUS,
    OMEGA,
    app,
    church,
    lam,
    ref_moved,
    ref_normalize_all,
    same_term,
    tuple_stack_support,
)

BETA = beta_theory()
BETAETA = beta_eta_theory()
SUCC = lam(lam(lam(app(Var(1), app(app(Var(2), Var(1)), Var(0))))))
ZERO = lam(lam(Var(0)))


def assert_follows_spec(theory, t, limit):
    for fuel, want in enumerate(ref_normalize_all(theory, t, limit)):
        assert normalize(theory, t, fuel) == want, fuel


@pytest.mark.parametrize("theory", [BETA, BETAETA], ids=["beta", "betaeta"])
def test_random_terms_follow_the_spec(theory):
    rng = random.Random(53)
    for _ in range(300):
        t = random_term(theory.signature, rng, max_depth=9, max_index=3)
        assert_follows_spec(theory, t, 12)


# f, g and b over one constant; b binds a variable
FG_SIG = make_signature({"f": (0,), "g": (0,), "b": (1,), "c": ()})
C = Op("c", ())


def f(x):
    return Op("f", (x,))


def g(x):
    return Op("g", (x,))


def _rule(name, arity, left, right):
    return Rule(name, BindingArity(arity), left, right)


F_OF_G = _rule("f-of-g", (0,), f(g(MetaVar(0))), C)
F_TO_G = _rule("f-to-g", (0,), f(MetaVar(0)), g(MetaVar(0)))
VAR_TO_C = _rule("var-to-c", (), Var(0), C)
B_TO_F = _rule("b-to-f", (1,), Op("b", (MetaVar(0),)), f(MetaVar(0)))
WRAP = _rule("wrap", (0,), MetaVar(0), f(MetaVar(0)))
UNWRAP = _rule("unwrap", (0,), g(MetaVar(0)), MetaVar(0))

FG_THEORIES = {
    # same-head rules: which one comes first decides f(g(x))
    "head-order-1": (F_OF_G, F_TO_G, VAR_TO_C, B_TO_F),
    "head-order-2": (F_TO_G, F_OF_G, VAR_TO_C, B_TO_F),
    # a metavariable left side matches every node, so its place among
    # the rules with a head symbol decides which one fires
    "root-metavariable": (UNWRAP, WRAP),
    "root-metavariable-first": (WRAP, UNWRAP),
    "var-left-side-first": (VAR_TO_C, B_TO_F, F_OF_G),
}


@pytest.mark.parametrize("rules", FG_THEORIES.values(), ids=FG_THEORIES.keys())
def test_rule_order_and_non_op_left_sides_follow_the_spec(rules):
    theory = EquationalTheory(FG_SIG, rules)
    rng = random.Random(59)
    for _ in range(150):
        t = random_term(FG_SIG, rng, max_depth=6, max_index=2)
        assert_follows_spec(theory, t, 12)


def test_same_head_rule_order_decides_the_result():
    t = f(g(Var(1)))
    first = normalize(EquationalTheory(FG_SIG, FG_THEORIES["head-order-1"]), t, 10)
    second = normalize(EquationalTheory(FG_SIG, FG_THEORIES["head-order-2"]), t, 10)
    assert first.term == C and second.term == g(g(Var(1)))


def eta_over_deep_redex(d):
    """lam(app(app(Var 3, lam^d(M)), Var 0)) with M = app(lam(Var(2+d)),
    Var d): contracting M, d + 5 levels down, drops the last use of the
    outer binder and so creates an eta redex at the root."""
    body = app(lam(Var(2 + d)), Var(d))
    for _ in range(d):
        body = lam(body)
    return lam(app(app(Var(3), body), Var(0)))


@pytest.mark.parametrize("d", [2, 5, 20])
def test_eta_redex_created_far_above_a_contraction(d):
    t = eta_over_deep_redex(d)
    inner = Var(d)
    for _ in range(d):
        inner = lam(inner)
    r = normalize(BETAETA, t, 10)
    assert r == NormalizeResult(app(Var(2), inner), False, 2)
    assert_follows_spec(BETAETA, t, 4)


def test_omega_exhausts_at_every_fuel():
    assert_follows_spec(BETA, OMEGA, 20)
    r = normalize(BETA, OMEGA, 20)
    assert r.exhausted and r.steps == 20 and r.term == OMEGA


@pytest.mark.parametrize("k", [0, 1, 7, 50])
def test_church_numerals_follow_the_spec(k):
    t = app(app(church(k), SUCC), ZERO)
    assert_follows_spec(BETA, t, 3 * k + 3)
    r = normalize(BETA, t, 3 * k + 2)
    assert not r.exhausted and r.steps == 3 * k + 2 and r.term == church(k)


@pytest.mark.parametrize("theory, t", [
    (BETA, app(app(church(7), SUCC), ZERO)),
    (BETAETA, eta_over_deep_redex(5)),
], ids=["church7", "eta"])
def test_on_step_reports_each_redex_position(theory, t):
    seen = []
    r = normalize(theory, t, 100, on_step=lambda *s: seen.append(s))
    assert [n for n, _, _ in seen] == list(range(1, r.steps + 1))
    before = [x.term for x in ref_normalize_all(theory, t, r.steps)]
    rules = {rule.name: rule for rule in theory.rules}
    for (n, name, path), term in zip(seen, before):
        for i in path:
            term = term.args[i]
        left = compile_pattern(rules[name].left, len(rules[name].arity.binders))
        assert match_pattern(left, term, theory.signature) is not None


def test_church_1000_normalizes_within_budget():
    t = app(app(church(1000), SUCC), ZERO)
    start = time.perf_counter()
    r = normalize(BETA, t, 3002)
    elapsed = time.perf_counter() - start
    assert not r.exhausted and r.steps == 3002
    assert same_term(r.term, church(1000))
    assert elapsed < 10, elapsed


def test_equiv_compares_deep_normal_forms():
    # both normal forms are 1000 applications deep; == walks them without
    # recursion
    t = app(app(church(1000), SUCC), ZERO)
    assert equiv(BETA, t, church(1000), 5000) == "yes"
    assert equiv(BETA, t, church(999), 5000) == "no"


# --- the support memo: on the values a contraction shifts ----------------

# lam m. lam n. lam f. m (n f), and lam m. lam n. n m (m to the power n)
CHURCH_MULT = lam(lam(lam(app(Var(2), app(Var(1), Var(0))))))
CHURCH_EXP = lam(lam(app(Var(0), Var(1))))


def _arith(op, m, n, applied):
    t = app(app(op, church(m)), church(n))
    return app(app(t, SUCC), ZERO) if applied else t


def assert_memos_exact(t, sig):
    """Every node reachable from ``t`` with a support memo under ``sig``
    has the support that a fresh walk computes (under a copy of ``sig``,
    so the walk reads none of the memos it checks)."""
    memoized, seen, stack = [], set(), [t]
    while stack:
        node = stack.pop()
        if type(node) is Op and id(node) not in seen:
            seen.add(id(node))
            if node._sig is sig:
                memoized.append((node, node._sup))
            stack.extend(node.args)
    fresh = BindingSignature(dict(sig.ops))
    for node, sup in memoized:
        assert sup == tuple_stack_support(node, fresh), node
    return len(memoized)


ARITH = {
    "plus": (CHURCH_PLUS, 2, 3),
    "mult": (CHURCH_MULT, 2, 3),
    "exp": (CHURCH_EXP, 2, 3),
}


@pytest.mark.parametrize("applied", [False, True], ids=["open", "succ-zero"])
@pytest.mark.parametrize("name", ARITH)
@pytest.mark.parametrize("theory", [BETA, BETAETA], ids=["beta", "betaeta"])
def test_church_arithmetic_follows_the_spec(theory, name, applied):
    """Values built by earlier contractions are substituted, and shifted,
    by later ones: the memo placed on them must not change a step."""
    op, m, n = ARITH[name]
    t = _arith(op, m, n, applied)
    steps = normalize(theory, t, 10_000).steps
    assert_follows_spec(theory, t, steps + 1)


@pytest.mark.parametrize("name", ARITH)
@pytest.mark.parametrize("theory", [BETA, BETAETA], ids=["beta", "betaeta"])
def test_support_memos_after_normalize_are_exact(theory, name):
    """At every fuel: each intermediate term is a result at some fuel."""
    op, m, n = ARITH[name]
    value = {"plus": m + n, "mult": m * n, "exp": m**n}[name]
    checked = 0
    for applied in (False, True):
        t = _arith(op, m, n, applied)
        r = normalize(theory, t, 10_000)
        assert not r.exhausted
        if applied:
            assert r.term == church(value)
        for fuel in range(r.steps + 1):
            checked += assert_memos_exact(normalize(theory, t, fuel).term, theory.signature)
    assert checked > 0


# f(?0) = b(?0[^1]): a right side that is a pure shift of a metavariable,
# whose value normalize shifts without memoizing its support first
SHIFT_RULE = _rule("f-to-b", (0,), f(MetaVar(0)),
                   Op("b", (ExplicitSubst(MetaVar(0), Assignment((), 1)),)))
SHIFT_THEORY = EquationalTheory(FG_SIG, (SHIFT_RULE,))


def test_moved_metavariables_of_right_sides():
    def moved(mt):
        got = compile_metaterm(mt).moved
        assert got == ref_moved(mt)
        return got

    assert moved(BETA.rules[0].right) == (1,)
    assert [moved(r.right) for r in BETAETA.rules] == [(1,), ()]
    assert moved(SHIFT_RULE.right) == ()
    nested = ExplicitSubst(g(MetaVar(0)), Assignment((f(ExplicitSubst(MetaVar(1), Assignment(
        (MetaVar(2),), 0))),), 0))
    assert moved(nested) == (1, 2)
    assert moved(ExplicitSubst(MetaVar(0), Assignment((), 0))) == ()


def test_pure_shift_right_side_follows_the_spec():
    rng = random.Random(61)
    for _ in range(200):
        t = random_term(FG_SIG, rng, max_depth=7, max_index=2)
        assert_follows_spec(SHIFT_THEORY, t, 12)
        assert_memos_exact(normalize(SHIFT_THEORY, t, 100).term, FG_SIG)
