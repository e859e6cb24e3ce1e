"""Incremental normalization against its spec: iterating the first of
``rewrite_step``'s leftmost-outermost one-step rewrites, compared as whole
``NormalizeResult``s at every fuel."""

from __future__ import annotations

import random
import time

import pytest

from debruijn import (
    BindingArity,
    EquationalTheory,
    MetaVar,
    NormalizeResult,
    Op,
    Rule,
    Var,
    beta_eta_theory,
    beta_theory,
    equiv,
    make_signature,
    match_pattern,
    normalize,
)
from debruijn.gen import random_term

from helpers import OMEGA, app, church, lam, ref_normalize_all, same_term

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
        assert match_pattern(rules[name].left, term, theory.signature) is not None


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
