"""Renaming, lifting, parallel substitution, and composition on the
canonical finite representation of assignments."""

from __future__ import annotations

import random

import pytest

from debruijn import (
    IDENTITY,
    NAT,
    Assignment,
    Renaming,
    TypedAssignment,
    Var,
    apply_assignment,
    at,
    base,
    compose,
    lambda_signature,
    lift,
    lift_n,
    model_lift_n,
    nat_monad,
    rename,
    subst,
    subst1,
)
from debruijn.gen import random_assignment, random_renaming, random_term

from helpers import app, lam, timed

SIG = lambda_signature()
N = nat_monad()


# --- denotation of the finite representation ----------------------------


def test_apply_assignment_prefix_hit():
    sigma = Assignment((lam(Var(0)),), 0)
    assert apply_assignment(sigma, 0) == lam(Var(0))


def test_apply_assignment_tail_rule():
    sigma = Assignment((lam(Var(0)),), 0)
    assert apply_assignment(sigma, 3) == Var(2)


def test_apply_renaming_shift():
    assert at(Renaming((), 1), 4, NAT) == 5


def test_canonical_form_drops_redundant_prefix():
    # prefix entries the tail already produces are popped on construction
    assert Assignment((Var(5),), 6) == Assignment((), 5)
    assert Renaming((0, 1, 2), 3) == IDENTITY
    # pointwise-equal representations collapse to the same canonical form
    assert Assignment((lam(Var(0)), Var(1)), 2) == Assignment((lam(Var(0)),), 1)
    # a genuinely different entry is kept
    assert Assignment((lam(Var(0)), Var(2)), 2).prefix == (lam(Var(0)), Var(2))


@pytest.mark.parametrize("make", [
    Assignment,
    Renaming,
    lambda prefix, k: TypedAssignment({base("a"): (prefix, k)}),
], ids=["term", "renaming", "typed"])
def test_negative_tail_shift_is_rejected(make):
    # subst(lam(Var 1), [; ^-2]) would make lam(Var -1), not a term
    with pytest.raises(ValueError, match="negative tail shift -2"):
        make((), -2)


def test_negative_naturals_are_rejected():
    # rename(lam(Var 1), [-1; ^0]) would make lam(Var 0), capturing the free variable
    with pytest.raises(ValueError, match="negative natural -1"):
        Renaming((-1,), 0)
    with pytest.raises(ValueError, match="negative natural -2"):
        Assignment((0, -2, 1), 3, NAT)
    # only the naturals' prefix is checked: a term prefix may hold any term
    assert Assignment((Var(-1),), 0).prefix == (Var(-1),)


@pytest.mark.parametrize("lift_by", [
    # lift_n([Var 5; ^2], -1) would give [Var 4; ^1]
    lambda n: lift_n(Assignment((Var(5),), 2), n, SIG),
    lambda n: model_lift_n(N, Renaming((3,), 2), n),
], ids=["terms", "naturals"])
def test_negative_lift_count_is_rejected(lift_by):
    with pytest.raises(ValueError, match="negative lift count -1"):
        lift_by(-1)


def test_canonical_form_soundness():
    rng = random.Random(3)
    for _ in range(200):
        sigma = random_assignment(SIG, rng)
        for n in range(len(sigma.prefix) + 3):
            expected = (
                sigma.prefix[n]
                if n < len(sigma.prefix)
                else Var(sigma.tail_shift + n - len(sigma.prefix))
            )
            assert apply_assignment(sigma, n) == expected
        f = random_renaming(rng)
        for n in range(len(f.prefix) + 3):
            expected = (
                f.prefix[n] if n < len(f.prefix) else f.tail_shift + n - len(f.prefix)
            )
            assert at(f, n, NAT) == expected


# --- lifting ------------------------------------------------------------


def test_lift_renaming_shift():
    assert model_lift_n(N, Renaming((), 1), 1) == Renaming((0,), 2)


def test_lift_renaming_identity():
    assert model_lift_n(N, IDENTITY, 1) == IDENTITY


def test_lift_renaming_prefix():
    lifted = model_lift_n(N, Renaming((5,), 0), 1)
    assert lifted == Renaming((0, 6), 1)
    for n in range(5):
        expected = 0 if n == 0 else at(Renaming((5,), 0), n - 1, NAT) + 1
        assert at(lifted, n, NAT) == expected


def test_lift_identity():
    assert lift(IDENTITY, SIG) == IDENTITY


def test_lift_prefix():
    assert lift(Assignment((lam(Var(0)),), 0), SIG) == Assignment(
        (Var(0), lam(Var(0))), 1
    )


def test_lift_shifted_prefix():
    lifted = lift(Assignment((Var(4),), 9), SIG)
    assert lifted == Assignment((Var(0), Var(5)), 10)
    for n in range(4):
        expected = (
            Var(0)
            if n == 0
            else rename(apply_assignment(Assignment((Var(4),), 9), n - 1), SHIFT_1, SIG)
        )
        assert apply_assignment(lifted, n) == expected


SHIFT_1 = Renaming((), 1)


def test_lift_n():
    sigma = Assignment((Var(3),), 0)
    assert lift_n(sigma, 0, SIG) == sigma
    assert lift_n(IDENTITY, 5, SIG) == IDENTITY
    assert lift_n(sigma, 2, SIG) == Assignment((Var(0), Var(1), Var(5)), 2)


def test_lift_n_renaming_matches_pointwise():
    rng = random.Random(5)
    for _ in range(100):
        f = random_renaming(rng)
        k = rng.randrange(4)
        lifted = model_lift_n(N, f, k)
        for n in range(8):
            expected = n if n < k else at(f, n - k, NAT) + k
            assert at(lifted, n, NAT) == expected


# --- rename and subst ---------------------------------------------------


def test_rename_under_binder():
    assert rename(lam(Var(1)), SHIFT_1, SIG) == lam(Var(2))
    assert rename(lam(Var(0)), Renaming((), 7), SIG) == lam(Var(0))
    assert rename(app(Var(0), Var(1)), SHIFT_1, SIG) == app(Var(1), Var(2))


def test_subst_variables_clause():
    assert subst(Var(3), Assignment((lam(Var(0)),), 0), SIG) == Var(2)


def test_subst_under_binder():
    got = subst(lam(app(Var(1), Var(0))), Assignment((lam(Var(0)),), 0), SIG)
    assert got == lam(app(lam(Var(0)), Var(0)))


def test_subst_identity():
    t = lam(lam(app(Var(1), Var(0))))
    assert subst(t, IDENTITY, SIG) == t


def test_subst1():
    assert subst1(app(Var(0), Var(0)), Var(3), SIG) == app(Var(3), Var(3))
    assert subst1(Var(1), lam(Var(0)), SIG) == Var(0)
    assert subst1(lam(Var(0)), lam(Var(0)), SIG) == lam(Var(0))


def test_shift_assignment_constant():
    # the shift renaming and the term shift are one representation
    assert Renaming((), 1) == Assignment((), 1)
    assert apply_assignment(Renaming((), 1), 4) == Var(5)


# --- compose ------------------------------------------------------------


def test_compose_units():
    rng = random.Random(7)
    for _ in range(100):
        sigma = random_assignment(SIG, rng)
        assert compose(IDENTITY, sigma, SIG) == sigma
        assert compose(sigma, IDENTITY, SIG) == sigma


def test_compose_pointwise():
    sigma = Assignment((Var(1),), 0)
    tau = Assignment((lam(Var(0)),), 0)
    got = compose(sigma, tau, SIG)
    for n in range(4):
        assert apply_assignment(got, n) == subst(
            apply_assignment(sigma, n), tau, SIG
        )


def test_compose_pointwise_fuzz():
    rng = random.Random(13)
    for _ in range(300):
        sigma = random_assignment(SIG, rng)
        tau = random_assignment(SIG, rng)
        got = compose(sigma, tau, SIG)
        for n in range(len(sigma.prefix) + len(tau.prefix) + 3):
            assert apply_assignment(got, n) == subst(
                apply_assignment(sigma, n), tau, SIG
            )


# --- laws ---------------------------------------------------------------


def test_monad_laws_fuzz():
    rng = random.Random(42)
    for _ in range(500):
        t = random_term(SIG, rng, max_depth=5)
        f = random_assignment(SIG, rng)
        g = random_assignment(SIG, rng)
        assert subst(subst(t, f, SIG), g, SIG) == subst(t, compose(f, g, SIG), SIG)
        n = rng.randrange(8)
        assert subst(Var(n), f, SIG) == apply_assignment(f, n)
        assert subst(t, IDENTITY, SIG) == t


def test_renaming_compatibility():
    rng = random.Random(19)
    for _ in range(300):
        t = random_term(SIG, rng, max_depth=5)
        f = random_renaming(rng)
        # f viewed as the assignment n -> Var(f(n))
        as_terms = Assignment(map(Var, f.prefix), f.tail_shift)
        assert rename(t, f, SIG) == subst(t, as_terms, SIG)


def test_lift_interchange():
    rng = random.Random(23)
    for _ in range(500):
        sigma = random_assignment(SIG, rng)
        nu = random_assignment(SIG, rng)
        assert lift(compose(sigma, nu, SIG), SIG) == compose(
            lift(sigma, SIG), lift(nu, SIG), SIG
        )


def test_deep_term_subst_and_rename():
    t = Var(0)
    for _ in range(100_000):
        t = lam(t)
    subst(t, Assignment((lam(Var(0)),), 2), SIG)
    rename(t, Renaming((3,), 1), SIG)


def _chain(depth: int, leaf):
    """``lam (app t 0)`` nested ``depth`` deep over ``leaf``."""
    t = leaf
    for _ in range(depth):
        t = lam(app(t, Var(0)))
    return t


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_compose_and_lift_n(depth):
    """``compose`` and ``lift_n`` of an image whose free variable sits at
    the bottom of ``depth`` binders, so that no bound skips the walk, each
    call in time linear in the depth."""
    bound = 1.0 + depth * 50e-6
    sigma = Assignment((_chain(depth, Var(depth)),), 0)
    tau = Assignment((lam(Var(1)),), 2)
    assert timed(bound, lambda: compose(sigma, tau, SIG)) == Assignment(
        (_chain(depth, lam(Var(depth + 1))), lam(Var(1))), 2)
    assert timed(bound, lambda: lift_n(sigma, 2, SIG)) == Assignment(
        (Var(0), Var(1), _chain(depth, Var(depth + 2))), 2)


def test_closed_term_fixed_by_any_assignment():
    rng = random.Random(29)
    closed = lam(lam(app(Var(1), Var(0))))
    for _ in range(100):
        sigma = random_assignment(SIG, rng)
        assert subst(closed, sigma, SIG) == closed
