"""The one finite assignment over every carrier: the naturals (renamings),
terms, the named model, and the per-type components of typed assignments.

Pointwise, for random assignments and up to four binders: the n-fold lift
agrees with iterating the one-step definition (or with the definitional
references in ``helpers``), composition is substitution of the first
image into the second assignment, and canonical trimming never changes
the denoted map."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from debruijn import (
    NAT,
    Assignment,
    Renaming,
    TVar,
    TypedAssignment,
    Var,
    alpha_eq,
    apply_assignment,
    arrow,
    at,
    base,
    compose,
    lambda_signature,
    lift_n,
    make_signature,
    model_compose,
    model_lift_n,
    named_model,
    nat_monad,
    stlc_schema,
    tcompose,
    tlift_gamma,
    to_named,
)
from debruijn.gen import (
    random_assignment,
    random_renaming,
    random_term,
    random_typed_assignment,
    random_typed_term,
)
from debruijn.typed import typed_assignment_at

from helpers import ref_lift_n, ref_subst, ref_tlift_gamma, ref_tsubst

SIG = lambda_signature()
MIXED_SIG = make_signature({"m": (2, 0, 1)})
SCH = stlc_schema({"a", "b"})
A, B = base("a"), base("b")
TYPES = (A, B, arrow(A, A))
GAMMA = (A, B, A, arrow(A, A))  # lifting by n binds GAMMA[:n]
NM = named_model(SIG)
MAX_N = 4
INDICES = range(10)


def iterate_lift(at_a, n, var, shift1):
    """The n-fold lift by its one-step definition: 0 -> var(0),
    i + 1 -> the image of i shifted by one."""
    for _ in range(n):
        at_a = (lambda f: lambda i: var(0) if i == 0 else shift1(f(i - 1)))(at_a)
    return at_a


def _nat():
    return SimpleNamespace(
        var=lambda i: i,
        element=lambda rng: rng.randrange(6),
        random=random_renaming,
        build=Renaming,
        at=lambda a, i: at(a, i, NAT),
        lift=lambda a, n: model_lift_n(nat_monad(), a, n),
        ref_lift=lambda a, n: iterate_lift(
            lambda i: at(a, i, NAT), n, lambda i: i, lambda r: r + 1
        ),
        compose=lambda f, g: model_compose(nat_monad(), f, g),
        image=lambda x, g: at(g, x, NAT),
        equal=lambda x, y: x == y,
    )


def _term():
    return SimpleNamespace(
        var=Var,
        element=lambda rng: random_term(MIXED_SIG, rng, max_depth=3),
        random=lambda rng: random_assignment(MIXED_SIG, rng, max_depth=3),
        build=Assignment,
        at=apply_assignment,
        lift=lambda a, n: lift_n(a, n, MIXED_SIG),
        ref_lift=lambda a, n: lambda i: apply_assignment(ref_lift_n(a, n, MIXED_SIG), i),
        compose=lambda f, g: compose(f, g, MIXED_SIG),
        image=lambda x, g: ref_subst(x, g, MIXED_SIG),
        equal=lambda x, y: x == y,
    )


def _named():
    def random_named(rng):
        a = random_assignment(SIG, rng, max_depth=3)
        return Assignment(tuple(to_named(SIG, u) for u in a.prefix), a.tail_shift, NM.variables)

    return SimpleNamespace(
        var=NM.variables,
        element=lambda rng: to_named(SIG, random_term(SIG, rng, max_depth=3)),
        random=random_named,
        build=lambda prefix, k: Assignment(prefix, k, NM.variables),
        at=lambda a, i: at(a, i, NM.variables),
        lift=lambda a, n: model_lift_n(NM, a, n),
        ref_lift=lambda a, n: iterate_lift(
            lambda i: at(a, i, NM.variables), n, NM.variables,
            lambda x: NM.substitution(x, Renaming((), 1)),
        ),
        compose=lambda f, g: model_compose(NM, f, g),
        image=NM.substitution,
        equal=alpha_eq,
    )


def _typed():
    """Typed assignments, looked up at every type of ``TYPES`` at once;
    trimming is checked on the component at ``A``."""

    def at_types(a, i):
        return tuple(typed_assignment_at(a, ty, i) for ty in TYPES)

    return SimpleNamespace(
        var=lambda i: TVar(i, A),
        element=lambda rng: random_typed_term(SCH, rng, A, 3, list(TYPES)),
        random=lambda rng: random_typed_assignment(SCH, rng, list(TYPES)),
        build=lambda prefix, k: TypedAssignment({A: (prefix, k)}),
        at=at_types,
        trim_at=lambda a, i: typed_assignment_at(a, A, i),
        lift=lambda a, n: tlift_gamma(a, GAMMA[:n], SCH),
        ref_lift=lambda a, n: lambda i: at_types(ref_tlift_gamma(a, GAMMA[:n], SCH), i),
        compose=lambda f, g: tcompose(f, g, SCH),
        image=lambda xs, g: tuple(ref_tsubst(x, g, SCH) for x in xs),
        equal=lambda x, y: x == y,
    )


CARRIERS = {"nat": _nat(), "term": _term(), "named": _named(), "typed": _typed()}


@pytest.fixture(params=list(CARRIERS))
def carrier(request):
    return CARRIERS[request.param]


def test_lift_n_matches_one_step_definition(carrier):
    c = carrier
    rng = random.Random(11)
    for _ in range(60):
        a = c.random(rng)
        for n in range(MAX_N + 1):
            lifted, ref = c.lift(a, n), c.ref_lift(a, n)
            for i in INDICES:
                assert c.equal(c.at(lifted, i), ref(i)), (a, n, i)


def test_compose_is_pointwise_substitution(carrier):
    c = carrier
    rng = random.Random(12)
    for _ in range(60):
        f, g = c.random(rng), c.random(rng)
        h = c.compose(f, g)
        for i in INDICES:
            assert c.equal(c.at(h, i), c.image(c.at(f, i), g)), (f, g, i)


def test_trimming_keeps_the_denoted_map(carrier):
    c = carrier
    look = getattr(c, "trim_at", c.at)
    rng = random.Random(13)
    for _ in range(200):
        prefix = tuple(c.element(rng) for _ in range(rng.randint(0, 3)))
        k, m = rng.randint(0, 3), rng.randint(0, 3)
        # m trailing entries that the tail would produce anyway
        raw = prefix + tuple(c.var(k + j) for j in range(m))
        built = c.build(raw, k + m)
        for i in range(len(raw) + 4):
            want = raw[i] if i < len(raw) else c.var(k + m + i - len(raw))
            assert look(built, i) == want
        assert built == c.build(prefix, k)
        one = built.component(A) if isinstance(built, TypedAssignment) else built
        if one.prefix and one.tail_shift:
            assert one.prefix[-1] != c.var(one.tail_shift - 1)
