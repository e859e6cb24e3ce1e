"""Acceptance gate: one criterion per test, one printed verdict line per
criterion.

Each test exercises the advertised budget (exhaustive small-scale
enumeration where stated, seeded fuzzing elsewhere) and records a
``criterion N <name>: PASS|FAIL`` line that the conftest summary hook
echoes at the end of the run.
"""

from __future__ import annotations

import random
import time

from debruijn import (
    IDENTITY,
    Assignment,
    Op,
    Renaming,
    TOp,
    TVar,
    TypedArity,
    TypedAssignment,
    Var,
    alpha_eq,
    apply_assignment,
    arrow,
    base,
    beta_eta_theory,
    beta_theory,
    bt_enumerate,
    check_morphism,
    compose,
    equiv,
    from_degenerate,
    lambda_signature,
    lift,
    lift_n,
    make_signature,
    named_model,
    normalize,
    rename,
    stlc_schema,
    subst,
    support,
    term_model,
    tlift_gamma,
    to_degenerate,
    to_named,
    tsubst,
    typecheck,
    values_arity,
)
from debruijn.gen import (
    enumerate_assignments,
    enumerate_terms,
    ground_types,
    random_assignment,
    random_term,
    random_typed_assignment,
    random_typed_term,
)
from helpers import debruijn_to_named_direct
from debruijn.signature import instantiate_schema
from debruijn.typed import BTLeaf, BTNode

from conftest import ACCEPTANCE_LINES
from helpers import CHURCH_PLUS, OMEGA, app, church, lam

SIG = lambda_signature()
FO_SIG = make_signature({"f": (0, 0), "c": ()})
MIXED_SIG = make_signature({"m": (2, 0, 1)})
ALL_SIGS = (SIG, FO_SIG, MIXED_SIG)


def record(n: int, name: str, ok: bool):
    line = f"criterion {n} {name}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_monad_laws():
    ok = True
    start = time.time()

    # exhaustive: every depth <= 3 term over indices {0,1,2} against every
    # canonical assignment with prefix length <= 2 over a small pool
    pool = [Var(0), Var(1), lam(Var(0))]
    terms = enumerate_terms(SIG, 3, [0, 1, 2])
    assigns = enumerate_assignments(pool, 2, 2)
    for f in assigns:
        for g in assigns:
            fg = compose(f, g, SIG)
            for t in terms:
                if subst(subst(t, f, SIG), g, SIG) != subst(t, fg, SIG):
                    ok = False
    for t in terms:
        if subst(t, IDENTITY, SIG) != t:
            ok = False
    for f in assigns:
        for n in range(5):
            if subst(Var(n), f, SIG) != apply_assignment(f, n):
                ok = False

    # fuzzed: 2000 cases per signature at depth <= 8
    for sig in ALL_SIGS:
        rng = random.Random(0)
        for _ in range(2000):
            t = random_term(sig, rng, max_depth=8)
            f = random_assignment(sig, rng)
            g = random_assignment(sig, rng)
            if subst(subst(t, f, sig), g, sig) != subst(t, compose(f, g, sig), sig):
                ok = False
            n = rng.randrange(8)
            if subst(Var(n), f, sig) != apply_assignment(f, n):
                ok = False
            if subst(t, IDENTITY, sig) != t:
                ok = False

    elapsed = time.time() - start
    record(1, "monad laws", ok and elapsed < 30.0)


def test_criterion_2_binding_conditions():
    ok = True
    for sig in ALL_SIGS:
        rng = random.Random(1)
        for name, a in sig.ops.items():
            for _ in range(2000 // max(1, len(sig.ops))):
                args = tuple(
                    random_term(sig, rng, max_depth=5) for _ in a.binders
                )
                sigma = random_assignment(sig, rng)
                lhs = subst(Op(name, args), sigma, sig)
                rhs = Op(
                    name,
                    tuple(
                        subst(x, lift_n(sigma, n, sig), sig)
                        for x, n in zip(args, a.binders)
                    ),
                )
                if lhs != rhs:
                    ok = False
    record(2, "binding conditions", ok)


def test_criterion_3_unique_substitution():
    nm = named_model(SIG)
    rng = random.Random(2)
    ok = True
    for _ in range(2000):
        t = random_term(SIG, rng, max_depth=5)
        a = random_assignment(SIG, rng, max_depth=3)
        lhs = to_named(SIG, subst(t, a, SIG))
        rhs = nm.substitution(
            to_named(SIG, t),
            Assignment(tuple(to_named(SIG, u) for u in a.prefix), a.tail_shift),
        )
        if not alpha_eq(lhs, rhs):
            ok = False
    record(3, "uniqueness of substitution", ok)


def test_criterion_4_initiality():
    tm = term_model(SIG)
    nm = named_model(SIG)

    def gen_elem(rng):
        return random_term(SIG, rng, max_depth=5)

    def gen_assign(rng):
        a = random_assignment(SIG, rng, max_depth=3)
        return Assignment(a.prefix, a.tail_shift)

    report = check_morphism(
        lambda t: to_named(SIG, t), tm, nm, SIG, gen_elem, gen_assign,
        cases=2000, seed=3,
    )
    ok = report.ok

    rng = random.Random(3)
    for _ in range(2000):
        t = gen_elem(rng)
        if not alpha_eq(to_named(SIG, t), debruijn_to_named_direct(SIG, t)):
            ok = False
    record(4, "initiality", ok)


def test_criterion_5_substitution_clauses():
    ok = True
    fs = [
        Assignment((lam(Var(0)),), 0),
        Assignment((Var(2), app(Var(0), Var(1))), 1),
        Assignment((), 3),
    ]
    xs = [Var(0), lam(app(Var(1), Var(0))), app(Var(2), lam(Var(0)))]
    ys = [Var(1), lam(Var(2)), app(Var(0), Var(0))]

    for f, x, y, i in zip(fs, xs, ys, (0, 1, 4)):
        # (i) variables clause
        if subst(Var(i), f, SIG) != apply_assignment(f, i):
            ok = False
        # (ii) application clause
        if subst(app(x, y), f, SIG) != app(subst(x, f, SIG), subst(y, f, SIG)):
            ok = False
        # (iii) abstraction clause
        if subst(lam(x), f, SIG) != lam(subst(x, lift(f, SIG), SIG)):
            ok = False
        # (iv) lifted assignment at 0
        if apply_assignment(lift(f, SIG), 0) != Var(0):
            ok = False
        # (v) lifted assignment at n+1
        for n in range(3):
            got = apply_assignment(lift(f, SIG), n + 1)
            want = rename(apply_assignment(f, n), Renaming((), 1), SIG)
            if got != want:
                ok = False
    record(5, "substitution clause parity", ok)


def test_criterion_6_beta_quotient():
    beta = beta_theory()
    betaeta = beta_eta_theory()
    ok = True

    r = normalize(beta, app(lam(Var(0)), Var(3)), 10)
    if r.exhausted or r.term != Var(3):
        ok = False

    start = time.time()
    r = normalize(beta, app(app(CHURCH_PLUS, church(2)), church(2)), 10_000)
    if r.exhausted or r.term != church(4) or time.time() - start > 1.0:
        ok = False

    r = normalize(beta, OMEGA, 50)
    if not r.exhausted:
        ok = False
    if equiv(beta, OMEGA, Var(0), 50) != "unknown":
        ok = False

    expansion = lam(app(rename(Var(5), Renaming((), 1), SIG), Var(0)))
    if equiv(betaeta, expansion, Var(5)) != "yes":
        ok = False
    record(6, "beta quotient", ok)


def test_criterion_7_typed_extension():
    sch = stlc_schema({"a"})
    pool = ground_types(sch.grammar)
    rng = random.Random(5)
    ok = True
    from debruijn import tcompose
    from debruijn.typed import typed_assignment_at

    for _ in range(2000):
        ty = rng.choice(pool)
        t = random_typed_term(sch, rng, ty, max_depth=4)
        f = random_typed_assignment(sch, rng)
        g = random_typed_assignment(sch, rng)
        # typed monad laws
        if tsubst(tsubst(t, f, sch), g, sch) != tsubst(t, tcompose(f, g, sch), sch):
            ok = False
        n = rng.randrange(4)
        if tsubst(TVar(n, ty), f, sch) != typed_assignment_at(f, ty, n):
            ok = False
        if tsubst(t, TypedAssignment(), sch) != t:
            ok = False
        # subject invariance
        if typecheck(sch, tsubst(t, f, sch)) != ty:
            ok = False
        # typed binding condition on a sampled operation instance
        s_, t2 = rng.choice(pool), rng.choice(pool)
        name = rng.choice(("lam", "app"))
        ar = instantiate_schema(sch.schemas[name], (s_, t2), sch.grammar)
        args = tuple(
            random_typed_term(sch, rng, tau, max_depth=3) for _, tau in ar.premises
        )
        lhs = tsubst(TOp(name, (s_, t2), args), f, sch)
        rhs = TOp(
            name,
            (s_, t2),
            tuple(
                tsubst(x, tlift_gamma(f, gamma, sch), sch)
                for x, (gamma, _) in zip(args, ar.premises)
            ),
        )
        if lhs != rhs:
            ok = False

    # degenerate single-type reduction, node for node
    from debruijn import degenerate_schema

    deg = degenerate_schema(SIG)
    o = base("o")
    rng = random.Random(6)
    for _ in range(500):
        t = random_term(SIG, rng, max_depth=5)
        a = random_assignment(SIG, rng)
        dsigma = TypedAssignment(
            {o: (tuple(to_degenerate(u) for u in a.prefix), a.tail_shift)}
        )
        if from_degenerate(tsubst(to_degenerate(t), dsigma, deg)) != subst(t, a, SIG):
            ok = False
    record(7, "typed extension", ok)


def test_criterion_8_support():
    ok = support(app(Var(0), Var(2)), SIG) == 3
    rng = random.Random(7)
    for _ in range(2000):
        t = random_term(SIG, rng, max_depth=6)
        n = support(t, SIG)
        f1 = random_assignment(SIG, rng)
        # f2 agrees with f1 below n and is arbitrary from n on
        shared = tuple(apply_assignment(f1, i) for i in range(n))
        extra = tuple(
            random_term(SIG, rng, max_depth=3) for _ in range(rng.randint(0, 2))
        )
        f2 = Assignment(shared + extra, rng.randint(0, 5))
        if subst(t, f1, SIG) != subst(t, f2, SIG):
            ok = False
    record(8, "support", ok)


def test_criterion_9_lifting_identities():
    ok = lift(IDENTITY, SIG) == IDENTITY
    rng = random.Random(8)
    for _ in range(2000):
        sigma = random_assignment(SIG, rng)
        nu = random_assignment(SIG, rng)
        if lift(compose(sigma, nu, SIG), SIG) != compose(
            lift(sigma, SIG), lift(nu, SIG), SIG
        ):
            ok = False
    record(9, "lifting identities", ok)


def test_criterion_10_values_signature():
    t1, t2, s = base("t1"), base("t2"), base("s")
    ok = True

    # single-leaf tree: the arity of lambda-abstraction
    if values_arity(BTLeaf(t2), s) != TypedArity((((s,), t2),), arrow(s, t2)):
        ok = False

    # two-leaf application tree
    node = BTNode(BTLeaf(arrow(t1, t2)), BTLeaf(t1))
    if values_arity(node, s) != TypedArity(
        (((s,), arrow(t1, t2)), ((s,), t1)), arrow(s, t2)
    ):
        ok = False

    from debruijn import TypeGrammar

    grammar = TypeGrammar({"t1": 0, "t2": 0, "->": 2})
    got = bt_enumerate(grammar, t2, 2, context_types=(arrow(t1, t2), t1))
    two_leaf = [d for d in got if d != BTLeaf(t2)]
    if two_leaf != [node] or BTLeaf(t2) not in got:
        ok = False
    record(10, "values signature", ok)
