"""The traversal kernel and the substitutions built on it, checked against
the definitional references in ``helpers``: results, sharing with the
input, and rejection of nodes that are not terms."""

from __future__ import annotations

import gc
import importlib
import operator
import random
import time

import pytest

from debruijn import (
    IDENTITY,
    Assignment,
    ExplicitSubst,
    MetaVar,
    Op,
    Renaming,
    TOp,
    TVar,
    TypecheckError,
    TypedAssignment,
    Var,
    arrow,
    base,
    compile_pattern,
    compose,
    lambda_signature,
    lift_n,
    make_signature,
    map_free_vars,
    match_pattern,
    rename,
    stlc_schema,
    subst,
    support,
    to_named,
    tsubst,
    wellformed,
)
from debruijn.gen import (
    ground_types,
    random_assignment,
    random_renaming,
    random_term,
    random_typed_assignment,
    random_typed_term,
)
from debruijn.equational import _plug
from debruijn.model import initial_fold, term_model
from debruijn.term import fold_nodes
from debruijn.typed import _shift, tlift_gamma

from helpers import (
    app,
    as_callback,
    lam,
    list_stack_map_free_tvars,
    list_stack_map_free_vars,
    ref_multi_shift,
    ref_rename,
    ref_subst,
    ref_tsubst,
    ref_unshift,
    same_term,
    tuple_stack_map_free_vars,
    tuple_stack_support,
)

SIG = lambda_signature()
FO_SIG = make_signature({"f": (0, 0), "c": ()})
MIXED_SIG = make_signature({"m": (2, 0, 1)})
SCH = stlc_schema({"a", "b"})
A = base("a")


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_subst_and_rename_match_reference(sig):
    rng = random.Random(41)
    for _ in range(300):
        t = random_term(sig, rng, max_depth=5)
        sigma = random_assignment(sig, rng, max_depth=3)
        assert subst(t, sigma, sig) == ref_subst(t, sigma, sig)
        f = random_renaming(rng)
        assert rename(t, f, sig) == ref_rename(t, f, sig)


def test_tsubst_and_multi_shift_match_reference():
    rng = random.Random(43)
    pool = ground_types(SCH.grammar)
    for _ in range(300):
        t = random_typed_term(SCH, rng, rng.choice(pool), max_depth=4)
        sigma = random_typed_assignment(SCH, rng)
        assert tsubst(t, sigma, SCH) == ref_tsubst(t, sigma, SCH)
        by = {ty: rng.randint(0, 2) for ty in rng.sample(pool, 2)}
        slot = {ty: i for i, ty in enumerate(by)}
        assert _shift(t, tuple(by.values()), SCH, slot) == ref_multi_shift(t, by, SCH)


def test_identity_returns_the_input():
    rng = random.Random(47)
    for sig in (SIG, FO_SIG, MIXED_SIG):
        t = random_term(sig, rng, max_depth=6)
        assert subst(t, IDENTITY, sig) is t
        assert rename(t, Renaming((), 0), sig) is t
    t = random_typed_term(SCH, rng, arrow(A, A), max_depth=4)
    assert tsubst(t, TypedAssignment(), SCH) is t
    assert _shift(t, (0,), SCH, {A: 0}) is t


def test_unchanged_subterms_are_shared():
    closed = lam(lam(app(Var(1), Var(0))))
    t = app(closed, Var(0))
    shifted = rename(t, Renaming((), 1), SIG)
    assert shifted == app(closed, Var(1))
    assert shifted.args[0] is closed
    assert rename(closed, Renaming((), 3), SIG) is closed
    assert subst(closed, Assignment((Var(7),), 2), SIG) is closed
    # a renaming that fixes every free variable rebuilds nothing
    assert rename(t, Renaming((0,), 2), SIG) is t

    tclosed = TOp("lam", (A, A), (TVar(0, A),))
    tt = TOp("app", (A, A), (tclosed, TVar(0, A)))
    out = tsubst(tt, TypedAssignment({A: ((TVar(5, A),), 0)}), SCH)
    assert out == TOp("app", (A, A), (tclosed, TVar(5, A)))
    assert out.args[0] is tclosed
    assert _shift(tclosed, (2,), SCH, {A: 0}) is tclosed


def test_substitution_images_are_shared_across_occurrences():
    image = lam(app(Var(0), Var(3)))
    t = app(lam(app(Var(1), Var(1))), Var(0))
    out = subst(t, Assignment((image,), 0), SIG)
    inner = out.args[0].args[0]
    assert inner.args[0] is inner.args[1]
    assert out == ref_subst(t, Assignment((image,), 0), SIG)


def test_support_memo_is_kept_per_signature():
    # lam binds one variable under SIG and two under TWO
    two = make_signature({"lam": (2,), "app": (0, 0)})
    node = lam(app(Var(1), Var(0)))
    sigma = Assignment((Var(7),), 0)
    for _ in range(2):
        assert support(node, SIG) == 1
        assert subst(node, sigma, two) is node
        assert support(node, two) == 0
        assert subst(node, sigma, SIG) == lam(app(Var(8), Var(0)))
        assert support(node, SIG) == 1


def _dag_term(rng, closed, depth):
    """A lambda term whose leaves are often one of the shared ``closed``
    subterms, so the same object sits at many positions and depths."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(closed) if rng.random() < 0.5 else Var(rng.randrange(4))
    if r < 0.6:
        return lam(_dag_term(rng, closed, depth - 1))
    return app(_dag_term(rng, closed, depth - 1), _dag_term(rng, closed, depth - 1))


def _shared_positions(t, out, closed):
    """Whether each occurrence of a ``closed`` subterm of ``t`` is the
    very same object at the same position of ``out``."""
    ids = set(map(id, closed))
    stack = [(t, out)]
    while stack:
        x, y = stack.pop()
        if id(x) in ids:
            if x is not y:
                return False
        elif type(x) is Op:
            stack.extend(zip(x.args, y.args))
    return True


def test_kernel_skips_shared_closed_subterms():
    rng = random.Random(61)
    for _ in range(200):
        closed = []
        for _ in range(3):
            c = random_term(SIG, rng, max_depth=4, max_index=3)
            for _ in range(support(c, SIG)):
                c = lam(c)
            closed.append(c)
        t = _dag_term(rng, closed, 6)
        if rng.random() < 0.5:
            support(t, SIG)  # open subterms memoized too
        sigma = random_assignment(SIG, rng, max_depth=3)
        f = random_renaming(rng)
        out = subst(t, sigma, SIG)
        assert same_term(out, ref_subst(t, sigma, SIG))
        assert _shared_positions(t, out, closed)
        out = rename(t, f, SIG)
        assert same_term(out, ref_rename(t, f, SIG))
        assert _shared_positions(t, out, closed)
        assert all(subst(c, sigma, SIG) is c for c in closed)


def _binder_heavy_term(sig, rng, size, depth=0):
    """A random term of about ``size`` nodes whose indices at binder depth
    ``depth`` are drawn below depth + 3, now and then far above: many of
    its subterms are closed at their own depth and many are not, under
    binder depths up to ``size`` (lambda) or ``2 * size`` (MIXED)."""
    if size <= 1 or rng.random() < 0.1:
        return Var(rng.randrange(depth + 3) if rng.random() < 0.95 else depth + 10_000)
    name, a = rng.choice(sorted(sig.ops.items()))
    cuts = sorted(rng.randrange(size) for _ in a.binders[1:])
    sizes = [j - i for i, j in zip([0, *cuts], [*cuts, size - 1])]
    return Op(name, tuple(
        _binder_heavy_term(sig, rng, m, depth + n) for m, n in zip(sizes, a.binders)
    ))


def _skipped_are_shared(t, out, sig) -> bool:
    """Whether each subterm of ``t`` closed at its depth by its bound
    ``_top`` comes back as the very same object in ``out``."""
    stack = [(t, out, 0)]
    while stack:
        x, y, depth = stack.pop()
        if type(x) is not Op:
            continue
        if x._top <= depth:
            if x is not y:
                return False
        else:
            stack.extend(
                (a, b, depth + n) for a, b, n in zip(x.args, y.args, sig.ops[x.name].binders)
            )
    return True


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_skip_by_bound_matches_reference(sig):
    rng = random.Random(67)
    closed = open_ = 0
    for _ in range(150):
        t = _binder_heavy_term(sig, rng, rng.randrange(2, 120))
        sigma = random_assignment(sig, rng, max_depth=3)
        f = random_renaming(rng)
        for out, want in (
            (subst(t, sigma, sig), ref_subst(t, sigma, sig)),
            (rename(t, f, sig), ref_rename(t, f, sig)),
        ):
            assert same_term(out, want)
            assert _skipped_are_shared(t, out, sig)
        for k in range(3):
            pattern = ExplicitSubst(MetaVar(0), Assignment((), k))
            want = ref_unshift(t, k, sig)
            got = match_pattern(compile_pattern(pattern, 1), t, sig)
            assert got == (None if want is None else [want])
        stack = [(t, 0)]
        while stack:
            x, depth = stack.pop()
            if type(x) is Op:
                closed += x._top <= depth
                open_ += x._top > depth
                stack.extend(zip(x.args, (depth + n for n in sig.ops[x.name].binders)))
    assert closed > 100 and open_ > 100


def test_non_term_nodes_raise_type_error():
    bad = app(Var(0), "not a term")
    with pytest.raises(TypeError):
        map_free_vars(bad, SIG, lambda d, n: Var(n))
    with pytest.raises(TypeError):
        subst(bad, Assignment((Var(3),), 0), SIG)
    with pytest.raises(TypeError):
        rename(lam(bad), Renaming((), 1), SIG)
    tbad = TOp("app", (A, A), (TVar(0, arrow(A, A)), "not a term"))
    with pytest.raises(TypeError):
        tsubst(tbad, TypedAssignment({A: ((), 1)}), SCH)
    with pytest.raises(TypeError):
        _shift(tbad, (1,), SCH, {A: 0})


def test_wrong_argument_count_raises():
    # an extra argument must raise, not be dropped with a corrupt result
    bad = app(Op("app", (Var(0), Var(1), Var(2))), Var(3))
    with pytest.raises(ValueError):
        subst(bad, Assignment((Var(5),), 0), SIG)
    with pytest.raises(ValueError):
        support(bad, SIG)
    tbad = TOp("lam", (A, A), (TVar(0, A), TVar(1, A)))
    with pytest.raises(ValueError):
        tsubst(tbad, TypedAssignment({A: ((), 1)}), SCH)


def test_closed_subterms_are_not_walked():
    # an unknown operation inside a subterm closed at its depth is never
    # looked up by the kernel; wellformed is what reports it
    closed = lam(Op("foo", (Var(0), Op("c", ()))))
    t = app(Var(0), closed)
    out = subst(t, Assignment((Var(4),), 0), SIG)
    assert out == app(Var(4), closed) and out.args[1] is closed
    assert rename(closed, Renaming((), 2), SIG) is closed
    assert wellformed(SIG, t) == [
        "unknown operation 'foo' at [1, 0]",
    ]
    with pytest.raises(KeyError):
        subst(app(Var(0), lam(Op("foo", (Var(1),)))), Assignment((Var(4),), 0), SIG)


def test_wellformed_paths_and_order():
    t = lam(app(Op("app", (Var(0),)), app(Var(-1), Op("foo", ()))))
    assert wellformed(SIG, t) == [
        "operation 'app' expects 2 arguments, got 1 at [0, 0]",
        "negative variable index at [0, 1, 0]",
        "unknown operation 'foo' at [0, 1, 1]",
    ]
    assert wellformed(SIG, app(Var(0), "x")) == ["not a term at [1]: 'x'"]


def test_shifting_a_lone_typed_variable_matches_the_walk():
    """``_shift`` moves a lone ``TVar`` to what the kernel gives with
    ``_shift``'s callback, sharing and slot table alike: its type's slot
    present or absent, a shift of 0 or not, an index below 0."""
    B = base("b")

    def walk(t, by, slot):
        def on_free(node, s, m, depth):
            return TVar(node.index + by[s], node.ty) if s < len(by) else node
        return map_free_vars(t, SCH, on_free, slot)

    for v in (TVar(0, A), TVar(3, A), TVar(2, B), TVar(-1, A), TVar(5, arrow(A, B))):
        for by in ((2,), (0, 2), (2, 0), (1, 3)):
            for slot in ({}, {A: 0}, {B: 0}, {A: 0, B: 1}, {B: 0, A: 1}):
                new_slot, old_slot = dict(slot), dict(slot)
                new, old = _shift(v, by, SCH, new_slot), walk(v, by, old_slot)
                assert new == old and (new is v) == (old is v) and new_slot == old_slot
        assert _shift(v, (0, 0), SCH, {A: 0}) is v


def test_deep_typed_substitution():
    t = TVar(100_000, A)
    for _ in range(100_000):
        t = TOp("lam", (A, A), (t,))
    out = tsubst(t, TypedAssignment({A: ((TVar(2, A),), 0)}), SCH)
    for _ in range(100_000):
        out = out.args[0]
    assert out == TVar(100_002, A)


# --- the parallel-list kernels against the tuple-stack copies ------------

SUBST_MODULE = importlib.import_module("debruijn.subst")
TERM_MODULE = importlib.import_module("debruijn.term")


def _on_tuple_stack(monkeypatch, call):
    """``call()`` with ``subst`` and ``rename`` on the tuple-stack kernel,
    the image shifts nested in their walks too."""
    with monkeypatch.context() as m:
        m.setattr(SUBST_MODULE, "map_free_vars", tuple_stack_map_free_vars)
        m.setattr(TERM_MODULE, "map_free_vars", tuple_stack_map_free_vars)
        return call()


def _same_sharing(t, new, old) -> bool:
    """Whether ``new`` and ``old`` keep the same subterms of ``t``: at each
    position, either both are ``t``'s node itself or neither is."""
    stack = [(t, new, old)]
    while stack:
        x, y, z = stack.pop()
        if (y is x) != (z is x):
            return False
        if y is not x and type(x) in (Op, TOp):
            stack.extend(zip(x.args, y.args, z.args))
    return True


def _memos(t, sig) -> list:
    """The support memo of every operation node of ``t`` under ``sig``."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if type(x) is Op:
            out.append(x._sup if x._sig is sig else None)
            stack.extend(x.args)
    return out


def _check_against_tuple_stack(monkeypatch, t, u, sig, calls, bound=None):
    """Each of ``calls`` (on ``t``) agrees with the tuple-stack kernel, on
    the result and on what it shares with ``t``; ``support`` of ``t``
    agrees with the tuple-stack ``support`` of ``u``, an unshared copy,
    on the result and on every memo.  Each library call takes under
    ``bound`` seconds when one is given."""

    def timed(call):
        start = time.perf_counter()
        out = call()
        if bound is not None:
            assert time.perf_counter() - start < bound
        return out

    for call in calls:
        new = timed(call)
        old = _on_tuple_stack(monkeypatch, call)
        assert same_term(new, old)
        assert _same_sharing(t, new, old)
    assert timed(lambda: support(t, sig)) == tuple_stack_support(u, sig)
    assert _memos(t, sig) == _memos(u, sig)


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_kernels_match_tuple_stack_copies(sig, monkeypatch):
    rng = random.Random(71)
    for i in range(200):
        seed = rng.randrange(1 << 30)
        if i % 2:
            t, u = (random_term(sig, random.Random(seed), max_depth=6) for _ in range(2))
        else:
            t, u = (_binder_heavy_term(sig, random.Random(seed), 80) for _ in range(2))
        sigma = random_assignment(sig, rng, max_depth=3)
        f = random_renaming(rng)
        calls = (lambda: subst(t, sigma, sig), lambda: rename(t, f, sig))
        _check_against_tuple_stack(monkeypatch, t, u, sig, calls)
        # again with every node of t memoized: the kernels skip by the memo
        _check_against_tuple_stack(monkeypatch, t, u, sig, calls)


def _chain(depth: int):
    """``lam (app t i)`` nested ``depth`` deep over a free leaf, with i
    cycling through 0 .. 4: free near the root, bound below it."""
    t = Var(depth + 2)
    for level in range(depth):
        t = lam(app(t, Var(level % 5)))
    return t


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_chains_match_tuple_stack_copies(depth, monkeypatch):
    t, u = _chain(depth), _chain(depth)
    sigma = Assignment((lam(Var(1)), Var(3)), 2)
    f = Renaming((2, 0), 1)
    calls = (
        lambda: subst(t, sigma, SIG),
        lambda: rename(t, f, SIG),
        lambda: rename(t, Renaming((), 4), SIG),
    )
    _check_against_tuple_stack(monkeypatch, t, u, SIG, calls, bound=10.0)


# --- the frame kernels against the list-stack copies ----------------------

TYPED_MODULE = importlib.import_module("debruijn.typed")


def _outcome(walk):
    """``walk()``, or the type and message of the error it raised."""
    try:
        return walk()
    except (TypeError, ValueError, KeyError, TypecheckError) as e:
        return type(e), str(e)


def _agree(t, new, old) -> bool:
    """The same error, or equal results sharing the same subterms of ``t``."""
    if type(old) is tuple:
        return new == old
    if type(new) is tuple:
        return False
    same = same_term(new, old) if type(new) in (Var, Op) else new == old
    return same and _same_sharing(t, new, old)


def _bury(bad, levels, wrap):
    """``bad`` ``levels`` operations down, each made by ``wrap(child)``."""
    for _ in range(levels):
        bad = wrap(bad)
    return bad


def _frame_cases(sig, rng):
    """Random and binder-heavy terms over ``sig``, then ``bad``, nodes that
    are not terms or have the wrong arity, each at the root and buried
    three levels down five times; returns the cases and ``bad``."""
    ops = [(name, len(ns)) for name, ns in sig.binders.items() if ns]

    def wrap(child):  # child at a random argument, free variables beside it
        name, n = rng.choice(ops)
        args = [random_term(sig, rng, max_depth=2) for _ in range(n)]
        args[rng.randrange(n)] = child
        return Op(name, tuple(args))

    bad = ["x", None, *(Op(name, (Var(50),) * (len(ns) + 1)) for name, ns in sig.binders.items())]
    bad += [Op(name, (Var(50),) * (len(ns) - 1)) for name, ns in sig.binders.items() if len(ns) > 1]
    cases = [random_term(sig, rng, max_depth=6) for _ in range(150)]
    cases += [_binder_heavy_term(sig, rng, 80) for _ in range(50)]
    cases += bad + [_bury(b, 3, wrap) for b in bad for _ in range(5)]
    return cases, bad


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_frame_kernel_matches_list_stack_copy(sig):
    """``map_free_vars`` against its one-entry-per-node predecessor: the
    result, what it shares with the input (the root too) and, at a node
    that is not a term or has the wrong arity, at the root or three
    levels down, the exception and its message."""
    images = (lam(app(Var(1), Var(0))), Var(4))
    callbacks = (lambda d, n: Var(n), lambda d, n: Var(n + 1), lambda d, n: images[n % 2])
    cases, bad = _frame_cases(sig, random.Random(79))
    raised = 0
    for t in cases:
        for on_free in callbacks:
            new = _outcome(lambda: map_free_vars(t, sig, on_free))
            old = _outcome(lambda: list_stack_map_free_vars(t, sig, on_free))
            assert _agree(t, new, old)
            raised += type(old) is tuple
    assert raised == 3 * len(bad) * 6
    assert map_free_vars(cases[0], sig, callbacks[0]) is cases[0]


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_integer_shift_matches_its_callback(sig):
    """``map_free_vars(t, sig, k)`` against the callback it stands for,
    ``lambda d, n: Var(n + k)``, on the cases above: the result, what it
    shares with the input and the exception and its message."""
    cases, bad = _frame_cases(sig, random.Random(79))
    raised = 0
    for t in cases:
        for k in (0, 1, 3):
            new = _outcome(lambda: map_free_vars(t, sig, k))
            old = _outcome(lambda: map_free_vars(t, sig, lambda d, n: Var(n + k)))
            assert _agree(t, new, old)
            raised += type(old) is tuple
    assert raised == 3 * len(bad) * 6


def _assignment_cases(sig, rng):
    """Random assignments over ``sig``, one fixing every variable, pure
    shifts, and prefixes of a variable below 0 and of non-terms."""
    cases = [random_assignment(sig, rng, max_depth=3) for _ in range(6)]
    cases += [Assignment((Var(0), Var(2), Var(1)), 3), Assignment((), 2), IDENTITY]
    return cases + [Assignment((Var(-1),), 1), Assignment(("x", Var(1)), 0)]


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_assignment_matches_its_callback(sig):
    """``map_free_vars(t, sig, sigma)`` against the callback ``subst`` built
    for ``sigma`` before the kernel applied it (``helpers.as_callback``),
    on the cases above: the result, what it shares with the input and the
    exception and its message."""
    cases, bad = _frame_cases(sig, random.Random(79))
    sigmas = _assignment_cases(sig, random.Random(97))
    raised = 0
    for t in cases:
        for sigma in sigmas:
            new = _outcome(lambda: map_free_vars(t, sig, sigma))
            old = _outcome(lambda: map_free_vars(t, sig, as_callback(sigma, sig)))
            assert _agree(t, new, old)
            raised += type(old) is tuple
    assert raised >= len(bad) * 6 * len(sigmas)


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_chains_assignment_matches_its_callback(depth):
    t = _chain(depth)
    for sigma in (Assignment((lam(Var(1)), Var(3)), 2), Assignment((Var(2), Var(0)), 1),
                  Assignment((Var(0), Var(1), app(Var(0), Var(2))), 3)):
        start = time.perf_counter()
        new = map_free_vars(t, SIG, sigma)
        assert time.perf_counter() - start < 10.0
        old = map_free_vars(t, SIG, as_callback(sigma, SIG))
        assert same_term(new, old) and _same_sharing(t, new, old)


# sends free index 2 to 9 and keeps every other free index
FIX_BUT_2 = Assignment((Var(0), Var(1), Var(9)), 3)
# per signature: an operation at binder depth e all of whose arguments are
# free index 0 at their depth (walked, since its bound is past e, and kept
# by FIX_BUT_2); the same with free index 2 at argument 0; a spine level
# around x, kept variables beside it, and the binders it puts above x
_FLAG_SIGS = {
    "lambda": (SIG, lambda e: app(Var(e), Var(e)), lambda e: app(Var(e + 2), Var(e)),
               lambda x: lam(app(x, Var(0))), 1),
    "MIXED": (MIXED_SIG, lambda e: Op("m", (Var(e + 2), Var(e), Var(e + 1))),
              lambda e: Op("m", (Var(e + 4), Var(e), Var(e + 1))),
              lambda x: Op("m", (x, Var(0), Var(0))), 2),
}


def _flag_cases(sig, fixed, changed, depth, kept_vars):
    """For each operation of ``sig`` at binder depth ``depth``: the node with
    every argument kept (operations, then variables if ``kept_vars``), and
    for each argument p, the node with p changed directly (free index 2) or
    in a child frame that rebuilds (``changed``) and kept operations beside
    it.  Yields (node, p, direct); p is None when nothing changes."""
    for name, ns in sig.binders.items():
        yield Op(name, tuple(fixed(depth + n) for n in ns)), None, None
        if kept_vars:
            yield Op(name, tuple(Var(depth + n) for n in ns)), None, None
        for p in range(len(ns)):
            for direct in (True, False):
                args = [fixed(depth + n) for n in ns]
                e = depth + ns[p]
                args[p] = Var(e + 2) if direct else changed(e)
                yield Op(name, tuple(args)), p, direct


@pytest.mark.parametrize("levels", [0, 1_000, 10_000, 100_000], ids=["d0", "d1k", "d10k", "d100k"])
@pytest.mark.parametrize("which", ["lambda", "MIXED"])
def test_a_node_is_rebuilt_only_when_an_argument_changed(which, levels):
    """Operations of 1, 2 and 3 arguments, at the root and under ``levels``
    spine levels: a node none of whose arguments changed comes back as
    itself; a node with one changed argument, directly or in a child frame
    that rebuilt, is rebuilt and shares every other argument, and so is
    each spine node above it; the identity and every pure shift of 0 return
    the input itself.  Results agree with the callback form."""
    sig, fixed, changed, wrap, step = _FLAG_SIGS[which]
    per = 2 if which == "lambda" else 1  # spine nodes a level
    for node, p, direct in _flag_cases(sig, fixed, changed, levels * step, not levels):
        t = node
        for _ in range(levels):
            t = wrap(t)
        assert subst(t, IDENTITY, sig) is t and rename(t, Renaming((), 0), sig) is t
        if p is None or not levels:
            for keep in (IDENTITY, 0, lambda d, n: Var(n)):
                assert map_free_vars(t, sig, keep) is t
        out = subst(t, FIX_BUT_2, sig)
        if p is None:
            assert out is t
            continue
        if levels < 100_000:  # test_deep_chains_assignment_matches_its_callback has 100k
            assert same_term(out, map_free_vars(t, sig, as_callback(FIX_BUT_2, sig)))
        x, y, spine = t, out, 0
        while x is not node:
            assert y is not x and all(map(operator.is_, x.args[1:], y.args[1:]))
            x, y, spine = x.args[0], y.args[0], spine + 1
        assert spine == levels * per and y is not x and type(y) is Op
        assert all(b is a for i, (a, b) in enumerate(zip(x.args, y.args)) if i != p)
        a, b = x.args[p], y.args[p]
        assert b is not a
        if direct:
            assert b == Var(a.index + 7)
        else:
            assert b.args[0] == Var(a.args[0].index + 7)
            assert all(map(operator.is_, a.args[1:], b.args[1:]))


def _built_like_constructor(t, out) -> bool:
    """Whether each operation node of ``out`` that is not a node of ``t``
    is of its public class and has exactly the slots, with the same
    values, that the class's constructor sets from the same fields."""

    def slots(x) -> dict:
        return {f: getattr(x, f) for f in (*type(x).__slots__, "_hash") if hasattr(x, f)}

    seen, stack = set(), [t]
    while stack:
        x = stack.pop()
        if type(x) in (Op, TOp) and id(x) not in seen:
            seen.add(id(x))
            stack.extend(x.args)
    stack = [out]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind not in (Var, TVar, Op, TOp):
            return False
        if kind in (Op, TOp) and id(x) not in seen:
            seen.add(id(x))
            if slots(x) != slots(kind(*(getattr(x, f) for f in kind._fields))):
                return False
            stack.extend(x.args)
    return True


def _plugged(t) -> list:
    """``equational._plug`` of ``Var(9)`` at each argument of each
    operation node of ``t``."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if type(x) is Op:
            out += [_plug(x, i, Var(9)) for i in range(len(x.args))]
            stack.extend(x.args)
    return out


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_rebuilt_nodes_have_the_constructor_slots(sig):
    """Every operation node that ``map_free_vars`` (under ``subst`` and
    ``rename`` too), ``equational._plug`` and the term model's
    interpretations build has the slots of ``Op(name, args)``: ``_top``
    the children's largest and ``_sig`` None, with no support memo."""
    rng = random.Random(89)
    tm = term_model(sig)
    cases, _ = _frame_cases(sig, random.Random(79))
    built = 0
    for t in cases:
        if wellformed(sig, t):
            continue
        outs = [
            map_free_vars(t, sig, 2),
            map_free_vars(t, sig, lambda d, n: lam(Var(n + 1))),
            subst(t, random_assignment(sig, rng, max_depth=3), sig),
            rename(t, random_renaming(rng), sig),
            initial_fold(sig, tm, t),
            *_plugged(t),
        ]
        for out in outs:
            assert _built_like_constructor(t, out)
            built += out is not t
    assert built > 1000


def test_term_model_leaves_a_non_term_argument_to_the_walks():
    """The term model's interpretations build through ``Op(...)``: a
    list of arguments is taken, and one that is not a term gives a node
    of unknown bound that the walks reject with ``TypeError``."""
    node = term_model(SIG).interpretations["app"](["x", Var(0)])
    assert type(node) is Op and node.args == ("x", Var(0)) and node._top == float("inf")
    assert wellformed(SIG, node) == ["not a term at [0]: 'x'"]
    with pytest.raises(TypeError, match="not a term: 'x'"):
        subst(node, Assignment((Var(1),), 0), SIG)


def test_rebuilt_nodes_of_a_deep_chain_have_the_constructor_slots():
    t = _chain(100_000)
    spine, node = [], t
    while type(node) is Op:
        spine.append(node)
        node = node.args[0]
    plugged = Var(0)
    for parent in reversed(spine):
        plugged = _plug(parent, 0, plugged)
    for out in (
        subst(t, Assignment((lam(Var(1)), Var(3)), 2), SIG),
        rename(t, Renaming((), 4), SIG),
        map_free_vars(t, SIG, lambda d, n: Var(n + 1)),
        initial_fold(SIG, term_model(SIG), t),
        plugged,
    ):
        assert out is not t and _built_like_constructor(t, out)


def _counted(calls: list, walk):
    """``walk``, appending its first argument to ``calls`` at each call:
    a comparison that patches a copy in can check that the copy ran."""
    def counted(*args):
        calls.append(args[0])
        return walk(*args)
    return counted


def test_typed_frame_kernel_matches_list_stack_copy(monkeypatch):
    """The kernel's typed walk against its one-entry-per-node predecessor,
    as above, directly and under ``tsubst``, over the STLC; under
    ``tsubst`` the copy replaces the kernel where ``typed`` looks it up."""
    rng = random.Random(83)
    pool = ground_types(SCH.grammar)
    images = (TOp("lam", (A, A), (TVar(1, A),)), TVar(4, A))
    callbacks = (
        lambda node, s, m, depth: node,
        lambda node, s, m, depth: TVar(node.index + 1, node.ty),
        lambda node, s, m, depth: images[m % 2],
    )

    def wrap(child):
        if rng.random() < 0.5:
            return TOp("lam", (A, A), (child,))
        return TOp("app", (A, A), (child, TVar(7, A))[:: rng.choice((1, -1))])

    bad = ["x", None, TOp("lam", (A, A), (TVar(0, A), TVar(1, A))),
           TOp("app", (A, A), (TVar(0, arrow(A, A)),)), TOp("foo", (), (TVar(0, A),)),
           TOp("lam", (A, A), ())]
    cases = [random_typed_term(SCH, rng, rng.choice(pool), max_depth=5) for _ in range(200)]
    cases += bad + [_bury(b, 3, wrap) for b in bad for _ in range(5)]
    raised = ran = 0
    for t in cases:
        for on_free in callbacks:
            new = _outcome(lambda: map_free_vars(t, SCH, on_free, {}))
            old = _outcome(lambda: list_stack_map_free_tvars(t, SCH, on_free, {}))
            assert _agree(t, new, old)
            assert type(new) is tuple or _built_like_constructor(t, new)
            raised += type(old) is tuple
        sigma = random_typed_assignment(SCH, rng)
        new = _outcome(lambda: tsubst(t, sigma, SCH))
        calls = []
        with monkeypatch.context() as m:
            m.setattr(TYPED_MODULE, "map_free_vars", _counted(calls, list_stack_map_free_tvars))
            old = _outcome(lambda: tsubst(t, sigma, SCH))
        assert _agree(t, new, old)
        assert (calls[:1] == [t]) == bool(sigma.components)  # the identity walks nothing
        ran += bool(calls)
    assert raised == 3 * len(bad) * 6
    assert ran > len(cases) // 2


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_typed_chains_match_list_stack_copy(depth, monkeypatch):
    """``tsubst`` through ``depth`` binders, ``app (lam t) i`` nested over a
    free leaf, against the list-stack kernel, each call under 10 s."""
    t = TVar(depth + 2, A)
    for level in range(depth):
        t = TOp("app", (A, A), (TOp("lam", (A, A), (t,)), TVar(level % 5, A)))
    sigma = TypedAssignment({A: ((TOp("lam", (A, A), (TVar(1, A),)), TVar(3, A)), 2)})
    start = time.perf_counter()
    new = tsubst(t, sigma, SCH)
    assert time.perf_counter() - start < 10.0
    calls = []
    with monkeypatch.context() as m:
        m.setattr(TYPED_MODULE, "map_free_vars", _counted(calls, list_stack_map_free_tvars))
        old = tsubst(t, sigma, SCH)
    assert calls[:1] == [t]
    assert new == old and _same_sharing(t, new, old)


def test_kernel_exception_types():
    """Every walk raises ``TypeError`` at a node that is not a term,
    ``ValueError`` at an operation with the wrong argument count and
    ``KeyError`` at an unknown operation."""
    bad = {
        TypeError: [lam(app(Var(0), "x")), app(Var(0), None)],
        ValueError: [lam(Op("app", (Var(0), Var(1), Var(2)))), lam(Op("app", (Var(1),)))],
        KeyError: [lam(Op("foo", (Var(1),))), Op("foo", (Var(0),))],
    }
    walks = [
        lambda t: map_free_vars(t, SIG, lambda d, n: Var(n + 1)),
        lambda t: subst(t, Assignment((Var(5),), 0), SIG),
        lambda t: rename(t, Renaming((), 1), SIG),
        lambda t: rename(t, Renaming((1, 0), 0), SIG),
        lambda t: support(t, SIG),
    ]
    for error, terms in bad.items():
        for t in terms:
            for walk in walks:
                with pytest.raises(error):
                    walk(t)
    for t in bad[TypeError]:
        with pytest.raises(TypeError):
            fold_nodes(t, lambda v: v, lambda o, vs: o)


# --- the collector is paused inside the walks that build terms ----------


@pytest.fixture
def gc_state():
    """Restores the collector's state, whatever a test left it in."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def _raise(*_):
    raise RuntimeError("from a callback")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_walks_restore_the_collector(enabled, gc_state):
    """After a walk, returning or raising, the collector is on exactly when
    it was on before; a caller's ``gc.disable()`` holds."""
    (gc.enable if enabled else gc.disable)()
    t = lam(app(Var(1), lam(app(Var(0), Var(3)))))
    sigma = Assignment((lam(Var(2)), Var(0)), 1)
    tt = TOp("lam", (A, A), (TVar(1, A),))
    returning = [
        lambda: map_free_vars(t, SIG, lambda d, n: Var(n + 1)),
        lambda: subst(t, sigma, SIG),
        lambda: rename(t, Renaming((1, 0), 2), SIG),
        lambda: compose(sigma, sigma, SIG),
        lambda: to_named(SIG, t),
        lambda: fold_nodes(t, lambda v: v, lambda o, vs: o),
        lambda: tsubst(tt, TypedAssignment({A: ((TVar(4, A),), 0)}), SCH),
        lambda: _shift(tt, (1,), SCH, {A: 0}),
    ]
    for call in returning:
        call()
        assert gc.isenabled() is enabled
    raising = [
        (TypeError, lambda: subst(app(Var(0), "x"), sigma, SIG)),
        (TypeError, lambda: fold_nodes(lam("x"), lambda v: v, lambda o, vs: o)),
        (TypeError, lambda: _shift(TOp("lam", (A, A), ("x",)), (1,), SCH, {A: 0})),
        (ValueError, lambda: rename(lam(Op("app", (Var(1),))), Renaming((), 1), SIG)),
        (ValueError, lambda: tsubst(TOp("lam", (A, A), (TVar(0, A), TVar(1, A))),
                                    TypedAssignment({A: ((), 1)}), SCH)),
        (KeyError, lambda: subst(lam(Op("foo", (Var(1),))), sigma, SIG)),
        (RuntimeError, lambda: map_free_vars(t, SIG, _raise)),
        (RuntimeError, lambda: fold_nodes(t, _raise, _raise)),
        (RuntimeError, lambda: map_free_vars(tt, SCH, _raise, {})),
    ]
    for error, call in raising:
        with pytest.raises(error):
            call()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_a_node_of_the_other_family_keeps_its_message(enabled, gc_state):
    """A typed node that an untyped walk meets is "not a term", and an
    untyped node that a typed walk meets is "not a typed term", at the
    root and three operations down; after each raise the collector is on
    exactly when it was on before."""
    (gc.enable if enabled else gc.disable)()
    untyped_walks = [
        lambda t: subst(t, Assignment((Var(3),), 0), SIG),
        lambda t: rename(t, Renaming((), 1), SIG),
        lambda t: map_free_vars(t, SIG, lambda d, n: Var(n + 1)),
    ]
    typed_walks = [
        lambda t: tsubst(t, TypedAssignment({A: ((TVar(3, A),), 0)}), SCH),
        lambda t: _shift(t, (1,), SCH, {A: 0}),
        lambda t: tlift_gamma(TypedAssignment({A: ((t,), 0)}), (A,), SCH),
    ]
    for bad in (TVar(0, A), TOp("lam", (A, A), (TVar(0, A),))):
        for t in (bad, lam(app(Var(1), lam(bad)))):
            for walk in untyped_walks:
                with pytest.raises(TypeError) as e:
                    walk(t)
                assert str(e.value) == f"not a term: {bad!r}"
                assert gc.isenabled() is enabled
    tlam = lambda child: TOp("lam", (A, A), (child,))
    for bad in (Var(0), lam(Var(0))):
        for t in (bad, tlam(TOp("app", (A, A), (tlam(bad), TVar(1, A))))):
            for walk in typed_walks:
                with pytest.raises(TypeError) as e:
                    walk(t)
                assert str(e.value) == f"not a typed term: {bad!r}"
                assert gc.isenabled() is enabled


def test_callbacks_see_the_collector_paused(gc_state):
    """Inside a walk the collector is off, in the nested walk that
    ``subst`` runs to shift an image too, and on again after it.  A
    callback is probed when it runs; an assignment or a shift calls
    nothing of ours, so a walk of one is probed where it reads the
    signature's binders, inside the pause."""
    gc.enable()
    seen = []

    def probing(callback):
        def probe(*args):
            seen.append(gc.isenabled())
            return callback(*args)
        return probe

    class Probed:  # the signature as the kernel reads it: binders and identity
        @property
        def binders(self):
            seen.append(gc.isenabled())
            return SIG.binders

    t = lam(lam(app(Var(2), Var(3))))
    map_free_vars(t, SIG, probing(lambda d, n: Var(n)))
    assert len(seen) == 2
    before = len(seen)
    # the image lam(app 1 0) of 0 is shifted by 2 under the two binders
    assert subst(t, Assignment((lam(app(Var(1), Var(0))),), 0), Probed()) == lam(
        lam(app(lam(app(Var(3), Var(0))), Var(2))))
    assert len(seen) - before == 1 + 1  # subst's walk, one nested shift walk
    assert seen and not any(seen)
    assert gc.isenabled()


def test_shifting_an_image_no_shift_can_change_walks_nothing(monkeypatch):
    """``subst`` and ``lift_n`` shift an image with no walk when no shift
    can change it: a closed image, by its bound or by a support memo under
    the same signature, is returned itself at every depth, and a variable
    image moves.  Any other image is renamed as before."""
    walks = []

    def counted(t, sig, on_free, real=map_free_vars):
        walks.append(t)
        return real(t, sig, on_free)

    monkeypatch.setattr(SUBST_MODULE, "map_free_vars", counted)
    monkeypatch.setattr(TERM_MODULE, "map_free_vars", counted)
    sig = make_signature({"lam": (1,), "app": (0, 0), "c": ()})
    c = Op("c", ())
    by_bound = app(c, c)
    by_memo = lam(app(Var(0), c))  # its bound index keeps _top at 1
    assert support(by_memo, sig) == 0
    t = app(Var(0), lam(app(Var(1), lam(Var(2)))))  # index 0 free at depths 0, 1 and 2
    for image in (by_bound, by_memo):
        out = subst(t, Assignment((image,), 0), sig)
        inner = out.args[1].args[0]
        assert out.args[0] is image and inner.args[0] is image and inner.args[1].args[0] is image
        for d in range(4):
            assert lift_n(Assignment((image,), 0), d, sig).prefix[d] is image
        assert walks == [t]  # subst's own walk only
        walks.clear()

    assert subst(t, Assignment((Var(2),), 0), sig) == app(Var(2), lam(app(Var(3), lam(Var(4)))))
    assert lift_n(Assignment((Var(2),), 0), 3, sig).prefix[3] == Var(5)
    assert walks == [t]
    walks.clear()

    # an open image, or a closed one with no memo, is walked at each depth > 0
    for image in (lam(app(Var(1), Var(0))), lam(Var(0))):
        sigma = Assignment((image,), 0)
        assert subst(t, sigma, sig) == ref_subst(t, sigma, sig)
        assert len(walks) == 3
        walks.clear()

    # lam(0) is closed under sig, where lam binds one variable, and open
    # under other, where it binds none: the memo under sig is not trusted
    image = lam(Var(0))
    assert support(image, sig) == 0
    other = make_signature({"lam": (0,), "b": (1,)})
    assert subst(Op("b", (Var(1),)), Assignment((image,), 0), other) == Op("b", (lam(Var(1)),))
    assert len(walks) == 2
    walks.clear()

    # a variable below 0 is kept as the rename keeps it; a non-term raises
    neg = Var(-1)
    out = subst(lam(Var(1)), Assignment((neg,), 0), sig)
    assert out == lam(neg) and out.args[0] is neg
    assert lift_n(Assignment((neg,), 0), 2, sig).prefix[2] is neg
    for bad in ("x", MetaVar(0), app(Var(0), "x")):
        with pytest.raises(TypeError, match="not a term"):
            subst(lam(Var(1)), Assignment((bad,), 0), sig)
        with pytest.raises(TypeError, match="not a term"):
            lift_n(Assignment((bad,), 0), 1, sig)


def test_walks_make_no_cyclic_garbage(gc_state):
    """The premise of the pause: the walks leave nothing for the cyclic
    collector, so a collection during a walk could only find nothing."""
    rng = random.Random(73)
    pool = ground_types(SCH.grammar)
    cases = [
        (random_term(SIG, rng, max_depth=6), random_assignment(SIG, rng, max_depth=3),
         random_renaming(rng), random_typed_term(SCH, rng, rng.choice(pool), max_depth=4),
         random_typed_assignment(SCH, rng))
        for _ in range(200)
    ]
    gc.disable()
    gc.collect()
    for t, sigma, f, tt, tsigma in cases:
        subst(t, sigma, SIG)
        rename(t, f, SIG)
        compose(sigma, sigma, SIG)
        to_named(SIG, t)
        tsubst(tt, tsigma, SCH)
    assert gc.collect() == 0
