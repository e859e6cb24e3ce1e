"""The named oracle's fast paths, checked against the definitional
references in ``helpers``: cached free sets, substitution that shares
unchanged subterms, in-place alpha-equivalence, and a conversion whose
printed names are pinned."""

from __future__ import annotations

import hashlib
import itertools
import pickle
import random
import time
from collections import Counter

import pytest

from debruijn import (
    NOp,
    NVar,
    Op,
    TNOp,
    TNVar,
    TOp,
    TVar,
    Var,
    alpha_eq,
    arrow,
    base,
    free_names,
    from_named,
    initial_fold,
    lambda_signature,
    make_signature,
    named_model,
    named_subst,
    print_term,
    stlc_schema,
    t_initial_fold,
    to_named,
    typed_named_model,
)
from debruijn.gen import (
    ground_types,
    random_assignment,
    random_term,
    random_typed_term,
)
from debruijn.model import _letter_supply, default_supply_index, fresh_names
from debruijn.signature import OpSchema, TypedArity, TypedSignatureSchema, TypeGrammar
from debruijn.typed import TypecheckError, degenerate_schema, to_degenerate, typed_to_named

from helpers import (
    RecursiveReprOp,
    app,
    as_dataclasses,
    debruijn_to_named_direct,
    lam,
    ref_alpha_eq,
    ref_free_names,
    ref_from_named,
    ref_named_subst,
    ref_random_assignment,
    ref_random_term,
    ref_tn_alpha_eq,
    ref_tn_free,
    ref_tn_subst,
    same_named,
)

SIG = lambda_signature()
FO_SIG = make_signature({"f": (0, 0), "c": ()})
MIXED_SIG = make_signature({"m": (2, 0, 1)})
SCH = stlc_schema({"a", "b"})
A, B = base("a"), base("b")

# few names, supply names among them, so that binders often capture
NAMES = ("a", "b", "c", "x0", "x1")
TYPES = (A, B, arrow(A, B))


def random_named(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return NVar(rng.choice(NAMES))
    kind = rng.randrange(3)
    if kind == 0:
        return NOp("lam", (((rng.choice(NAMES),), random_named(rng, depth - 1)),))
    if kind == 1:
        return NOp("app", tuple(((), random_named(rng, depth - 1)) for _ in range(2)))
    return NOp("m", (
        ((rng.choice(NAMES), rng.choice(NAMES)), random_named(rng, depth - 1)),
        ((), random_named(rng, depth - 1)),
        ((rng.choice(NAMES),), random_named(rng, depth - 1)),
    ))


def random_mapping(rng: random.Random) -> dict:
    keys = rng.sample(NAMES, rng.randint(0, 3))
    return {k: random_named(rng, 2) for k in keys}


def random_tnamed(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return TNVar(rng.choice(NAMES), rng.choice(TYPES))
    if rng.random() < 0.5:
        binders = tuple(
            (rng.choice(NAMES), rng.choice(TYPES)) for _ in range(rng.randint(1, 2))
        )
        return TNOp("lam", (A,), ((binders, random_tnamed(rng, depth - 1)),))
    return TNOp("app", (A, B), tuple(((), random_tnamed(rng, depth - 1)) for _ in range(2)))


def random_tmapping(rng: random.Random) -> dict:
    keys = {(rng.choice(NAMES), rng.choice(TYPES)) for _ in range(rng.randint(0, 3))}
    return {k: random_tnamed(rng, 2) for k in keys}


def subterms(t):
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        for _, body in getattr(x, "args", ()):
            stack.append(body)


def test_free_sets_match_reference():
    rng = random.Random(51)
    for _ in range(400):
        t = random_named(rng, 5)
        assert free_names(t) == ref_free_names(t)
        tt = random_tnamed(rng, 5)
        assert free_names(tt) == ref_tn_free(tt)


def test_fresh_names():
    assert fresh_names(3, {"a", "c"}) == ["b", "d", "e"]
    assert fresh_names(2, frozenset("abcdefghijklmnopqrstuvwxyz")) == ["a1", "b1"]
    assert fresh_names(0, set()) == []
    assert fresh_names(0, {"a"}) == []


def test_fresh_names_are_the_first_names_of_the_letter_supply():
    supply = list(itertools.islice(_letter_supply(), 200))
    avoids = [
        set(), {"a", "c"}, frozenset("abcdefghijklmnopqrstuvwxyz"), set(supply[:80]),
        set(supply[1::2]), {"x1", "q", "zz", "b2"}, tuple(supply[20:40]),
    ]
    for avoid in avoids:
        for count in range(61):
            assert fresh_names(count, avoid) == [n for n in supply if n not in avoid][:count]


def test_named_nodes_match_the_frozen_dataclasses():
    """``==``, ``hash``, ``repr``, pickling and ``__match_args__`` of the
    named nodes are those of the frozen dataclasses they replaced."""
    rng = random.Random(57)
    pool = [random_named(rng, 2) for _ in range(60)] + [random_tnamed(rng, 2) for _ in range(60)]
    pool += [random_named(rng, 5) for _ in range(60)] + [random_tnamed(rng, 5) for _ in range(60)]
    for t in pool:
        d = as_dataclasses(t)
        assert repr(t) == repr(d)
        assert hash(t) == hash(d)
        assert pickle.loads(pickle.dumps(t)) == t
    for _ in range(2000):
        s, t = rng.choice(pool), rng.choice(pool)
        assert (s == t) == (as_dataclasses(s) == as_dataclasses(t))
        assert (s != t) == (as_dataclasses(s) != as_dataclasses(t))
    assert NVar.__match_args__ == ("name",) and NOp.__match_args__ == ("name", "args")
    assert TNVar.__match_args__ == ("name", "ty")
    assert TNOp.__match_args__ == ("name", "type_args", "args")
    with pytest.raises(AttributeError):
        NVar("x").name = "y"


def test_free_set_is_not_part_of_equality_hash_or_repr():
    t = NOp("lam", ((("x",), NVar("x")),))
    assert t.free == frozenset()
    assert repr(t) == "NOp(name='lam', args=((('x',), NVar(name='x')),))"
    assert t == NOp("lam", ((("x",), NVar("x")),))
    assert hash(t) == hash(("lam", ((("x",), NVar("x")),)))
    assert repr(TNVar("x", A)) == f"TNVar(name='x', ty={A!r})"
    with pytest.raises(TypeError):
        NOp("app", (((), "not a term"),))


def test_named_subst_matches_reference():
    rng = random.Random(53)
    for _ in range(1500):
        t = random_named(rng, 5)
        mapping = random_mapping(rng)
        assert named_subst(t, mapping) == ref_named_subst(t, mapping)


def test_named_subst_capture_cases_match_reference():
    # the image of x0 mentions every binder name in scope
    t = NOp("m", (
        (("a", "b"), NOp("app", (((), NVar("x0")), ((), NVar("a"))))),
        ((), NVar("x0")),
        (("b",), NOp("lam", ((("c",), NOp("app", (((), NVar("x0")), ((), NVar("b"))))),))),
    ))
    bc = NOp("app", (((), NVar("b")), ((), NVar("c"))))
    image = NOp("app", (((), NVar("a")), ((), bc)))
    for mapping in ({"x0": image}, {"x0": image, "a": NVar("b")}, {"x0": NVar("a")}):
        got = named_subst(t, mapping)
        assert got == ref_named_subst(t, mapping)
        assert got != t


def test_tn_subst_matches_reference():
    rng = random.Random(57)
    for _ in range(1500):
        t = random_tnamed(rng, 5)
        mapping = random_tmapping(rng)
        assert named_subst(t, mapping) == ref_tn_subst(t, mapping)


def test_unmapped_subterms_are_shared():
    rng = random.Random(59)
    for _ in range(300):
        t = random_named(rng, 5)
        mapping = random_mapping(rng)
        for s in subterms(t):
            if mapping.keys().isdisjoint(ref_free_names(s)):
                assert named_subst(s, mapping) is s
        tt = random_tnamed(rng, 5)
        tmapping = random_tmapping(rng)
        for s in subterms(tt):
            unmapped = tmapping.keys().isdisjoint(ref_tn_free(s))
            if unmapped and ref_tn_subst(s, {}) == s:
                assert named_subst(s, tmapping) is s
    closed = NOp("lam", ((("y",), NVar("y")),))
    t = NOp("app", (((), closed), ((), NVar("x0"))))
    out = named_subst(t, {"x0": NVar("x1")})
    assert out.args[0][1] is closed
    assert named_subst(t, {"x1": NVar("x0")}) is t


def test_named_subst_keeps_a_binder_whose_name_is_free_at_another_type():
    # binder (a : A) over a free (a : B): two different variables, so an
    # empty substitution returns the term itself
    t = TNOp("lam", (A,), (((("a", A),), TNOp("app", (A, B), (
        ((), TNVar("a", A)), ((), TNVar("a", B)),
    ))),))
    assert named_subst(t, {}) is t


def test_typed_binder_captures_only_its_own_key():
    # lam (a : A). app(a : A, x0 : A), with x0 : A sent to a variable named a
    t = TNOp("lam", (A,), (((("a", A),), TNOp("app", (A, A), (
        ((), TNVar("a", A)), ((), TNVar("x0", A)),
    ))),))
    same = named_subst(t, {("x0", A): TNVar("a", A)})
    assert same.args[0][0] == (("b", A),)
    assert same.args[0][1].args[1][1] == TNVar("a", A)
    other = named_subst(t, {("x0", A): TNVar("a", B)})
    assert other.args[0][0] == (("a", A),)
    assert other.args[0][1].args[1][1] == TNVar("a", B)


def test_alpha_eq_matches_reference():
    rng = random.Random(61)

    def alpha_variant(t, counter):
        # rename every binder group to names used nowhere else
        if isinstance(t, NVar):
            return t
        args = []
        for binders, body in t.args:
            body = alpha_variant(body, counter)
            if len(set(binders)) == len(binders):
                new = tuple(f"r{next(counter)}" for _ in binders)
                body = ref_named_subst(body, {b: NVar(n) for b, n in zip(binders, new)})
                binders = new
            args.append((binders, body))
        return NOp(t.name, tuple(args))

    def perturb(t, rng):
        # change one node: a variable name, or one binder name
        nodes = list(subterms(t))
        target = rng.choice(nodes)

        def go(x):
            if x is target:
                if isinstance(x, NVar):
                    return NVar(rng.choice(NAMES))
                i = rng.randrange(len(x.args))
                binders, body = x.args[i]
                if binders:
                    binders = (rng.choice(NAMES),) + binders[1:]
                args = x.args[:i] + ((binders, body),) + x.args[i + 1 :]
                return NOp(x.name, args)
            if isinstance(x, NVar):
                return x
            return NOp(x.name, tuple((bs, go(b)) for bs, b in x.args))

        return go(t)

    for _ in range(600):
        a = random_named(rng, 5)
        pairs = [
            (a, a),
            (a, NOp(a.name, a.args) if isinstance(a, NOp) else NVar(a.name)),
            (a, alpha_variant(a, itertools.count())),
            (a, perturb(a, rng)),
            (a, random_named(rng, 5)),
        ]
        for x, y in pairs:
            assert alpha_eq(x, y) == ref_alpha_eq(x, y)
            assert alpha_eq(y, x) == ref_alpha_eq(y, x)


def test_alpha_eq_matches_typed_reference():
    rng = random.Random(63)

    def alpha_variant(t, counter):
        # rename every binder group to names used nowhere else
        if isinstance(t, TNVar):
            return t
        args = []
        for binders, body in t.args:
            body = alpha_variant(body, counter)
            if len(set(binders)) == len(binders):
                new = tuple((f"r{next(counter)}", ty) for _, ty in binders)
                body = ref_tn_subst(body, {b: TNVar(*n) for b, n in zip(binders, new)})
                binders = new
            args.append((binders, body))
        return TNOp(t.name, t.type_args, tuple(args))

    def perturb(t, rng):
        # change one node: a variable's name or type, a binder's name or
        # type, or an operation's type arguments
        target = rng.choice(list(subterms(t)))
        change = rng.randrange(2)

        def go(x):
            if x is target:
                if isinstance(x, TNVar):
                    if change:
                        return TNVar(x.name, rng.choice(TYPES))
                    return TNVar(rng.choice(NAMES), x.ty)
                i = rng.randrange(len(x.args))
                binders, body = x.args[i]
                if binders and change:
                    binders = ((binders[0][0], rng.choice(TYPES)),) + binders[1:]
                elif binders:
                    binders = ((rng.choice(NAMES), binders[0][1]),) + binders[1:]
                else:
                    return TNOp(x.name, (rng.choice(TYPES),) + x.type_args[1:], x.args)
                args = x.args[:i] + ((binders, body),) + x.args[i + 1 :]
                return TNOp(x.name, x.type_args, args)
            if isinstance(x, TNVar):
                return x
            return TNOp(x.name, x.type_args, tuple((bs, go(b)) for bs, b in x.args))

        return go(t)

    lam_a = TNOp("lam", (A,), (((("a", A),), TNVar("a", A)),))
    fixed = [
        (TNVar("x0", A), TNVar("x0", B)),
        (lam_a, TNOp("lam", (A,), (((("a", B),), TNVar("a", B)),))),
        (lam_a, TNOp("lam", (B,), (((("a", A),), TNVar("a", A)),))),
        (lam_a, TNOp("lam", (A,), (((("b", A),), TNVar("b", A)),))),
    ]
    for x, y in fixed:
        assert alpha_eq(x, y) == ref_tn_alpha_eq(x, y)
    assert [alpha_eq(x, y) for x, y in fixed] == [False, False, False, True]

    for _ in range(600):
        a = random_tnamed(rng, 5)
        pairs = [
            (a, a),
            (a, alpha_variant(a, itertools.count())),
            (a, perturb(a, rng)),
            (alpha_variant(a, itertools.count()), perturb(a, rng)),
            (a, random_tnamed(rng, 5)),
        ]
        for x, y in pairs:
            assert alpha_eq(x, y) == ref_tn_alpha_eq(x, y)
            assert alpha_eq(y, x) == ref_tn_alpha_eq(y, x)


def test_alpha_eq_shadowed_and_repeated_binders():
    inner = NOp("app", (((), NVar("x")), ((), NVar("y"))))
    t1 = NOp("m", (
        (("x", "x"), inner), ((), NVar("x")), (("y",), NOp("lam", ((("y",), inner),))),
    ))
    t2 = NOp("m", (
        (("p", "q"), NOp("app", (((), NVar("q")), ((), NVar("y"))))),
        ((), NVar("x")),
        (("z",), NOp("lam", ((("w",), NOp("app", (((), NVar("x")), ((), NVar("w"))))),))),
    ))
    for x, y in ((t1, t2), (t2, t1), (t1, t1)):
        assert alpha_eq(x, y) == ref_alpha_eq(x, y)
    assert alpha_eq(t1, t2)


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_random_term_stream_is_unchanged(sig):
    rng, ref = random.Random(67), random.Random(67)
    for _ in range(300):
        assert random_term(sig, rng, max_depth=6) == ref_random_term(sig, ref, max_depth=6)
        assert random_assignment(sig, rng) == ref_random_assignment(sig, ref)
        assert rng.random() == ref.random()


def erase_types(t):
    """The untyped named term with the names of a typed one."""
    if isinstance(t, TNVar):
        return NVar(t.name)
    return NOp(t.name, tuple(
        (tuple(n for n, _ in binders), erase_types(body)) for binders, body in t.args
    ))


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_untyped_to_named_is_the_one_sort_case(sig):
    schema = degenerate_schema(sig)
    rng = random.Random(71)
    for _ in range(500):
        t = random_term(sig, rng, max_depth=5, max_index=6)
        typed = erase_types(typed_to_named(schema, to_degenerate(t)))
        # == on the frozen dataclasses compares every name, binders included
        assert to_named(sig, t) == typed


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_to_named_round_trips_and_agrees_with_the_direct_converter(sig):
    # neither property shares the oracle's naming rule: from_named reads
    # binders by position, and the direct converter names by depth
    rng = random.Random(73)
    for _ in range(500):
        t = random_term(sig, rng, max_depth=7, max_index=6)
        named = to_named(sig, t)
        assert from_named(sig, named) == t
        assert alpha_eq(named, debruijn_to_named_direct(sig, t))


# --- pinned output ------------------------------------------------------


def deep_lambda(rng: random.Random, depth: int):
    """A chain of ``depth`` binders, half of them over an application to a
    variable that may point anywhere in scope or be free."""
    app_levels = set(rng.sample(range(depth), depth // 2))
    t = Var(rng.randrange(depth + 3))
    for level in range(depth):
        if level in app_levels:
            t = app(t, Var(rng.randrange(depth - level + 3)))
        t = lam(t)
    return t


def named_output_digest(sigs, depths=()) -> str:
    """SHA-256 over the printed named forms of seeded random terms over each
    signature of ``sigs`` (an index into SIG, FO_SIG, MIXED_SIG, which
    picks the seed) and of deep-terms-style chains of each of ``depths``."""
    h = hashlib.sha256()
    for k in sigs:
        sig = (SIG, FO_SIG, MIXED_SIG)[k]
        rng = random.Random(100 + k)
        for _ in range(300):
            t = random_term(sig, rng, max_depth=7, max_index=6)
            h.update(print_term(to_named(sig, t)).encode() + b"\n")
    for depth in depths:
        t = deep_lambda(random.Random(depth), depth)
        h.update(print_term(to_named(SIG, t)).encode() + b"\n")
    return h.hexdigest()


def typed_named_output_digest() -> str:
    """SHA-256 over the named forms of seeded random typed terms."""
    h = hashlib.sha256()
    rng = random.Random(104)
    pool = ground_types(SCH.grammar)
    for _ in range(200):
        t = random_typed_term(SCH, rng, rng.choice(pool), max_depth=5)
        h.update(repr(typed_to_named(SCH, t)).encode() + b"\n")
    return h.hexdigest()


def test_to_named_output_is_pinned():
    # any change of a printed binder name changes a digest.  Lambda, FO
    # and the chains: their single-binder groups name as they did before
    # free sets were cached and named_subst shared subterms
    assert named_output_digest((0, 1), (30, 60, 90)) == (
        "f4776aa78bc1a20f5df2a638946e9b9da241f9fb3da2d4bd1e091cf427de1d08"
    )
    # m : (2, 0, 1): recorded when named_subst first named a binder group
    # at once, which stopped a group from binding one name twice
    assert named_output_digest((2,)) == (
        "1f4e6fa29a49bf30a07375e027385a0f4dad73af873dcb71d9efed290bb0759a"
    )


def test_typed_to_named_output_is_pinned():
    # recorded when typed capture was decided by key, not by name
    assert typed_named_output_digest() == (
        "3fae57b9435f3fe2fdfc8731536c5b4168645893ff0913e7be288cd101047989"
    )


@pytest.mark.parametrize("depth", [50, 100])
def test_typed_to_named_substitutes_as_often_as_to_named(depth, monkeypatch):
    # at one sort the typed conversion makes the untyped one's calls: a
    # binder-free variable argument is substituted in place at either sort
    import debruijn.model as model

    calls = []
    inner = model.named_subst

    def counted(t, mapping):
        calls.append(t)
        return inner(t, mapping)

    monkeypatch.setattr(model, "named_subst", counted)
    t = Var(depth)  # free: every level renames below it
    for _ in range(depth):
        t = lam(app(t, Var(0)))
    to_named(SIG, t)
    untyped = len(calls)
    calls.clear()
    typed_to_named(degenerate_schema(SIG), to_degenerate(t))
    assert len(calls) == untyped


def test_deep_to_named_is_fast_and_round_trips():
    t = deep_lambda(random.Random(300), 300)
    start = time.perf_counter()
    named = to_named(SIG, t)
    assert time.perf_counter() - start < 10.0
    # term == recurses, so compare node by node
    stack = [(from_named(SIG, named), t)]
    while stack:
        x, y = stack.pop()
        assert type(x) is type(y)
        if isinstance(x, Var):
            assert x == y
        else:
            assert x.name == y.name and len(x.args) == len(y.args)
            stack.extend(zip(x.args, y.args))


def _random_named_term(rng: random.Random, depth: int):
    """A named term over lam, app, m and an unknown operation, with
    arguments and binder groups of random length: most are faulty."""
    if depth == 0 or rng.random() < 0.3:
        return NVar(rng.choice(["a", "b", "c", "x0", "x3", "q"]))
    args = []
    for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
        bs = tuple(rng.choice("abc") for _ in range(rng.choice([0, 0, 1, 1, 2])))
        args.append((bs, _random_named_term(rng, depth - 1)))
    return NOp(rng.choice(["lam", "app", "m", "m", "g"]), tuple(args))


@pytest.mark.parametrize(
    "sig", [SIG, make_signature({"lam": (1,), "app": (0, 0), "m": (2, 0, 1)})],
    ids=["lambda", "lambda+MIXED"],
)
def test_from_named_agrees_with_the_recursive_one(sig):
    """The explicit-stack ``from_named`` returns what the recursive one
    returned, and raises the same error at the same fault first."""
    rng = random.Random(31)
    seen = Counter()
    for _ in range(3000):
        t = _random_named_term(rng, 5)
        outcomes = []
        for convert in (from_named, ref_from_named):
            try:
                outcomes.append(("ok", convert(sig, t)))
            except (ValueError, TypeError) as e:
                outcomes.append((type(e).__name__, str(e)))
        assert outcomes[0] == outcomes[1], t
        seen[outcomes[0][0] if outcomes[0][0] == "ok" else outcomes[0][1].split(" ")[0]] += 1
    assert seen["ok"] > 100 and sum(seen.values()) - seen["ok"] > 1000


# --- the walk of to_named against the fold that defines it ------------------


@pytest.mark.parametrize(
    "sig, depth", [(SIG, 7), (FO_SIG, 7), (MIXED_SIG, 5)], ids=["lambda", "FO", "MIXED"]
)
def test_to_named_is_the_fold(sig, depth):
    """``to_named`` returns the fold's term, binder names included."""
    rng = random.Random(79)
    nm = named_model(sig)
    for _ in range(3000):
        t = random_term(sig, rng, max_depth=depth, max_index=6)
        assert same_named(to_named(sig, t), initial_fold(sig, nm, t)), t


def fan_in_chain(rng: random.Random):
    """n binders, each over an application to any variable with p = 0.3,
    over an application spine of the variables i < n + 3, each kept with
    p = 0.8: nearly every binder is used below every other one."""
    n = rng.randint(50, 110)
    t = None
    for i in range(n + 3):
        if rng.random() < 0.8:
            t = Var(i) if t is None else app(t, Var(i))
    for _ in range(n):
        if rng.random() < 0.3:
            t = app(t, Var(rng.randrange(n + 3)))
        t = lam(t)
    return t


def binder_names(t) -> set:
    names, stack = set(), [t]
    while stack:
        for binders, body in getattr(stack.pop(), "args", ()):
            names.update(binders)
            stack.append(body)
    return names


def supply_form_binders(t) -> set:
    """The binder names in ``t`` of a free variable's form x<i>."""
    names = {b if isinstance(b, str) else b[0] for b in binder_names(t)}
    return {z for z in names if default_supply_index(z) is not None}


def test_to_named_is_the_fold_on_fan_in_chains():
    """Each pass of the fold renames a cascade of groups here, and in some
    chains it picks y1, the 50th name of the supply, which skips x1: no
    binder takes a free variable's name."""
    assert fresh_names(60, ())[49] == "y1"
    rng = random.Random(5)
    nm = named_model(SIG)
    named_y1 = 0
    for _ in range(40):
        t = fan_in_chain(rng)
        fold = initial_fold(SIG, nm, t)
        walk = to_named(SIG, t)
        assert same_named(walk, fold)
        assert not supply_form_binders(fold) and not supply_form_binders(walk)
        named_y1 += "y1" in binder_names(fold)
    assert named_y1 >= 1


A_, B_ = base("a"), base("b")
# binder groups over two sorts, and one of 60 binders, whose names reach
# past y1, where the supply skips the free-variable form x1
MULTI_SORT = TypedSignatureSchema(TypeGrammar({"a": 0, "b": 0}), {
    "p": OpSchema("p", (), TypedArity((((A_, B_, A_), A_), ((B_,), B_)), A_)),
    "q": OpSchema("q", (), TypedArity((((), A_),), B_)),
    "r": OpSchema("r", (), TypedArity((((A_,), B_),), B_)),
    "big": OpSchema("big", (), TypedArity((((A_,) * 30 + (B_,) * 30, A_),), A_)),
})


@pytest.mark.parametrize("schema", [SCH, MULTI_SORT], ids=["STLC", "multi-sort"])
def test_typed_to_named_is_the_fold(schema):
    rng = random.Random(83)
    pool = ground_types(schema.grammar)
    nm = typed_named_model(schema)
    for _ in range(1500):
        t = random_typed_term(schema, rng, rng.choice(pool), max_depth=6)
        walk, fold = typed_to_named(schema, t), t_initial_fold(schema, nm, t)
        assert same_named(walk, fold), t
        assert not supply_form_binders(fold) and not supply_form_binders(walk), t


def test_a_group_of_fifty_binders_leaves_x1_free():
    """A variable free above a group of 50 binders is x1 there, so the
    group must not bind x1."""
    sig = make_signature({"big": (50,)})
    t = Op("big", (Var(51),))
    named = to_named(sig, t)
    assert "x1" not in named.args[0][0] and named.args[0][1] == NVar("x1")
    assert from_named(sig, named) == t
    assert named == initial_fold(sig, named_model(sig), t)


def test_user_input_may_bind_a_supply_form_name():
    """Only the supply skips x<i>: a named term may still bind x1."""
    t = NOp("lam", ((("x1",), NOp("app", (((), NVar("x1")), ((), NVar("x0"))))),))
    nameless = from_named(SIG, t)
    assert nameless == lam(app(Var(0), Var(1)))
    assert alpha_eq(to_named(SIG, nameless), t)


def test_wide_group_chains_are_the_fold_and_fast():
    """A chain of groups of 50 binders, each body using its own 50th
    binder, y1: the supply skips x1, so no binder takes a free variable's
    name."""
    sig = make_signature({"big": (50,), "app": (0, 0)})

    def chain(n):
        t = Var(0)
        for _ in range(n):
            t = Op("big", (Op("app", (t, Var(49))),))
        return t

    t = chain(60)
    walk, fold = to_named(sig, t), initial_fold(sig, named_model(sig), t)
    assert same_named(walk, fold)
    assert not supply_form_binders(fold) and not supply_form_binders(walk)
    t = chain(1000)
    named = _timed(2.0, lambda: to_named(sig, t))
    assert named.args[0][0][-1] == fresh_names(60, ())[49] == "y1"
    assert not supply_form_binders(named)
    assert from_named(sig, named) == t


def test_conversions_reject_malformed_terms():
    """Argument counts are checked, in the words ``from_named`` uses."""
    with pytest.raises(ValueError, match="operation 'app' expects 2 arguments, got 3"):
        to_named(SIG, Op("app", (Var(0), Var(1), Var(2))))
    with pytest.raises(ValueError, match="operation 'lam' expects 1 arguments, got 0"):
        to_named(SIG, lam(Op("lam", ())))
    with pytest.raises(ValueError, match="negative variable index -1"):
        to_named(SIG, lam(app(Var(0), Var(-1))))
    with pytest.raises(TypeError, match="not a term"):
        to_named(SIG, lam("x"))
    ab = arrow(A, B)
    with pytest.raises(TypecheckError, match="operation 'app' expects 2 arguments, got 3"):
        typed_to_named(SCH, TOp("app", (A, B), (TVar(0, ab), TVar(1, A), TVar(2, A))))
    with pytest.raises(TypecheckError, match="operation 'lam' expects 1 arguments, got 0"):
        typed_to_named(SCH, TOp("lam", (A, B), ()))
    with pytest.raises(ValueError, match="negative variable index -1"):
        typed_to_named(SCH, TOp("lam", (A, A), (TVar(-1, A),)))


@pytest.mark.parametrize("depth", [50, 100])
def test_conversions_do_not_substitute(depth, monkeypatch):
    """Both conversions replay the fold's renamings instead of running its
    ``named_subst`` under every binder."""
    import debruijn.model as model

    calls = []
    inner = model.named_subst

    def counted(t, mapping):
        calls.append(t)
        return inner(t, mapping)

    monkeypatch.setattr(model, "named_subst", counted)
    t = Var(depth)
    for _ in range(depth):
        t = lam(app(t, Var(0)))
    to_named(SIG, t)
    typed_to_named(degenerate_schema(SIG), to_degenerate(t))
    assert calls == []
    initial_fold(SIG, named_model(SIG), t)
    assert len(calls) >= depth  # the counter sees the fold's calls


def near_chain(rng: random.Random, depth: int):
    """``depth`` binders, half of them over an application to a variable
    at most 8 binders up (one in ten free instead), over a free leaf."""
    t = Var(depth)
    for level in range(depth):
        if rng.random() < 0.5:
            above = depth - level  # binders over this application
            if rng.random() < 0.9:
                t = app(t, Var(rng.randrange(min(8, above))))
            else:
                t = app(t, Var(above + rng.randrange(3)))
        t = lam(t)
    return t


def same_names(typed, untyped) -> bool:
    """The typed named term has the untyped one's names, by an explicit
    stack: the one-sort case at any depth."""
    stack = [(typed, untyped)]
    while stack:
        x, y = stack.pop()
        if type(x) is TNVar:
            if type(y) is not NVar or x.name != y.name:
                return False
        elif type(y) is not NOp or x.name != y.name or len(x.args) != len(y.args):
            return False
        else:
            for (bx, tx), (by, ty) in zip(x.args, y.args):
                if tuple(n for n, _ in bx) != by:
                    return False
                stack.append((tx, ty))
    return True


def _timed(bound: float, call):
    start = time.perf_counter()
    out = call()
    assert time.perf_counter() - start < bound
    return out


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_to_named_sweep(depth):
    """Both conversions and ``alpha_eq`` take terms 100 000 binders deep,
    each call in time linear in the depth, and the output round-trips."""
    bound = 1.0 + depth * 50e-6
    t = near_chain(random.Random(depth), depth)
    named = _timed(2 * bound, lambda: to_named(SIG, t))
    assert _timed(bound, lambda: from_named(SIG, named)) == t
    schema, typed_t = degenerate_schema(SIG), to_degenerate(t)
    assert same_names(_timed(2 * bound, lambda: typed_to_named(schema, typed_t)), named)
    again = to_named(SIG, t)
    assert _timed(bound, lambda: alpha_eq(named, again))


def named_chain(depth: int, binder: str, leaf: str):
    """``lam [binder] (app t binder)`` nested ``depth`` deep over ``leaf``."""
    t = NVar(leaf)
    for _ in range(depth):
        t = NOp("lam", (((binder,), NOp("app", (((), t), ((), NVar(binder))))),))
    return t


def tnamed_chain(depth: int, binder: str, leaf: str):
    """The typed ``named_chain``, every name at type ``A``."""
    t = TNVar(leaf, A)
    for _ in range(depth):
        app_ = TNOp("app", (A, A), (((), t), ((), TNVar(binder, A))))
        t = TNOp("lam", (A, A), ((((binder, A),), app_),))
    return t


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_named_subst(depth):
    """``named_subst`` takes terms 100 000 binders deep whose map holds a
    free name, each call in time linear in the depth."""
    bound = 1.0 + depth * 50e-6
    t, tt = named_chain(depth, "a", "x0"), tnamed_chain(depth, "a", "x0")
    out = _timed(bound, lambda: named_subst(t, {"x0": NVar("y")}))
    assert out == named_chain(depth, "a", "y")
    # the image's name is every binder's: each is renamed, to b
    out = _timed(bound, lambda: named_subst(t, {"x0": NVar("a")}))
    assert out == named_chain(depth, "b", "a")
    out = _timed(bound, lambda: named_subst(tt, {("x0", A): TNVar("a", A)}))
    assert out == tnamed_chain(depth, "b", "a")
    # a name free at another type captures nothing
    assert _timed(bound, lambda: named_subst(tt, {("x0", B): TNVar("a", A)})) is tt


def op_chain(depth: int, leaf: int):
    """``lam (app t 0)`` nested ``depth`` deep over ``Var(leaf)``, every
    node built anew."""
    t = Var(leaf)
    for _ in range(depth):
        t = lam(app(t, Var(0)))
    return t


def top_chain(depth: int, leaf: int):
    """The typed ``op_chain``, every variable at type ``A``."""
    t = TVar(leaf, A)
    for _ in range(depth):
        t = TOp("lam", (A, A), (TOp("app", (A, A), (t, TVar(0, A))),))
    return t


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_named_eq_hash_and_repr_sweep(depth):
    """``==``, ``hash`` and ``repr`` of named, typed named, nameless and
    typed terms 100 000 binders deep, each call in time linear in the
    depth; the repr is the frozen dataclass's, level for level."""
    bound = 1.0 + depth * 50e-6
    chains = (  # (chain over leaf 1 or 2, the oracle of its repr)
        (lambda depth, k: named_chain(depth, "a", f"x{k}"), as_dataclasses),
        (lambda depth, k: tnamed_chain(depth, "a", f"x{k}"), as_dataclasses),
        (op_chain, RecursiveReprOp),
        (top_chain, as_dataclasses),
    )
    for chain, oracle in chains:
        a, b, other = chain(depth, 1), chain(depth, 1), chain(depth, 2)
        assert _timed(bound, lambda: a == b)
        assert not _timed(bound, lambda: a == other)
        assert _timed(bound, lambda: a != other)
        assert _timed(bound, lambda: hash(a)) == _timed(bound, lambda: hash(b))
        leaf = repr(chain(0, 1))
        prefix, suffix = repr(oracle(chain(1, 1))).split(leaf)
        assert _timed(bound, lambda: repr(a)) == prefix * depth + leaf + suffix * depth
