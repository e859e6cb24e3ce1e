"""Seeded random generators, exhaustive enumerators, and shrinkers used
by the law fuzzers and the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .signature import BindingSignature, TypeExpr
from .subst import Assignment, Renaming
from .term import Term, Var, Op
from .typed import TOp, TVar, TypedAssignment, op_arity


def random_term(
    sig: BindingSignature,
    rng: random.Random,
    max_depth: int = 8,
    max_index: int = 5,
) -> Term:
    return _random_term(sorted(sig.ops.items()), rng, max_depth, max_index)


def _random_term(ops: list, rng: random.Random, max_depth: int, max_index: int) -> Term:
    if max_depth <= 0 or not ops or rng.random() < 0.35:
        return Var(rng.randrange(max_index))
    name, a = rng.choice(ops)
    return Op(
        name,
        tuple(_random_term(ops, rng, max_depth - 1, max_index) for _ in a.binders),
    )


def random_assignment(
    sig: BindingSignature,
    rng: random.Random,
    max_depth: int = 4,
) -> Assignment:
    prefix = tuple(
        random_term(sig, rng, max_depth)
        for _ in range(rng.randint(0, 4))
    )
    return Assignment(prefix, rng.randint(0, 3))


def random_renaming(rng: random.Random) -> Assignment:
    prefix = tuple(
        rng.randrange(6) for _ in range(rng.randint(0, 4))
    )
    return Renaming(prefix, rng.randint(0, 3))


def _by_level(first: list, ctors: list, max_depth: int, build) -> list:
    """``max_depth`` levels (none below 1), concatenated: level 1 is ``first``;
    level d holds ``build(c, args)`` for each ``(c, arity)`` of ``ctors`` and
    ``args`` from the levels below d, one or more of them from level d - 1."""
    levels = [first] if max_depth >= 1 else []
    for _ in range(1, max_depth):
        pool = [t for level in levels for t in level]
        last = set(levels[-1])
        level = []
        for c, n in ctors:
            for args in itertools.product(pool, repeat=n):
                if not last.isdisjoint(args):
                    level.append(build(c, args))
        levels.append(level)
    return [t for level in levels for t in level]


def enumerate_terms(
    sig: BindingSignature, max_depth: int, indices: Sequence[int]
) -> list[Term]:
    """All well-formed terms of depth <= max_depth with variable indices
    drawn from ``indices``: level 1 holds the variables and the constants,
    and level d the operations with an argument at level d - 1."""
    arities = [(name, len(a.binders)) for name, a in sorted(sig.ops.items())]
    first = [Var(i) for i in indices] + [Op(name, ()) for name, n in arities if not n]
    return _by_level(first, arities, max_depth, Op)


def enumerate_assignments(
    pool: Sequence[Term], max_prefix: int, max_shift: int
) -> list[Assignment]:
    """All canonical assignments with prefixes over ``pool``; canonically
    equal representations are deduplicated."""
    seen = set()
    out: list[Assignment] = []
    for n in range(max_prefix + 1):
        for prefix in itertools.product(pool, repeat=n):
            for k in range(max_shift + 1):
                a = Assignment(prefix, k)
                key = (a.prefix, a.tail_shift)
                if key not in seen:
                    seen.add(key)
                    out.append(a)
    return out


def shrink_term(t: Term) -> Iterator[Term]:
    """Structurally smaller candidates: argument subterms, then terms with
    one argument shrunk, then a plain variable."""
    match t:
        case Var(index):
            if index > 0:
                yield Var(0)
        case Op(name, args):
            yield from args
            for i, a in enumerate(args):
                for smaller in shrink_term(a):
                    yield Op(name, args[:i] + (smaller,) + args[i + 1 :])
            yield Var(0)


def shrink_assignment(a: Assignment) -> Iterator[Assignment]:
    for i in range(len(a.prefix)):
        yield Assignment(a.prefix[:i] + a.prefix[i + 1 :], a.tail_shift)
    for i, t in enumerate(a.prefix):
        for smaller in shrink_term(t):
            yield Assignment(a.prefix[:i] + (smaller,) + a.prefix[i + 1 :], a.tail_shift)
    if a.tail_shift > 0:
        yield Assignment(a.prefix, a.tail_shift - 1)


def shrink_law_sample(sample) -> list:
    """Shrinker for (element, assignment, assignment, index) law samples."""
    x, f, g, n = sample
    out = []
    out.extend((s, f, g, n) for s in shrink_term(x))
    out.extend((x, s, g, n) for s in shrink_assignment(f))
    out.extend((x, f, s, n) for s in shrink_assignment(g))
    if n > 0:
        out.append((x, f, g, 0))
    return out


# --- typed generators ----------------------------------------------------


def ground_types(grammar, max_depth: int = 2) -> list:
    """Ground types over the grammar's nullary constructors, closed under
    constructor application up to ``max_depth``."""
    ctors = sorted(grammar.ctors.items())
    return _by_level([TypeExpr(c) for c, n in ctors if not n], ctors, max_depth, TypeExpr)


def _match_type(template, target, metavars, env) -> bool:
    if template.ctor in metavars and not template.args:
        if template.ctor in env:
            return env[template.ctor] == target
        env[template.ctor] = target
        return True
    if template.ctor != target.ctor or len(template.args) != len(target.args):
        return False
    return all(
        _match_type(a, b, metavars, env)
        for a, b in zip(template.args, target.args)
    )


def random_typed_term(
    schema,
    rng: random.Random,
    ty,
    max_depth: int = 5,
    type_pool=None,
):
    """Random well-typed (open) term of the requested type, built by
    matching operation conclusions against the goal type."""
    if type_pool is None:
        type_pool = ground_types(schema.grammar)
    if max_depth <= 0 or rng.random() < 0.3:
        return TVar(rng.randrange(3), ty)
    candidates = []
    for op in schema.schemas.values():
        env: dict = {}
        if _match_type(op.template.conclusion, ty, set(op.metavars), env):
            candidates.append((op, env))
    if not candidates:
        return TVar(rng.randrange(3), ty)
    op, env = rng.choice(candidates)
    targs = tuple(
        env[m] if m in env else rng.choice(type_pool) for m in op.metavars
    )
    ar = op_arity(schema, op.name, targs)
    args = tuple(
        random_typed_term(schema, rng, tau, max_depth - 1, type_pool)
        for _, tau in ar.premises
    )
    return TOp(op.name, targs, args)


def random_typed_assignment(
    schema,
    rng: random.Random,
    type_pool=None,
    max_depth: int = 3,
):
    """Type-respecting assignment with a few random non-identity components."""
    if type_pool is None:
        type_pool = ground_types(schema.grammar)
    components = {}
    for ty in rng.sample(type_pool, k=min(len(type_pool), rng.randint(0, 3))):
        prefix = tuple(
            random_typed_term(schema, rng, ty, max_depth, type_pool)
            for _ in range(rng.randint(0, 3))
        )
        components[ty] = (prefix, rng.randint(0, 2))
    return TypedAssignment(components)
