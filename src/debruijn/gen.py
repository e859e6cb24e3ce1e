"""Seeded random generators, exhaustive enumerators, and shrinkers used
by the law fuzzers and the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .signature import BindingSignature, TypeExpr, instantiate_schema
from .subst import Assignment, Renaming
from .term import Term, Var, Op, fold_nodes
from .typed import TOp, TVar, TypedAssignment


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
    max_prefix: int = 4,
    max_shift: int = 3,
    max_depth: int = 4,
    max_index: int = 5,
) -> Assignment:
    prefix = tuple(
        random_term(sig, rng, max_depth, max_index)
        for _ in range(rng.randint(0, max_prefix))
    )
    return Assignment(prefix, rng.randint(0, max_shift))


def random_renaming(
    rng: random.Random, max_prefix: int = 4, max_shift: int = 3, max_index: int = 6
) -> Assignment:
    prefix = tuple(
        rng.randrange(max_index) for _ in range(rng.randint(0, max_prefix))
    )
    return Renaming(prefix, rng.randint(0, max_shift))


def enumerate_terms(
    sig: BindingSignature, max_depth: int, indices: Sequence[int]
) -> list[Term]:
    """All well-formed terms of depth <= max_depth (a variable has depth 1)
    with variable indices drawn from ``indices``."""
    by_depth: list[list[Term]] = [[]]
    by_depth.append([Var(i) for i in indices])
    for d in range(2, max_depth + 1):
        pool = [t for level in by_depth[1:d] for t in level]
        level: list[Term] = []
        for name, a in sorted(sig.ops.items()):
            p = len(a.binders)
            for args in itertools.product(pool, repeat=p):
                candidate = Op(name, args)
                if _depth(candidate) == d:
                    level.append(candidate)
        by_depth.append(level)
    return [t for level in by_depth[1:] for t in level]


def _depth(t: Term) -> int:
    return fold_nodes(t, lambda v: 1, lambda o, depths: 1 + max(depths, default=0))


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
    levels = [[TypeExpr(c) for c, n in sorted(grammar.ctors.items()) if n == 0]]
    for _ in range(max_depth - 1):
        pool = [t for level in levels for t in level]
        nxt = []
        for c, n in sorted(grammar.ctors.items()):
            if n == 0:
                continue
            for args in itertools.product(pool, repeat=n):
                ty = TypeExpr(c, args)
                if all(ty not in level for level in levels) and ty not in nxt:
                    nxt.append(ty)
        levels.append(nxt)
    return [t for level in levels for t in level]


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
    max_index: int = 3,
):
    """Random well-typed (open) term of the requested type, built by
    matching operation conclusions against the goal type."""
    if type_pool is None:
        type_pool = ground_types(schema.grammar)
    if max_depth <= 0 or rng.random() < 0.3:
        return TVar(rng.randrange(max_index), ty)
    candidates = []
    for op in schema.schemas.values():
        env: dict = {}
        if _match_type(op.template.conclusion, ty, set(op.metavars), env):
            candidates.append((op, env))
    if not candidates:
        return TVar(rng.randrange(max_index), ty)
    op, env = rng.choice(candidates)
    targs = tuple(
        env[m] if m in env else rng.choice(type_pool) for m in op.metavars
    )
    ar = instantiate_schema(op, targs, schema.grammar)
    args = tuple(
        random_typed_term(schema, rng, tau, max_depth - 1, type_pool, max_index)
        for _, tau in ar.premises
    )
    return TOp(op.name, targs, args)


def random_typed_assignment(
    schema,
    rng: random.Random,
    type_pool=None,
    max_prefix: int = 3,
    max_shift: int = 2,
    max_depth: int = 3,
):
    """Type-respecting assignment with a few random non-identity components."""
    if type_pool is None:
        type_pool = ground_types(schema.grammar)
    components = {}
    for ty in rng.sample(type_pool, k=min(len(type_pool), rng.randint(0, 3))):
        prefix = tuple(
            random_typed_term(schema, rng, ty, max_depth, type_pool)
            for _ in range(rng.randint(0, max_prefix))
        )
        components[ty] = (prefix, rng.randint(0, max_shift))
    return TypedAssignment(components)
