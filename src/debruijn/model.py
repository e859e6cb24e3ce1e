"""Abstract De Bruijn monad / algebra contracts, law fuzzing, and the
named-term oracle model.

A model is a carrier with a variables map, a substitution map, and (for
algebras) one interpretation per signature operation.  The laws are not
assumed: :func:`check_monad_laws`, :func:`check_binding_conditions` and
:func:`check_morphism` probe them on sampled inputs and report
counterexamples as data.

The named-term model is an independent implementation of substitution
(classical simultaneous capture-avoiding substitution on terms with
explicit binder names, compared up to alpha-equivalence).  Folding the
nameless term model into it yields the nameless-to-named conversion.
One named layer serves typed named terms (``TNVar``/``TNOp``) and the
untyped ones, its one-sort case.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Optional

from .signature import BindingSignature, TypeExpr
from .subst import IDENTITY, NAT, Assignment, at, compose_with, lift_with, subst
from .term import Term, Var, Op, fold, gc_paused


# A model's assignments are the one finite ``Assignment``, with the model's
# variables map as the carrier's ``var``.
@dataclass
class DeBruijnMonad:
    """Carrier with variables and substitution maps plus decidable equality."""

    variables: Callable[[int], Any]
    substitution: Callable[[Any, Assignment], Any]
    equal: Callable[[Any, Any], bool] = field(default=lambda a, b: a == b)


@dataclass
class DBAlgebra(DeBruijnMonad):
    """A De Bruijn monad with one interpretation per signature operation.

    Each interpretation takes the list of argument elements.
    """

    interpretations: dict[str, Callable[[list], Any]] = field(default_factory=dict)


def model_lift_n(m: DeBruijnMonad, a: Assignment, n: int) -> Assignment:
    """The n-fold lift: i -> v(i) for i < n, n + j -> a(j)[shift by n], in
    the model's own substitution."""
    return lift_with(a, n, m.variables, lambda x: m.substitution(x, Assignment((), n)))


def model_compose(m: DeBruijnMonad, f: Assignment, g: Assignment) -> Assignment:
    """n -> f(n)[g]."""
    return compose_with(f, g, m.variables, lambda x: m.substitution(x, g))


# --- builtin models -----------------------------------------------------


def term_model(sig: BindingSignature) -> DBAlgebra:
    """The term carrier with structural substitution and constructors."""

    def substitution(t: Term, a: Assignment) -> Term:
        return subst(t, a, sig)

    def interp(name: str):
        return lambda args: Op(name, tuple(args))

    return DBAlgebra(
        variables=Var,
        substitution=substitution,
        interpretations={name: interp(name) for name in sig.ops},
    )


def nat_monad() -> DeBruijnMonad:
    """The naturals: variables are the identity, substitution is evaluation."""
    return DeBruijnMonad(variables=NAT, substitution=lambda x, a: at(a, x, NAT))


# --- named terms --------------------------------------------------------


@dataclass(frozen=True)
class NamedTerm:
    pass


# A variable's key is its name, or its (name, type) pair when typed; a
# binder declaration is a key, and it binds exactly the variables of its
# key.  Each node caches the keys free in it in ``free``, computed once
# from its children's sets; it takes no part in ==, hash or repr.  The
# hooks on the operation classes are all that tells sorts apart.


@dataclass(frozen=True)
class NVar(NamedTerm):
    name: str
    free: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "free", frozenset((self.name,)))


@dataclass(frozen=True)
class NOp(NamedTerm):
    name: str
    # one (binder names, body) pair per argument; binders listed
    # outermost-first, so the last binder is nameless index 0
    args: tuple[tuple[tuple[str, ...], NamedTerm], ...]
    free: frozenset[str] = field(init=False, repr=False, compare=False)
    type_args = ()

    def __post_init__(self):
        object.__setattr__(self, "free", _free_of_args(self.args))

    # one sort, None, and a key is its name; split yields (key, name, sort)
    key_names = staticmethod(frozenset)
    group_sorts = len
    split = staticmethod(lambda keys: zip(keys, keys, repeat(None)))
    var = staticmethod(lambda name, sort: NVar(name))
    decls = staticmethod(lambda names, sorts: tuple(names))


@dataclass(frozen=True)
class TNVar(NamedTerm):
    name: str
    ty: TypeExpr
    free: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "free", frozenset(((self.name, self.ty),)))


@dataclass(frozen=True)
class TNOp(NamedTerm):
    name: str
    type_args: tuple[TypeExpr, ...]
    # per argument: (binder declarations ordered along the premise
    # context, body); a binder declaration is a (name, type) pair
    args: tuple[tuple[tuple[tuple[str, TypeExpr], ...], NamedTerm], ...]
    free: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "free", _free_of_args(self.args))

    key_names = staticmethod(lambda keys: {n for n, _ in keys})
    group_sorts = staticmethod(lambda decls: [ty for _, ty in decls])
    split = staticmethod(lambda keys: ((key, *key) for key in keys))
    var = TNVar
    decls = staticmethod(lambda names, sorts: tuple(zip(names, sorts)))


def _free_of_args(args) -> frozenset:
    """Union over ``(binders, body)`` pairs of the body's free set minus
    its binders; a lone body's set is shared when it binds none of it."""
    sets = []
    for binders, body in args:
        if not isinstance(body, NamedTerm):
            raise TypeError(body)
        fv = body.free
        if not fv.isdisjoint(binders):
            fv = fv.difference(binders)
        sets.append(fv)
    if len(sets) == 1:
        return sets[0]
    return frozenset().union(*sets)


def free_names(t: NamedTerm) -> frozenset:
    if not isinstance(t, NamedTerm):
        raise TypeError(t)
    return t.free


def alpha_eq(a: NamedTerm, b: NamedTerm) -> bool:
    """Equality of named terms up to consistent renaming of binders; typed
    terms must also agree on every type."""
    # key -> binder depth on each side, updated in place and restored
    # after each body; a mismatch ends the whole comparison unrestored
    env_a: dict = {}
    env_b: dict = {}

    def bind(env: dict, keys, depth: int) -> list:
        saved = []
        for i, x in enumerate(keys):
            saved.append((x, env.get(x)))
            env[x] = depth + i
        return saved

    def restore(env: dict, saved: list) -> None:
        for x, old in reversed(saved):
            if old is None:
                del env[x]
            else:
                env[x] = old

    def go(a, b, depth: int) -> bool:
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is NVar or kind is TNVar:
            # a bound key's type is its binder's, which the sides share
            (x,), (y,) = a.free, b.free
            ia, ib = env_a.get(x), env_b.get(y)
            return ia == ib and (ia is not None or x == y)
        xs, ys = a.args, b.args
        if a.name != b.name or a.type_args != b.type_args or len(xs) != len(ys):
            return False
        for (bx, tx), (by, ty) in zip(xs, ys):
            if a.group_sorts(bx) != a.group_sorts(by):
                return False
            saved_a = bind(env_a, bx, depth)
            saved_b = bind(env_b, by, depth)
            if not go(tx, ty, depth + len(bx)):
                return False
            restore(env_a, saved_a)
            restore(env_b, saved_b)
        return True

    return go(a, b, 0)


def _letter_supply():
    i = 0
    while True:
        for c in "abcdefghijklmnopqrstuvwxyz":
            yield c if i == 0 else f"{c}{i}"
        i += 1


def fresh_names(count: int, avoid) -> list[str]:
    """First ``count`` binder names (a, b, c, ...) not in ``avoid``."""
    if not count:
        return []
    out: list[str] = []
    # the supply never repeats a name, so ``avoid`` needs no additions
    for name in _letter_supply():
        if name not in avoid:
            out.append(name)
            if len(out) == count:
                return out
    raise AssertionError("unreachable")


_free = attrgetter("free")


def _relevant(mapping: dict, fv: frozenset, bound) -> dict:
    """The entries of ``mapping`` whose key is in ``fv`` but not ``bound``:
    ``mapping`` itself when that is all of it, else a new dict built by
    walking the smaller of ``mapping`` and ``fv``."""
    keys = mapping.keys()
    if keys <= fv and keys.isdisjoint(bound):
        return mapping
    if len(mapping) <= len(fv):
        return {x: v for x, v in mapping.items() if x in fv and x not in bound}
    return {x: mapping[x] for x in fv if x in mapping and x not in bound}


def named_subst(t: NamedTerm, mapping: dict) -> NamedTerm:
    """Simultaneous capture-avoiding substitution with deterministic
    fresh binder names; ``mapping`` sends keys to terms.

    A binder is renamed when its key is free in an image entering its
    scope, to a name free neither in its body nor in any such image.

    Sharing: a subterm (``t`` too) in which no key of ``mapping`` is free
    is returned itself, and only the entries free in a body are passed
    down into it.
    """
    if mapping.keys().isdisjoint(t.free):
        return t
    kind = type(t)
    if kind is not NOp and kind is not TNOp:  # a variable
        (key,) = t.free
        return mapping[key]
    new_args = []
    for binders, body in t.args:
        if not binders and (type(body) is NVar or type(body) is TNVar):
            (key,) = body.free
            new_args.append(((), mapping.get(key, body)))
            continue
        relevant = _relevant(mapping, body.free, binders)
        if binders and relevant:
            captured = frozenset().union(*map(_free, relevant.values()))
            if not captured.isdisjoint(binders):
                # rename the captured binders at once, to names free in
                # neither the body nor any image and bound nowhere in the group
                avoid = t.key_names(captured.union(body.free, binders))
                zs = iter(fresh_names(sum(map(captured.__contains__, binders)), avoid))
                relevant = dict(relevant)
                new_names, sorts = [], []
                for b, z, sort in t.split(binders):
                    if b in captured:
                        z = next(zs)
                        relevant[b] = t.var(z, sort)
                    new_names.append(z)
                    sorts.append(sort)
                binders = t.decls(new_names, sorts)
        new_args.append((binders, named_subst(body, relevant)))
    if kind is NOp:
        return NOp(t.name, tuple(new_args))
    return TNOp(t.name, t.type_args, tuple(new_args))


_SUPPLY_RE = re.compile(r"^x(0|[1-9][0-9]*)$")


def default_supply(n: int) -> str:
    return f"x{n}"


def default_supply_index(name: str) -> Optional[int]:
    m = _SUPPLY_RE.match(name)
    return int(m.group(1)) if m else None


def supply_subst(op: type, t: NamedTerm, component) -> NamedTerm:
    """``t`` with each free supply name of index i at sort s replaced by
    the image of i under the assignment ``component(s)``."""
    mapping = {}
    for key, name, s in op.split(t.free):
        idx = default_supply_index(name)
        if idx is not None:
            mapping[key] = at(component(s), idx, lambda n, s=s: op.var(default_supply(n), s))
    return named_subst(t, mapping)


def bind_fresh(op: type, head: tuple, arg_sorts, args) -> NamedTerm:
    """The ``op`` node with fields ``head`` over ``args``, each under fresh
    binders of its ``arg_sorts`` (outermost first): index i of sort s is
    bound by the i-th binder of sort s counted from the innermost."""
    pieces = []
    for sorts, e in zip(arg_sorts, args):
        if not sorts:
            pieces.append(((), e))
            continue
        zs = fresh_names(len(sorts), op.key_names(e.free))
        inner_first: dict = {}
        for z, s in zip(reversed(zs), reversed(sorts)):
            inner_first.setdefault(s, []).append(z)
        mapping = {}
        for key, name, s in op.split(e.free):
            idx = default_supply_index(name)
            if idx is not None:
                bound = inner_first.get(s, ())
                z = bound[idx] if idx < len(bound) else default_supply(idx - len(bound))
                mapping[key] = op.var(z, s)
        pieces.append((op.decls(zs, sorts), named_subst(e, mapping)))
    return op(*head, tuple(pieces))


def named_model(sig: BindingSignature) -> DBAlgebra:
    """Named-term model: variables are supply names, substitution is the
    classical capture-avoiding one, interpretations attach fresh binders."""
    return DBAlgebra(
        variables=lambda n: NVar(default_supply(n)),
        substitution=lambda t, a: supply_subst(NOp, t, lambda s: a),
        equal=alpha_eq,
        interpretations={
            name: partial(bind_fresh, NOp, (name,), [(None,) * k for k in a.binders])
            for name, a in sig.ops.items()
        },
    )


# --- folds and conversions ----------------------------------------------


def initial_fold(sig: BindingSignature, algebra: DBAlgebra, t: Term):
    """Evaluate a term in a model: the unique structure map out of the
    term model, restricted to ``t``."""
    return fold(
        sig,
        algebra.variables,
        lambda name, args: algebra.interpretations[name](args),
        t,
    )


def to_named(sig: BindingSignature, t: Term) -> NamedTerm:
    return initial_fold(sig, named_model(sig), t)


@gc_paused
def from_named(sig: BindingSignature, t: NamedTerm) -> Term:
    """Invert the conversion; free names must come from the supply.

    One walk with an explicit stack of the open operations, each with the
    values of its arguments so far.  ``levels`` maps each bound name to
    the levels (binders above, counted from the root) of its binders in
    scope, innermost last, so a variable is found in constant time."""
    levels: dict[str, list[int]] = {}
    depth = 0  # binders in scope
    frames: list[tuple[str, tuple, tuple, list]] = []
    node = t
    while True:
        match node:
            case NVar(name):
                bound = levels.get(name)
                if bound:
                    value = Var(depth - 1 - bound[-1])
                else:
                    idx = default_supply_index(name)
                    if idx is None:
                        raise ValueError(f"unbound name '{name}' is not of supply form")
                    value = Var(idx + depth)
            case NOp(op, args):
                if op not in sig.ops:
                    raise ValueError(f"unknown operation '{op}'")
                binders = sig.ops[op].binders
                if len(args) != len(binders):
                    raise ValueError(
                        f"operation '{op}' expects {len(binders)} arguments, got {len(args)}"
                    )
                frames.append((op, binders, args, []))
                value = None
            case _:
                raise TypeError(node)
        while frames:  # hand the value up, to the first operation with an argument left
            op, binders, args, values = frames[-1]
            if value is not None:
                for name in args[len(values)][0]:
                    levels[name].pop()
                    depth -= 1
                values.append(value)
            if len(values) < len(args):
                k = binders[len(values)]
                bs, node = args[len(values)]
                if len(bs) != k:
                    raise ValueError(f"operation '{op}' expects {k} binders, got {len(bs)}")
                for name in bs:
                    levels.setdefault(name, []).append(depth)
                    depth += 1
                break
            value = Op(op, tuple(values))
            frames.pop()
        else:
            return value


def debruijn_to_named_direct(sig: BindingSignature, t: Term) -> NamedTerm:
    """Independent top-down converter used to cross-check the fold-based
    conversion; binder names are drawn per nesting depth."""
    supply = []
    # skip the names of free variables (x1, x2, ...), which a binder would capture
    gen = (z for z in _letter_supply() if default_supply_index(z) is None)

    def letter(i: int) -> str:
        while len(supply) <= i:
            supply.append(next(gen))
        return supply[i]

    def go(node: Term, env: tuple[str, ...]) -> NamedTerm:
        match node:
            case Var(n):
                if n < len(env):
                    return NVar(env[n])
                return NVar(default_supply(n - len(env)))
            case Op(name, args):
                binders = sig.ops[name].binders
                parts = []
                for k, a in zip(binders, args):
                    bs = tuple(letter(len(env) + j) for j in range(k))
                    parts.append((bs, go(a, tuple(reversed(bs)) + env)))
                return NOp(name, tuple(parts))
        raise TypeError(node)

    return go(t, ())


# --- law checking -------------------------------------------------------


@dataclass
class LawResult:
    law: str
    ok: bool
    seed: int
    case: Optional[int] = None
    counterexample: Optional[str] = None

    def line(self) -> str:
        s = f"LAW {self.law} {'PASS' if self.ok else 'FAIL'} seed={self.seed}"
        if self.case is not None:
            s += f" case={self.case}"
        if self.counterexample is not None:
            s += f" counterexample={self.counterexample}"
        return s


@dataclass
class Report:
    results: list[LawResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _run_law(
    report: Report,
    law: str,
    seed: int,
    cases: int,
    gen: Callable[[random.Random], Any],
    check: Callable[[Any], bool],
    shrink: Optional[Callable[[Any], list]] = None,
    show: Callable[[Any], str] = repr,
) -> None:
    """Run ``check`` on ``cases`` samples, greedily shrinking the first
    failure if a shrinker is available.  Each law draws from a fresh
    ``random.Random(seed)`` stream: sample i is the i-th ``gen(rng)``."""
    rng = random.Random(seed)
    for i in range(cases):
        sample = gen(rng)
        if check(sample):
            continue
        if shrink is not None:
            improved = True
            while improved:
                improved = False
                for cand in shrink(sample):
                    if not check(cand):
                        sample = cand
                        improved = True
                        break
        report.results.append(
            LawResult(law, False, seed, case=i, counterexample=show(sample))
        )
        return
    report.results.append(LawResult(law, True, seed))


def _binding_law(m: DeBruijnMonad, op: Callable[[list], Any], binders) -> Callable[[Any], bool]:
    """The binding condition of ``op`` on a sample (args, assignment):
    substitution commutes with ``op`` once the assignment is lifted by
    each argument's binder count."""

    def check(s) -> bool:
        args, sigma = s
        lhs = m.substitution(op(list(args)), sigma)
        rhs = op(
            [
                m.substitution(x, model_lift_n(m, sigma, n))
                for x, n in zip(args, binders)
            ]
        )
        return m.equal(lhs, rhs)

    return check


def _naturality_law(h: Callable, op_a: Callable, op_b: Callable, equal: Callable) -> Callable:
    """Naturality of ``h`` on a sample of arguments: ``h`` after ``op_a``
    equals ``op_b`` after ``h`` on each argument."""
    return lambda args: equal(h(op_a(list(args))), op_b([h(x) for x in args]))


def _binding_sampler(gen_element: Callable, gen_assignment: Callable, binders) -> Callable:
    """Sampler of (one element per argument, one assignment)."""
    return lambda rng: ([gen_element(rng) for _ in binders], gen_assignment(rng))


def check_monad_laws(
    m: DeBruijnMonad,
    gen_element: Callable[[Any], Any],
    gen_assignment: Callable[[Any], Assignment],
    cases: int = 1000,
    seed: int = 0,
    shrink: Optional[Callable] = None,
    show: Callable[[Any], str] = repr,
) -> Report:
    """Probe associativity and the two unit laws on sampled inputs.

    ``gen_element`` and ``gen_assignment`` take a ``random.Random``.
    """
    report = Report()

    def gen(rng):
        return gen_element(rng), gen_assignment(rng), gen_assignment(rng), rng.randrange(8)

    def assoc(s) -> bool:
        x, f, g, _ = s
        lhs = m.substitution(m.substitution(x, f), g)
        rhs = m.substitution(x, model_compose(m, f, g))
        return m.equal(lhs, rhs)

    def left_unit(s) -> bool:
        _, f, _, n = s
        return m.equal(m.substitution(m.variables(n), f), at(f, n, m.variables))

    def right_unit(s) -> bool:
        x, _, _, _ = s
        return m.equal(m.substitution(x, IDENTITY), x)

    _run_law(report, "associativity", seed, cases, gen, assoc, shrink, show)
    _run_law(report, "left-unitality", seed, cases, gen, left_unit, shrink, show)
    _run_law(report, "right-unitality", seed, cases, gen, right_unit, shrink, show)
    return report


def check_binding_conditions(
    algebra: DBAlgebra,
    sig: BindingSignature,
    gen_element: Callable,
    gen_assignment: Callable,
    cases: int = 1000,
    seed: int = 0,
) -> Report:
    """Per operation: substitution commutes with the interpretation once
    the assignment is lifted by each argument's binder count."""
    report = Report()
    for name, a in sig.ops.items():
        gen = _binding_sampler(gen_element, gen_assignment, a.binders)
        check = _binding_law(algebra, algebra.interpretations[name], a.binders)
        _run_law(report, f"binding:{name}", seed, cases, gen, check)
    return report


def check_morphism(
    h: Callable[[Any], Any],
    a: DBAlgebra,
    b: DBAlgebra,
    sig: BindingSignature,
    gen_element: Callable,
    gen_assignment: Callable,
    cases: int = 1000,
    seed: int = 0,
) -> Report:
    """Check that ``h`` commutes with variables, substitution, and every
    operation, on sampled elements of ``a``."""
    report = Report()
    _run_law(
        report,
        "morphism:variables",
        seed,
        cases,
        lambda rng: rng.randrange(16),
        lambda n: b.equal(h(a.variables(n)), b.variables(n)),
    )

    def subst_ok(s) -> bool:
        x, f = s
        mapped = Assignment(tuple(map(h, f.prefix)), f.tail_shift, b.variables)
        return b.equal(h(a.substitution(x, f)), b.substitution(h(x), mapped))

    def subst_sample(rng):
        return gen_element(rng), gen_assignment(rng)

    _run_law(report, "morphism:substitution", seed, cases, subst_sample, subst_ok)

    for name, ar in sig.ops.items():
        def gen(rng, p=len(ar.binders)):
            return [gen_element(rng) for _ in range(p)]

        check = _naturality_law(h, a.interpretations[name], b.interpretations[name], b.equal)
        _run_law(report, f"morphism:op:{name}", seed, cases, gen, check)
    return report
