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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Optional

from .signature import BindingSignature
from .subst import IDENTITY, NAT, Assignment, at, compose_with, lift_with, subst
from .term import Term, Var, Op


# --- assignments over an arbitrary carrier ------------------------------

# A model's assignments are the one finite ``Assignment``, with the model's
# variables map as the carrier's ``var``.
ModelAssignment = Assignment


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


def model_lift(m: DeBruijnMonad, a: Assignment) -> Assignment:
    """0 -> v(0), n+1 -> a(n)[shift], in the model's own substitution."""
    return model_lift_n(m, a, 1)


def model_lift_n(m: DeBruijnMonad, a: Assignment, n: int) -> Assignment:
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


# Each named node caches its set of free names in ``free``, computed once
# from its children's sets; the field takes no part in ==, hash or repr.


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

    def __post_init__(self):
        object.__setattr__(self, "free", _free_of_args(self.args))


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


def free_names(t: NamedTerm) -> frozenset[str]:
    if not isinstance(t, NamedTerm):
        raise TypeError(t)
    return t.free


def alpha_eq(a: NamedTerm, b: NamedTerm) -> bool:
    """Equality of named terms up to consistent renaming of binders."""
    # name -> binder depth on each side, updated in place and restored
    # after each body; a mismatch ends the whole comparison unrestored
    env_a: dict[str, int] = {}
    env_b: dict[str, int] = {}

    def bind(env: dict[str, int], names, depth: int) -> list:
        saved = []
        for i, x in enumerate(names):
            saved.append((x, env.get(x)))
            env[x] = depth + i
        return saved

    def restore(env: dict[str, int], saved: list) -> None:
        for x, old in reversed(saved):
            if old is None:
                del env[x]
            else:
                env[x] = old

    def go(a, b, depth: int) -> bool:
        match a, b:
            case (NVar(x), NVar(y)):
                ia, ib = env_a.get(x), env_b.get(y)
                return ia == ib and (ia is not None or x == y)
            case (NOp(na, xs), NOp(nb, ys)) if na == nb and len(xs) == len(ys):
                for (bx, tx), (by, ty) in zip(xs, ys):
                    if len(bx) != len(by):
                        return False
                    saved_a = bind(env_a, bx, depth)
                    saved_b = bind(env_b, by, depth)
                    if not go(tx, ty, depth + len(bx)):
                        return False
                    restore(env_a, saved_a)
                    restore(env_b, saved_b)
                return True
        return False

    return go(a, b, 0)


def _letter_supply():
    i = 0
    while True:
        for c in "abcdefghijklmnopqrstuvwxyz":
            yield c if i == 0 else f"{c}{i}"
        i += 1


def fresh_names(count: int, avoid) -> list[str]:
    """First ``count`` binder names (a, b, c, ...) not in ``avoid``."""
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


def named_subst(t: NamedTerm, mapping: dict[str, NamedTerm]) -> NamedTerm:
    """Simultaneous capture-avoiding substitution with deterministic
    fresh binder names.

    Sharing: a subterm (``t`` too) in which no key of ``mapping`` is free
    is returned itself, and only the entries free in a body are passed
    down into it.
    """
    if mapping.keys().isdisjoint(t.free):
        return t
    if type(t) is NVar:
        return mapping[t.name]
    new_args = []
    for binders, body in t.args:
        if not binders and type(body) is NVar:
            new_args.append(((), mapping.get(body.name, body)))
            continue
        relevant = _relevant(mapping, body.free, binders)
        if binders and relevant:
            captured = frozenset().union(*map(_free, relevant.values()))
            if not captured.isdisjoint(binders):
                # a binder would capture a free name of an image: rename
                # it, fresh for the body and every image, as binders go
                avoid = body.free.difference(binders) | captured
                taken = set(avoid)
                relevant = dict(relevant)
                new_binders = []
                for b in binders:
                    z = b
                    if b in avoid:
                        (z,) = fresh_names(1, taken)
                        relevant[b] = NVar(z)
                    new_binders.append(z)
                    taken.add(z)
                binders = tuple(new_binders)
        new_args.append((binders, named_subst(body, relevant)))
    return NOp(t.name, tuple(new_args))


_SUPPLY_RE = re.compile(r"^x(0|[1-9][0-9]*)$")


def default_supply(n: int) -> str:
    return f"x{n}"


def default_supply_index(name: str) -> Optional[int]:
    m = _SUPPLY_RE.match(name)
    return int(m.group(1)) if m else None


def named_model(
    sig: BindingSignature,
    name_supply: Callable[[int], str] = default_supply,
    supply_index: Callable[[str], Optional[int]] = default_supply_index,
) -> DBAlgebra:
    """Named-term model: variables are supply names, substitution is the
    classical capture-avoiding one, interpretations attach fresh binders."""

    def variables(n: int) -> NamedTerm:
        return NVar(name_supply(n))

    def substitution(t: NamedTerm, a: Assignment) -> NamedTerm:
        mapping = {}
        for name in t.free:
            idx = supply_index(name)
            if idx is not None:
                mapping[name] = at(a, idx, variables)
        return named_subst(t, mapping)

    def interp(name: str):
        binders = sig.ops[name].binders

        def apply(args: list) -> NamedTerm:
            pieces = []
            for k, e in zip(binders, args):
                if k == 0:
                    pieces.append(((), e))
                    continue
                fv = e.free
                zs = fresh_names(k, fv)
                mapping: dict[str, NamedTerm] = {}
                for name_ in fv:
                    idx = supply_index(name_)
                    if idx is None:
                        continue
                    if idx < k:
                        # index j becomes the j-th innermost binder
                        mapping[name_] = NVar(zs[k - 1 - idx])
                    else:
                        mapping[name_] = NVar(name_supply(idx - k))
                pieces.append((tuple(zs), named_subst(e, mapping)))
            return NOp(name, tuple(pieces))

        return apply

    return DBAlgebra(
        variables=variables,
        substitution=substitution,
        equal=alpha_eq,
        interpretations={name: interp(name) for name in sig.ops},
    )


# --- folds and conversions ----------------------------------------------


def initial_fold(sig: BindingSignature, algebra: DBAlgebra, t: Term):
    """Evaluate a term in a model: the unique structure map out of the
    term model, restricted to ``t``."""
    from .term import fold

    return fold(
        sig,
        algebra.variables,
        lambda name, args: algebra.interpretations[name](args),
        t,
    )


def to_named(sig: BindingSignature, t: Term) -> NamedTerm:
    return initial_fold(sig, named_model(sig), t)


def from_named(sig: BindingSignature, t: NamedTerm) -> Term:
    """Invert the conversion; free names must come from the supply."""

    def go(node: NamedTerm, env: tuple[str, ...]) -> Term:
        match node:
            case NVar(name):
                if name in env:
                    return Var(env.index(name))
                idx = default_supply_index(name)
                if idx is None:
                    raise ValueError(f"unbound name '{name}' is not of supply form")
                return Var(idx + len(env))
            case NOp(op, args):
                binders = sig.ops[op].binders
                parts = []
                for k, (bs, body) in zip(binders, args):
                    if len(bs) != k:
                        raise ValueError(
                            f"operation '{op}' expects {k} binders, got {len(bs)}"
                        )
                    parts.append(go(body, tuple(reversed(bs)) + env))
                return Op(op, tuple(parts))
        raise TypeError(node)

    return go(t, ())


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
    cases,
    check: Callable[[Any], bool],
    shrink: Optional[Callable[[Any], list]] = None,
    show: Callable[[Any], str] = repr,
) -> None:
    """Run ``check`` over enumerated cases, greedily shrinking the first
    failure if a shrinker is available."""
    for i, sample in enumerate(cases):
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
    import random

    report = Report()

    def samples():
        rng = random.Random(seed)
        for _ in range(cases):
            yield gen_element(rng), gen_assignment(rng), gen_assignment(rng), rng.randrange(8)

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

    _run_law(report, "associativity", seed, samples(), assoc, shrink, show)
    _run_law(report, "left-unitality", seed, samples(), left_unit, shrink, show)
    _run_law(report, "right-unitality", seed, samples(), right_unit, shrink, show)
    return report


def check_binding_conditions(
    algebra: DBAlgebra,
    sig: BindingSignature,
    gen_element: Callable,
    gen_assignment: Callable,
    cases: int = 1000,
    seed: int = 0,
    shrink: Optional[Callable] = None,
    show: Callable[[Any], str] = repr,
) -> Report:
    """Per operation: substitution commutes with the interpretation once
    the assignment is lifted by each argument's binder count."""
    import random

    report = Report()
    for name, a in sig.ops.items():
        binders = a.binders

        def samples():
            rng = random.Random(seed)
            for _ in range(cases):
                yield (
                    [gen_element(rng) for _ in binders],
                    gen_assignment(rng),
                )

        def check(s, name=name, binders=binders) -> bool:
            args, sigma = s
            interp = algebra.interpretations[name]
            lhs = algebra.substitution(interp(list(args)), sigma)
            rhs = interp(
                [
                    algebra.substitution(x, model_lift_n(algebra, sigma, n))
                    for x, n in zip(args, binders)
                ]
            )
            return algebra.equal(lhs, rhs)

        _run_law(report, f"binding:{name}", seed, samples(), check, shrink, show)
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
    show: Callable[[Any], str] = repr,
) -> Report:
    """Check that ``h`` commutes with variables, substitution, and every
    operation, on sampled elements of ``a``."""
    import random

    report = Report()

    def var_samples():
        rng = random.Random(seed)
        for _ in range(cases):
            yield rng.randrange(16)

    _run_law(
        report,
        "morphism:variables",
        seed,
        var_samples(),
        lambda n: b.equal(h(a.variables(n)), b.variables(n)),
        show=show,
    )

    def subst_samples():
        rng = random.Random(seed)
        for _ in range(cases):
            yield gen_element(rng), gen_assignment(rng)

    def subst_ok(s) -> bool:
        x, f = s
        mapped = Assignment(tuple(map(h, f.prefix)), f.tail_shift, b.variables)
        return b.equal(h(a.substitution(x, f)), b.substitution(h(x), mapped))

    _run_law(report, "morphism:substitution", seed, subst_samples(), subst_ok, show=show)

    for name, ar in sig.ops.items():
        def op_samples(p=len(ar.binders)):
            rng = random.Random(seed)
            for _ in range(cases):
                yield [gen_element(rng) for _ in range(p)]

        def op_ok(args, name=name) -> bool:
            lhs = h(a.interpretations[name](list(args)))
            rhs = b.interpretations[name]([h(x) for x in args])
            return b.equal(lhs, rhs)

        _run_law(report, f"morphism:op:{name}", seed, op_samples(), op_ok, show=show)
    return report
