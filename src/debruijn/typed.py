"""Simply-typed terms over a typed signature schema: typing, typed
lifting and substitution, typed models and folds, and the
application-binary-tree signature generator for call-by-value languages.

Variables of each type have their own index space; lifting at a type
shifts only that type's indices and leaves every other type untouched.
The nodes ``TVar`` and ``TOp`` and their substitution kernel, which
advances a vector of per-type depths, are those of :mod:`debruijn.term`.
A typed assignment is one :class:`~debruijn.subst.Assignment` per type,
whose carrier's ``var`` is ``TVar(·, ty)``.  The typed named oracle is the
named layer of :mod:`debruijn.model`, whose untyped terms are its
one-sort case; this module adds its model, ``typed_named_model``.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable

from .model import (
    NamedTerm, TNOp, TNVar, alpha_eq, bind_fresh, default_supply, named_walk, supply_subst,
)
from .signature import (
    OpSchema,
    Record,
    TypeExpr,
    TypeGrammar,
    TypedArity,
    TypedSignatureSchema,
    arrow,
    base,
)
from .subst import IDENTITY, Assignment, at, compose_with, lift_with
from .term import TOp, TVar, TypecheckError, TypedTerm, Var, Op, fold_nodes, map_free_vars, op_arity


def _tvar(ty: TypeExpr) -> Callable[[int], TVar]:
    """The variables map of the terms of type ``ty``."""
    return partial(TVar, ty=ty)


class TypedAssignment(Record):
    """Family of finite assignments indexed by type; types not present
    are the identity."""

    components: dict[TypeExpr, Assignment]

    def __init__(self, components: dict[TypeExpr, Assignment] = {}):  # read, never stored
        norm = {}
        for ty, (prefix, k) in components.items():
            a = Assignment(prefix, k, _tvar(ty))
            if a != IDENTITY:
                norm[ty] = a
        object.__setattr__(self, "components", norm)

    def component(self, ty: TypeExpr) -> Assignment:
        return self.components.get(ty, IDENTITY)


def typed_assignment_at(sigma: TypedAssignment, ty: TypeExpr, n: int) -> TypedTerm:
    return at(sigma.component(ty), n, _tvar(ty))


# --- typing -------------------------------------------------------------


def typecheck(schema: TypedSignatureSchema, t: TypedTerm) -> TypeExpr:
    """Type of ``t``; binder counts along each premise's context shape
    the per-type index discipline but do not affect the computed type.

    One walk with an explicit stack of [operation, arity, argument
    position] frames.  It meets the faults in the order of the recursive
    definition (an operation's own, then each argument's in turn, its type
    compared with its premise once known) and reads a path off the stack."""
    wellformed = schema.grammar.wellformed
    frames: list[list] = []

    def fault(message: str):
        raise TypecheckError(message, tuple(f[2] for f in frames))

    node = t
    while True:
        if type(node) is TVar:
            errs = wellformed(node.ty)
            if errs or node.index < 0:
                fault(errs[0] if errs else "negative variable index")
            got = node.ty
        elif type(node) is TOp:
            try:
                ar = op_arity(schema, node.name, node.type_args)
            except TypecheckError as e:
                fault(str(e))
            n = len(ar.premises)
            if len(node.args) != n:
                fault(f"operation '{node.name}' expects {n} arguments, got {len(node.args)}")
            got = ar.conclusion
            if n:
                frames.append([node, ar, 0])
                node = node.args[0]
                continue
        else:
            fault(f"not a typed term: {node!r}")
        while frames:  # hand the type up, to the first operation with an argument left
            frame = frames[-1]
            parent, ar, i = frame
            want = ar.premises[i][1]
            if got != want:
                frames.pop()  # the fault is the parent's
                fault(f"argument {i} of '{parent.name}' has type {got}, expected {want}")
            if i + 1 < len(parent.args):
                frame[2] = i + 1
                node = parent.args[i + 1]
                break
            frames.pop()
            got = ar.conclusion
        else:
            return got


# --- renaming and substitution ------------------------------------------


def _shift(t: TypedTerm, by: tuple[int, ...], schema, slot) -> TypedTerm:
    """Add ``by[slot[ty]]`` to every free index of type ``ty``."""

    def on_free(node, s, m, depth):
        return TVar(node.index + by[s], node.ty) if s < len(by) else node

    return map_free_vars(t, schema, on_free, slot) if any(by) else t


def tlift_gamma(
    sigma: TypedAssignment, gamma: tuple[TypeExpr, ...], schema: TypedSignatureSchema
) -> TypedAssignment:
    """Lift along a context: each type's component is lifted by the count
    of that type in ``gamma``, and every image is shifted once by the
    count vector of ``gamma``."""
    counts = Counter(gamma)
    by, slot = tuple(counts.values()), {ty: i for i, ty in enumerate(counts)}

    def shift(t: TypedTerm) -> TypedTerm:
        return _shift(t, by, schema, slot)

    return TypedAssignment({
        ty: lift_with(sigma.component(ty), counts[ty], _tvar(ty), shift)
        for ty in {**sigma.components, **counts}
    })


def tsubst(
    t: TypedTerm, sigma: TypedAssignment, schema: TypedSignatureSchema
) -> TypedTerm:
    """Parallel substitution; argument i of an operation is substituted
    under the lifting of ``sigma`` along that premise's context.

    Uses the per-type analogue of the shift identity: under ``depth``
    accumulated binders, a free variable's image is the unlifted image
    shifted by the per-type binder counts, computed once per type, index
    and depth.
    """
    if not sigma.components:
        return t
    slot, images = {}, {}

    def on_free(node, s, m, depth):
        image = images.get((s, m, depth))
        if image is None:
            image = typed_assignment_at(sigma, node.ty, m)
            image = images[s, m, depth] = _shift(image, depth, schema, slot)
        return image

    return map_free_vars(t, schema, on_free, slot)


def tcompose(
    sigma: TypedAssignment, nu: TypedAssignment, schema: TypedSignatureSchema
) -> TypedAssignment:
    """Pointwise n -> tsubst(sigma(n), nu) at every type."""

    def image(t: TypedTerm) -> TypedTerm:
        return tsubst(t, nu, schema)

    return TypedAssignment({
        ty: compose_with(sigma.component(ty), nu.component(ty), _tvar(ty), image)
        for ty in {**sigma.components, **nu.components}
    })


# --- typed models -------------------------------------------------------


class TypedAlgebra(Record, frozen=False):
    """Typed model contract: per-type variables, substitution against a
    typed assignment over the carrier, and one interpretation per
    (schema, type arguments) instantiation."""

    variables: Callable[[int, TypeExpr], Any]
    substitution: Callable[[Any, TypedAssignment], Any]
    interpretation: Callable[[str, tuple[TypeExpr, ...], list], Any]
    equal: Callable[[Any, Any], bool] = lambda a, b: a == b


def typed_term_model(schema: TypedSignatureSchema) -> TypedAlgebra:
    return TypedAlgebra(
        variables=TVar,
        substitution=lambda t, sigma: tsubst(t, sigma, schema),
        interpretation=lambda name, targs, args: TOp(name, targs, tuple(args)),
    )


def t_initial_fold(schema: TypedSignatureSchema, algebra: TypedAlgebra, t: TypedTerm):
    return fold_nodes(
        t,
        lambda v: algebra.variables(v.index, v.ty),
        lambda o, vs: algebra.interpretation(o.name, o.type_args, vs),
        TVar,
        TOp,
    )


# --- typed named oracle -------------------------------------------------


def typed_named_model(schema: TypedSignatureSchema) -> TypedAlgebra:
    def interpretation(name: str, targs, args: list) -> NamedTerm:
        ar = op_arity(schema, name, tuple(targs))
        return bind_fresh(TNOp, (name, tuple(targs)), [g for g, _ in ar.premises], args)

    return TypedAlgebra(
        variables=lambda n, ty: TNVar(default_supply(n), ty),
        substitution=lambda t, sigma: supply_subst(TNOp, t, sigma.component),
        interpretation=interpretation,
        equal=alpha_eq,
    )


def typed_to_named(schema: TypedSignatureSchema, t: TypedTerm) -> NamedTerm:
    """The named form of ``t``.  Its definition is the fold
    ``t_initial_fold(schema, typed_named_model(schema), t)``;
    :func:`~debruijn.model.named_walk` computes the same term."""

    def arg_sorts(node: TOp) -> list:
        premises = op_arity(schema, node.name, node.type_args).premises
        if len(premises) != len(node.args):
            raise TypecheckError(
                f"operation '{node.name}' expects {len(premises)} "
                f"arguments, got {len(node.args)}"
            )
        return [g for g, _ in premises]

    return named_walk(t, TVar, TOp, arg_sorts, TNOp)


# --- degenerate single-type reduction -----------------------------------


def degenerate_schema(sig) -> TypedSignatureSchema:
    """Mirror an untyped signature as a typed one over the single type ``o``."""
    o = base("o")
    schemas = {}
    for name, a in sig.ops.items():
        premises = tuple(((o,) * n, o) for n in a.binders)
        schemas[name] = OpSchema(name, (), TypedArity(premises, o))
    return TypedSignatureSchema(TypeGrammar({"o": 0}), schemas)


def to_degenerate(t) -> TypedTerm:
    o = base("o")
    return fold_nodes(t, lambda v: TVar(v.index, o), lambda n, vs: TOp(n.name, (), vs))


def from_degenerate(t: TypedTerm):
    return fold_nodes(t, lambda v: Var(v.index), lambda n, vs: Op(n.name, vs), TVar, TOp)


# --- application binary trees (values signature) ------------------------


class BTDerivation(Record):
    pass


class BTLeaf(BTDerivation):
    ty: TypeExpr


class BTNode(BTDerivation):
    left: BTDerivation
    right: BTDerivation


def bt_conclusion(d: BTDerivation) -> TypeExpr:
    match d:
        case BTLeaf(ty):
            return ty
        case BTNode(left, right):
            lc = bt_conclusion(left)
            rc = bt_conclusion(right)
            if lc.ctor != "->" or len(lc.args) != 2 or lc.args[0] != rc:
                raise ValueError(f"ill-formed application node: {lc} applied to {rc}")
            return lc.args[1]
    raise TypeError(d)


def bt_context(d: BTDerivation) -> tuple[TypeExpr, ...]:
    """Leaf types left to right."""
    match d:
        case BTLeaf(ty):
            return (ty,)
        case BTNode(left, right):
            return bt_context(left) + bt_context(right)
    raise TypeError(d)


def _subexprs(ty: TypeExpr) -> list[TypeExpr]:
    out = [ty]
    for a in ty.args:
        out.extend(_subexprs(a))
    return out


def bt_enumerate(
    grammar: TypeGrammar,
    conclusion: TypeExpr,
    max_leaves: int,
    context_types: tuple[TypeExpr, ...] = (),
) -> list[BTDerivation]:
    """All application binary trees with the given conclusion and at most
    ``max_leaves`` leaves, with leaf types restricted to subexpressions of
    the conclusion and the supplied context types.  Ordered by leaf count,
    then construction order."""
    for ty in (conclusion, *context_types):
        errs = grammar.wellformed(ty)
        if errs:
            raise ValueError("; ".join(errs))
    universe: list[TypeExpr] = []
    for ty in (conclusion, *context_types):
        for sub in _subexprs(ty):
            if sub not in universe:
                universe.append(sub)

    memo: dict[tuple[TypeExpr, int], list[BTDerivation]] = {}

    def exact(target: TypeExpr, n: int) -> list[BTDerivation]:
        key = (target, n)
        if key in memo:
            return memo[key]
        out: list[BTDerivation] = []
        if n == 1:
            if target in universe:
                out.append(BTLeaf(target))
        elif n > 1:
            for src in universe:
                fn_ty = arrow(src, target)
                for l in range(1, n):
                    for left in exact(fn_ty, l):
                        for right in exact(src, n - l):
                            out.append(BTNode(left, right))
        memo[key] = out
        return out

    result: list[BTDerivation] = []
    for n in range(1, max_leaves + 1):
        result.extend(exact(conclusion, n))
    return result


def values_arity(pi: BTDerivation, binder_ty: TypeExpr) -> TypedArity:
    """Arity of the packed value operation for one application tree: one
    premise per leaf, each binding one variable of the abstraction type."""
    leaves = bt_context(pi)
    tau = bt_conclusion(pi)
    return TypedArity(
        tuple(((binder_ty,), leaf) for leaf in leaves),
        arrow(binder_ty, tau),
    )
