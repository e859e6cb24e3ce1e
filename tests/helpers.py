"""Shared term constructors, workloads and definitional references for
the test suite."""

from __future__ import annotations

from collections import Counter

from debruijn import (
    Assignment,
    Op,
    TOp,
    TVar,
    Term,
    TypedAssignment,
    Var,
    apply_assignment,
    apply_renaming,
    lift_n_renaming,
    shift_renaming,
)
from debruijn.typed import op_arity, typed_assignment_at


def lam(body: Term) -> Term:
    return Op("lam", (body,))


def app(fn: Term, arg: Term) -> Term:
    return Op("app", (fn, arg))


def church(n: int) -> Term:
    """lam f. lam x. f^n x with f = Var 1, x = Var 0."""
    body = Var(0)
    for _ in range(n):
        body = app(Var(1), body)
    return lam(lam(body))


# lam m. lam n. lam f. lam x. m f (n f x)
CHURCH_PLUS = lam(
    lam(
        lam(
            lam(
                app(
                    app(Var(3), Var(1)),
                    app(app(Var(2), Var(1)), Var(0)),
                )
            )
        )
    )
)

OMEGA = app(lam(app(Var(0), Var(0))), lam(app(Var(0), Var(0))))


# --- definitional references --------------------------------------------
#
# Substitution by its defining clauses: recurse into each argument under
# the materialised lifting of the assignment.  These share no code with
# the library's traversal kernel and serve as the oracle for it.


def ref_rename(t, f, sig):
    if isinstance(t, Var):
        return Var(apply_renaming(f, t.index))
    binders = sig.ops[t.name].binders
    return Op(t.name, tuple(
        ref_rename(a, lift_n_renaming(f, n), sig) for a, n in zip(t.args, binders)
    ))


def ref_lift_n(sigma, n, sig):
    for _ in range(n):
        shifted = tuple(ref_rename(u, shift_renaming(1), sig) for u in sigma.prefix)
        sigma = Assignment((Var(0),) + shifted, sigma.tail_shift + 1)
    return sigma


def ref_subst(t, sigma, sig):
    if isinstance(t, Var):
        return apply_assignment(sigma, t.index)
    binders = sig.ops[t.name].binders
    return Op(t.name, tuple(
        ref_subst(a, ref_lift_n(sigma, n, sig), sig) for a, n in zip(t.args, binders)
    ))


def ref_multi_shift(t, by, schema, depth: Counter | None = None):
    depth = depth or Counter()
    if isinstance(t, TVar):
        return TVar(t.index + by.get(t.ty, 0), t.ty) if t.index >= depth[t.ty] else t
    premises = op_arity(schema, t).premises
    return TOp(t.name, t.type_args, tuple(
        ref_multi_shift(a, by, schema, depth + Counter(gamma))
        for a, (gamma, _) in zip(t.args, premises)
    ))


def ref_tlift_gamma(sigma, gamma, schema):
    for ty in gamma:
        out = {
            ty2: (tuple(ref_multi_shift(u, {ty: 1}, schema) for u in prefix), k)
            for ty2, (prefix, k) in sigma.components.items()
        }
        prefix, k = out.get(ty, ((), 0))
        out[ty] = ((TVar(0, ty),) + prefix, k + 1)
        sigma = TypedAssignment(out)
    return sigma


def ref_tsubst(t, sigma, schema):
    if isinstance(t, TVar):
        return typed_assignment_at(sigma, t.ty, t.index)
    premises = op_arity(schema, t).premises
    return TOp(t.name, t.type_args, tuple(
        ref_tsubst(a, ref_tlift_gamma(sigma, gamma, schema), schema)
        for a, (gamma, _) in zip(t.args, premises)
    ))
