"""Finite assignments, renaming, and capture-avoiding parallel substitution.

An assignment in a De Bruijn monad is a finite object, a prefix plus a
tail shift: it sends ``i`` to ``prefix[i]`` for ``i < len(prefix)`` and
``len(prefix) + j`` to ``var(tail_shift + j)``, where ``var`` is the
variables map of the carrier.  One :class:`Assignment` serves every
carrier: terms (``var`` is ``Var``), the naturals (a renaming is an
assignment in the ℕ monad, whose ``var`` is ``n -> n``), any model of
:mod:`debruijn.model`, metaterms, and each per-type component of a typed
assignment.  The carrier passes its ``var`` and its shift or substitution
into :func:`at`, :func:`lift_with` and :func:`compose_with`.

Canonical form never keeps a trailing prefix entry the tail would
reproduce, so structural equality of representations coincides with
pointwise equality of the denoted maps.

Substitution under a binder uses the usual two-phase construction: the
lifted assignment shifts images with a *renaming*, which is structurally
decreasing, so the whole thing terminates.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable

from .signature import BindingSignature
from .term import Term, Var, _shift_term, map_free_vars


class Assignment(namedtuple("Assignment", ("prefix", "tail_shift"))):
    """The pair ``(prefix, tail_shift)``, trimmed on construction to
    canonical form against the carrier's ``var`` (terms unless given).
    A negative tail shift, or a negative entry of a prefix in the ℕ monad
    (``var`` is :data:`NAT`), would send indices below 0 and raises
    ``ValueError``."""

    __slots__ = ()

    def __new__(cls, prefix=(), tail_shift: int = 0, var: Callable[[int], Any] = Var):
        if tail_shift < 0:
            raise ValueError(f"negative tail shift {tail_shift}")
        prefix = tuple(prefix)
        if var is NAT and min(prefix, default=0) < 0:
            raise ValueError(f"negative natural {min(prefix)} in a renaming")
        q, k = len(prefix), tail_shift
        while q and k > 0 and prefix[q - 1] == var(k - 1):
            q -= 1
            k -= 1
        return super().__new__(cls, prefix[:q], k)


# the ℕ monad's variables map, n -> n
NAT = int


def Renaming(prefix=(), tail_shift: int = 0) -> Assignment:
    """n -> prefix[n] for n < q, q + j -> tail_shift + j; ``Renaming((), k)``
    is the shift by k.  ``model.nat_monad()`` lifts and composes renamings."""
    return Assignment(prefix, tail_shift, NAT)


IDENTITY = Assignment()


def at(a: Assignment, n: int, var: Callable[[int], Any] = Var):
    """The image of ``n``: ``prefix[n]``, else ``var(tail_shift + n - q)``."""
    prefix, k = a
    q = len(prefix)
    return prefix[n] if n < q else var(k + n - q)


apply_assignment = at


def drop(a: Assignment, k: int) -> Assignment:
    """The assignment n -> a(k + n), canonical whenever ``a`` is."""
    prefix, s = a
    q = len(prefix)
    return Assignment(prefix[k:], s) if k < q else Assignment((), s + k - q)


def lift_with(a: Assignment, n: int, var: Callable, shift: Callable) -> Assignment:
    """The n-fold lift: ``var(0) .. var(n - 1)``, then each image of ``a``
    shifted once by n (``shift`` does that in the carrier), tail shift + n.
    A negative n raises ``ValueError``."""
    if n < 0:
        raise ValueError(f"negative lift count {n}")
    prefix, k = a
    return Assignment((*map(var, range(n)), *map(shift, prefix)), k + n, var)


def compose_with(f: Assignment, g: Assignment, var: Callable, image: Callable) -> Assignment:
    """n -> f(n)[g], where ``image`` substitutes ``g`` into one image of
    ``f``; past f's prefix, ``var(k + j)[g]`` is ``g(k + j)``."""
    prefix, k = f
    rest = drop(g, k)
    return Assignment((*map(image, prefix), *rest.prefix), rest.tail_shift, var)


def rename(t: Term, f: Assignment, sig: BindingSignature) -> Term:
    """Apply ``f`` to the free variables of ``t``, lifting under binders: the
    renaming is an assignment in the ℕ monad, mapped into terms by ``Var``."""
    return subst(t, Assignment(tuple(map(Var, f.prefix)), f.tail_shift), sig)


def lift(sigma: Assignment, sig: BindingSignature) -> Assignment:
    """0 -> Var(0), n+1 -> sigma(n) shifted by one."""
    return lift_n(sigma, 1, sig)


def lift_n(sigma: Assignment, n: int, sig: BindingSignature) -> Assignment:
    """The n-fold lift; images shift by n through :func:`_shift_term`."""
    return lift_with(sigma, n, Var, lambda t: _shift_term(t, n, sig))


def subst(t: Term, sigma: Assignment, sig: BindingSignature) -> Term:
    """Parallel substitution; argument i of an operation binding n_i
    variables is substituted under the n_i-fold lifting of ``sigma``.

    ``sigma`` goes to :func:`~debruijn.term.map_free_vars` as it is, which
    applies it with no callback.  The kernel uses the identity
    lift_n(sigma, d)(n) = sigma(n - d) shifted by d (for n >= d), so lifted
    assignments are never materialised; the shifted image depends only on
    (n - d, d), and a memo keyed by that pair computes it once per walk.
    """
    return map_free_vars(t, sig, sigma) if sigma.prefix or sigma.tail_shift else t


def compose(sigma: Assignment, tau: Assignment, sig: BindingSignature) -> Assignment:
    """Canonical representation of n -> subst(sigma(n), tau)."""
    return compose_with(sigma, tau, Var, lambda t: subst(t, tau, sig))


def subst1(t: Term, u: Term, sig: BindingSignature) -> Term:
    """Substitute ``u`` for index 0, shifting the remaining indices down."""
    return subst(t, Assignment((u,), 0), sig)
