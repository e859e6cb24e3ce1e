"""Renaming, assignment lifting, and capture-avoiding parallel substitution.

Assignments and renamings are total maps on the naturals, represented
canonically by a finite prefix plus a tail shift: the map sends ``i`` to
``prefix[i]`` for ``i < len(prefix)`` and ``len(prefix) + j`` to the tail
value at shift ``k + j``.  Canonical form never keeps a trailing prefix
entry the tail would reproduce, so structural equality of representations
coincides with pointwise equality of the denoted maps.

Substitution under a binder uses the usual two-phase construction: the
lifted assignment shifts images with a *renaming*, which is structurally
decreasing, so the whole thing terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signature import BindingSignature
from .term import Term, Var, map_free_vars


@dataclass(frozen=True)
class Renaming:
    """n -> prefix[n] for n < q, q + j -> tail_shift + j."""

    prefix: tuple[int, ...] = ()
    tail_shift: int = 0

    def __post_init__(self):
        prefix = list(self.prefix)
        k = self.tail_shift
        while prefix and k > 0 and prefix[-1] == k - 1:
            prefix.pop()
            k -= 1
        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "tail_shift", k)


@dataclass(frozen=True)
class Assignment:
    """n -> prefix[n] for n < q, q + j -> Var(tail_shift + j)."""

    prefix: tuple[Term, ...] = ()
    tail_shift: int = 0

    def __post_init__(self):
        prefix = list(self.prefix)
        k = self.tail_shift
        while prefix and k > 0 and prefix[-1] == Var(k - 1):
            prefix.pop()
            k -= 1
        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "tail_shift", k)


IDENTITY_RENAMING = Renaming()
IDENTITY = Assignment()
SHIFT = Assignment(tail_shift=1)


def shift_renaming(k: int) -> Renaming:
    return Renaming(tail_shift=k)


def apply_renaming(f: Renaming, n: int) -> int:
    q = len(f.prefix)
    return f.prefix[n] if n < q else f.tail_shift + (n - q)


def apply_assignment(sigma: Assignment, n: int) -> Term:
    q = len(sigma.prefix)
    return sigma.prefix[n] if n < q else Var(sigma.tail_shift + (n - q))


def lift_renaming(f: Renaming) -> Renaming:
    """0 -> 0, n+1 -> f(n) + 1."""
    return Renaming(
        (0,) + tuple(r + 1 for r in f.prefix), f.tail_shift + 1
    )


def lift_n_renaming(f: Renaming, n: int) -> Renaming:
    for _ in range(n):
        f = lift_renaming(f)
    return f


def rename(t: Term, f: Renaming, sig: BindingSignature) -> Term:
    """Apply ``f`` to the free variables of ``t``, lifting under binders."""
    # lift^d(f)(n) = n for n < d, f(n - d) + d otherwise
    if not f.prefix:  # a pure shift, or the identity
        k = f.tail_shift
        return map_free_vars(t, sig, lambda d, n: Var(n + k)) if k else t
    return map_free_vars(
        t, sig, lambda d, n: Var(apply_renaming(f, n - d) + d)
    )


def _shift_term(t: Term, by: int, sig: BindingSignature) -> Term:
    return t if by == 0 else rename(t, Renaming(tail_shift=by), sig)


def lift(sigma: Assignment, sig: BindingSignature) -> Assignment:
    """0 -> Var(0), n+1 -> sigma(n) shifted by one."""
    return Assignment(
        (Var(0),) + tuple(_shift_term(t, 1, sig) for t in sigma.prefix),
        sigma.tail_shift + 1,
    )


def lift_n(sigma: Assignment, n: int, sig: BindingSignature) -> Assignment:
    for _ in range(n):
        sigma = lift(sigma, sig)
    return sigma


def subst(t: Term, sigma: Assignment, sig: BindingSignature) -> Term:
    """Parallel substitution; argument i of an operation binding n_i
    variables is substituted under the n_i-fold lifting of ``sigma``.

    Uses the identity lift_n(sigma, d)(n) = sigma(n - d) shifted by d (for
    n >= d), so lifted assignments are never materialised.  The shifted
    image depends only on (n - d, d) and is computed once per pair.
    """
    prefix, q = sigma.prefix, len(sigma.prefix)
    if not q and not sigma.tail_shift:
        return t
    images: dict[tuple[int, int], Term] = {}

    def on_free(d: int, n: int) -> Term:
        if n - d >= q:
            return Var(n + sigma.tail_shift - q)
        image = images.get((n - d, d))
        if image is None:
            image = images[n - d, d] = _shift_term(prefix[n - d], d, sig)
        return image

    return map_free_vars(t, sig, on_free)


def drop(sigma: Assignment, k: int) -> Assignment:
    """The assignment n -> sigma(k + n)."""
    q = len(sigma.prefix)
    if k < q:
        return Assignment(sigma.prefix[k:], sigma.tail_shift)
    return Assignment((), sigma.tail_shift + (k - q))


def compose(sigma: Assignment, tau: Assignment, sig: BindingSignature) -> Assignment:
    """Canonical representation of n -> subst(sigma(n), tau)."""
    head = tuple(subst(t, tau, sig) for t in sigma.prefix)
    tail = drop(tau, sigma.tail_shift)
    return Assignment(head + tail.prefix, tail.tail_shift)


def renaming_assignment(f: Renaming) -> Assignment:
    """View a renaming as the assignment n -> Var(f(n))."""
    return Assignment(tuple(Var(r) for r in f.prefix), f.tail_shift)


def subst1(t: Term, u: Term, sig: BindingSignature) -> Term:
    """Substitute ``u`` for index 0, shifting the remaining indices down."""
    return subst(t, Assignment((u,), 0), sig)
