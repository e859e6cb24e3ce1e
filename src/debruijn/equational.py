"""Equational theories over a binding signature, realised as oriented
rewriting with normalization-based equivalence.

A rule's two sides are metaterms: metavariables (standing for the
arguments of the rule), object variables, signature operations, and
explicit substitution nodes.  Each side denotes an operation in every
model; rewriting orients left-to-right in the term model, leftmost-
outermost.  Equivalence by joint normalization is a semi-decision: the
answer is three-valued, and "no" is only guaranteed for confluent
orientations.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional

from .signature import BindingArity, BindingSignature, Record, lambda_signature
from .gen import random_assignment, random_term
from .model import DBAlgebra, Report, named_model, term_model, to_named
from .model import _binding_law, _binding_sampler, _naturality_law, _run_law
from .subst import Assignment
from .term import Term, Var, Op, gc_paused, map_free_vars, support


class MetaVar(Record):
    """Reference to the i-th argument of the rule."""

    index: int


# the explicit substitution of a metaterm is an ``Assignment`` whose
# prefix holds metaterms; its tail variables are object variables
class ExplicitSubst(Record):
    body: object
    assign: Assignment


# a metaterm is a MetaVar, a Var, an Op whose args are metaterms, or an
# ExplicitSubst
MetaTerm = object


class Rule(Record):
    name: str
    arity: BindingArity
    left: MetaTerm
    right: MetaTerm


class EquationalTheory(Record):
    signature: BindingSignature
    rules: tuple[Rule, ...]

    def meta_signature(self) -> BindingSignature:
        return BindingSignature({r.name: r.arity for r in self.rules})


def validate_theory(theory: EquationalTheory) -> list[str]:
    """Well-formedness plus the pattern restrictions that keep left-hand
    sides first-order matchable (linear metavariables; explicit
    substitution only as a pure shift directly around a metavariable)."""
    errs: list[str] = []
    sig = theory.signature
    seen = set()
    for rule in theory.rules:
        if rule.name in seen:
            errs.append(f"duplicate rule name '{rule.name}'")
        seen.add(rule.name)
        if any(n < 0 for n in rule.arity.binders):
            errs.append(f"rule '{rule.name}' has a negative binder count")
        p = len(rule.arity.binders)
        errs.extend(f"rule '{rule.name}' left: {e}" for e in _check_metaterm(rule.left, sig, p))
        errs.extend(f"rule '{rule.name}' right: {e}" for e in _check_metaterm(rule.right, sig, p))
        fault = compile_pattern(rule.left, p).fault
        if fault:
            errs.append(f"rule '{rule.name}' left: {fault}")
    return errs


def _check_metaterm(mt: MetaTerm, sig: BindingSignature, metavars: int) -> list[str]:
    """The well-formedness errors of ``mt`` in preorder, in one walk.  The
    walk does not check the arguments of an operation that is unknown or
    has the wrong argument count."""
    errs: list[str] = []
    stack = [mt]
    while stack:
        node = stack.pop()
        match node:
            case MetaVar(index):
                if not 0 <= index < metavars:
                    errs.append(f"metavariable ?{index} out of range (< {metavars})")
            case Var(index):
                if index < 0:
                    errs.append(f"negative variable index {index}")
            case Op(name, args):
                if name not in sig.ops:
                    errs.append(f"unknown operation '{name}'")
                elif len(args) != len(sig.ops[name].binders):
                    want = len(sig.ops[name].binders)
                    errs.append(f"operation '{name}' expects {want} arguments, got {len(args)}")
                else:
                    stack.extend(reversed(args))
            case ExplicitSubst(body, Assignment() as assign):
                stack.extend(reversed((body, *assign.prefix)))
            case _:
                errs.append(f"not a metaterm: {node!r}")
    return errs


# --- compiled rule sides -------------------------------------------------

# The codes of the steps a side compiles to.  A pattern runs in preorder
# over registers: register 0 holds the term it is matched against, and an
# operation step loads the arguments of its register's term into the next
# free registers.  A metaterm runs in postfix over a stack of values.
_OP, _VAR, _UNSHIFT, _BAD = "op", "var", "unshift", "bad"
_META, _INTERP, _APPLY, _SUBST = "meta", "interp", "apply", "subst"
_ZERO = Var(0)  # what a metavariable the left side does not bind stands for


class CompiledPattern(Record):
    """A left side as a flat program, made by :func:`compile_pattern`.

    ``steps`` are ``(code, register, x, n)``: the term in the register
    is an operation named x with n arguments, which are loaded; a
    variable with index x; or a k-shift, where x is k, replaced by its
    unshift.  A step coded "bad" fails the match.  ``gather`` is the
    register of each of the rule's metavariables, last bound wins, -1
    for one that the side does not bind.  ``head`` is the name of the
    side's root operation, or None; ``reach`` the levels of the side
    that look at the term (its Op and Var nodes, the root at level 1),
    or ``inf`` when it holds a shift pattern ``?i[^k]`` with k > 0,
    which looks at every free variable of the subterm it matches; and
    ``fault`` the message of the first node in preorder that breaks the
    pattern restrictions, or None.  ``steps``, ``gather`` and ``reach``
    cover the nodes before the first bad one."""

    steps: tuple[tuple, ...]
    gather: tuple[int, ...]
    head: Optional[str]
    reach: float
    fault: Optional[str]


class CompiledMetaterm(Record):
    """A metaterm as a flat postfix program, made by :func:`compile_metaterm`.

    ``steps`` are ``(code, x, y)``: push metavariable x, variable x or
    the interpretation of operation x, looked up before its arguments;
    apply the interpretation below the last x values to them; or
    substitute the last value, a body, by the assignment of the x values
    below it, its prefix, and tail shift y.  A step coded "bad" raises
    ``TypeError(x)``, x not a metaterm.  ``moved`` are the metavariables
    inside an explicit substitution's prefix, in increasing order."""

    steps: tuple[tuple, ...]
    moved: tuple[int, ...]


def compile_pattern(pat: MetaTerm, metavars: int) -> CompiledPattern:
    """``pat`` compiled for :func:`match_pattern`, in one walk; a match of
    the result lists a term for each of the rule's ``metavars``
    metavariables.  The program stops at the first node that is not a
    pattern node: a match that gets there fails."""
    steps, bound, reach, fault = [], {}, 0, None  # bound: each metavariable's register
    nodes, free = [(pat, 0, 1)], 1  # (node, register, level); free: the next register to load
    while nodes:
        node, r, level = nodes.pop()
        if type(node) is Op:
            n = len(node.args)
            steps.append((_OP, r, node.name, n))
            nodes.extend((node.args[i], free + i, level + 1) for i in reversed(range(n)))
            free += n
            reach = max(reach, level)
        elif type(node) is Var:
            steps.append((_VAR, r, node.index, None))
            reach = max(reach, level)
        elif type(node) is MetaVar or (k := _shift_pattern(node)) is not None:
            if type(node) is not MetaVar:
                steps.append((_UNSHIFT, r, k, None))
                reach = math.inf if k else reach
                node = node.body
            if node.index in bound and fault is None:
                fault = f"metavariable ?{node.index} used twice"
            bound[node.index] = r
        else:
            steps.append((_BAD, r, None, None))
            fault = fault or ("explicit substitution in a pattern must be a shift of a metavariable"
                              if type(node) is ExplicitSubst else f"bad pattern node {node!r}")
            break
    gather = tuple(bound.get(i, -1) for i in range(metavars))
    head = pat.name if type(pat) is Op else None
    return CompiledPattern(tuple(steps), gather, head, reach, fault)


def compile_metaterm(mt: MetaTerm) -> CompiledMetaterm:
    """``mt`` compiled for :func:`eval_metaterm`, in one walk: an
    operation's interpretation is looked up before its arguments, and a
    prefix evaluated before its body."""
    steps, moved = [], set()
    nodes = [(mt, False, False)]  # (node, its arguments are compiled, it is inside a prefix)
    while nodes:
        node, done, inside = nodes.pop()
        kind = type(node)
        if done:
            if kind is Op:
                steps.append((_APPLY, len(node.args), None))
            else:
                steps.append((_SUBST, len(node.assign.prefix), node.assign.tail_shift))
        elif kind is MetaVar:
            steps.append((_META, node.index, None))
            if inside:
                moved.add(node.index)
        elif kind is Var:
            steps.append((_VAR, node.index, None))
        elif kind is Op:
            steps.append((_INTERP, node.name, None))
            nodes.append((node, True, inside))
            nodes.extend((a, False, inside) for a in reversed(node.args))
        elif kind is ExplicitSubst and isinstance(node.assign, Assignment):
            nodes += [(node, True, inside), (node.body, False, inside)]
            nodes.extend((x, False, True) for x in reversed(node.assign.prefix))
        else:
            steps.append((_BAD, node, None))
    return CompiledMetaterm(tuple(steps), tuple(sorted(moved)))


def eval_metaterm(algebra: DBAlgebra, env, mt: CompiledMetaterm):
    """Evaluate a compiled metaterm in a model under an environment for
    its metavariables: its program runs on one stack of values."""
    var, substitution = algebra.variables, algebra.substitution
    values = []
    push = values.append
    for code, x, y in mt.steps:
        if code is _META:
            push(env[x])
        elif code is _SUBST:  # the prefix's x values, then the body
            k = len(values) - x - 1
            values[k:] = [substitution(values[-1], Assignment(values[k:-1], y, var))]
        elif code is _APPLY:  # the interpretation, then its x arguments
            k = len(values) - x
            values[k - 1 :] = [values[k - 1](values[k:])]
        elif code is _INTERP:
            push(algebra.interpretations[x])
        elif code is _VAR:
            push(var(x))
        else:
            raise TypeError(x)
    return values[0]


# --- matching and rewriting ---------------------------------------------


class _NotAShift(Exception):
    pass


def _unshift(k: int, depth: int, n: int) -> Var:
    """Free index ``n`` under ``depth`` binders renamed by the shift -k."""
    if n - depth < k:
        raise _NotAShift
    return Var(n - k)


def _shift_pattern(node) -> Optional[int]:
    """k when ``node`` is the shift pattern ``?i[^k]``, else None."""
    if type(node) is ExplicitSubst and type(node.body) is MetaVar:
        if isinstance(node.assign, Assignment) and not node.assign.prefix:
            return node.assign.tail_shift
    return None


def match_pattern(pat: CompiledPattern, t: Term, sig: BindingSignature):
    """The metavariable bindings under which the compiled left side
    ``pat`` is ``t``, or None: a list with a term for each of its rule's
    metavariables, ``Var(0)`` for one that it does not bind.  Matching
    follows ``pat`` in preorder, so a later binding of a metavariable
    wins."""
    regs = [t]
    for code, r, x, n in pat.steps:
        u = regs[r]
        if code is _OP:
            if type(u) is not Op or u.name != x or len(u.args) != n:
                return None
            regs += u.args
        elif code is _VAR:
            if type(u) is not Var or u.index != x:
                return None
        elif code is _BAD:
            return None
        else:  # u is an x-shift if its rename by -x, in one walk, meets no index below x
            try:
                regs[r] = map_free_vars(u, sig, partial(_unshift, x))
            except _NotAShift:
                return None
    regs.append(_ZERO)  # register -1, which gather names for a metavariable left unbound
    return [regs[r] for r in pat.gather]


class NormalizeResult(Record):
    term: Term
    exhausted: bool
    steps: int = 0  # contractions made


def _plug(parent: Op, i: int, child: Term) -> Op:
    """``parent`` with ``child`` as argument i, shared when unchanged."""
    args = parent.args
    if args[i] is child:
        return parent
    return Op(parent.name, args[:i] + (child,) + args[i + 1 :])


@gc_paused
def normalize(
    theory: EquationalTheory,
    t: Term,
    fuel: int,
    on_step: Optional[Callable[[int, str, list[int]], None]] = None,
) -> NormalizeResult:
    """Repeatedly contract the leftmost-outermost redex until none is
    left or fuel runs out.

    The steps are those of contracting the leftmost-outermost redex of
    the whole term each time, found without restarting from the root.  The focus moves over the term as a
    zipper (Huet 1997): ``frames`` holds (parent, argument index) from the
    root down.  Nodes before the focus in preorder hold no redex.  A
    contraction at p creates redexes only inside the contractum and at
    ancestors of p that the tallest left side reaches from p (Lévy 1978),
    so the search resumes at that ancestor, checks the nodes on the way
    back down to p, then goes on in preorder from the contractum.  A shift
    pattern ``?i[^k]`` (k > 0) looks at every free variable below it, so
    a theory holding one checks every ancestor.  The :func:`support` of
    the input, and of each value in a right side's substitution prefix as
    it is bound, is memoized, so substitution skips their closed
    subterms; contracta are not walked.  The theory must pass
    :func:`validate_theory`: a right side's arities are not checked here.

    Each rule side is compiled once, when the call starts, and every
    match and contraction runs its program through :func:`match_pattern`
    and :func:`eval_metaterm`; heads, reach and the values to memoize are
    read off the programs.  The whole call runs with the cyclic
    collector paused (:func:`~debruijn.term.gc_paused`): it builds only
    acyclic terms.

    ``on_step(n, rule name, position)`` is called before the n-th
    contraction, with the position as argument indices from the root,
    with the collector paused too.
    """
    sig = theory.signature
    tm = term_model(sig)
    rules = [
        (r.name, compile_pattern(r.left, len(r.arity.binders)), compile_metaterm(r.right))
        for r in theory.rules
    ]
    heads = {left.head for _, left, _ in rules}
    loose = tuple(rule for rule in rules if rule[1].head is None)
    by_head = {
        head: tuple(rule for rule in rules if rule[1].head in (None, head))
        for head in heads - {None}
    }
    reach = max((left.reach for _, left, _ in rules), default=0) - 1
    support(t, sig)
    frames: list[tuple[Op, int]] = []
    route: list[int] = []  # argument indices back down to the last contraction, innermost first
    node, steps = t, 0
    while True:
        candidates = by_head.get(node.name, loose) if type(node) is Op else loose
        for name, left, right in candidates:
            env = match_pattern(left, node, sig)
            if env is not None:
                if steps >= fuel:
                    while frames:
                        node = _plug(*frames.pop(), node)
                    return NormalizeResult(node, True, steps)
                steps += 1
                if on_step is not None:
                    on_step(steps, name, [i for _, i in frames])
                for i in right.moved:
                    if type(env[i]) is Op and env[i]._sig is not sig:
                        support(env[i], sig)
                node = eval_metaterm(tm, env, right)
                route.clear()
                for _ in range(min(reach, len(frames))):
                    parent, i = frames.pop()
                    node = _plug(parent, i, node)
                    route.append(i)
                break
        else:
            if route:
                i = route.pop()
            elif type(node) is Op and node.args:
                i = 0
            else:  # no redex in this subtree: on to the next one in preorder
                while frames:
                    parent, i = frames.pop()
                    node = _plug(parent, i, node)
                    if i + 1 < len(node.args):
                        i += 1
                        break
                else:
                    return NormalizeResult(node, False, steps)
            frames.append((node, i))
            node = node.args[i]


def equiv(theory: EquationalTheory, t1: Term, t2: Term, fuel: int = 1000) -> str:
    """'yes', 'no', or 'unknown'.  'yes' by joinability is always sound;
    'no' assumes the oriented system is confluent."""
    r1 = normalize(theory, t1, fuel)
    r2 = normalize(theory, t2, fuel)
    if r1.term == r2.term:
        return "yes"
    if not r1.exhausted and not r2.exhausted:
        return "no"
    return "unknown"


# --- half-equation checking ---------------------------------------------


def check_half_equation(
    sig: BindingSignature,
    arity: BindingArity,
    side: MetaTerm,
    cases: int = 200,
    seed: int = 0,
) -> Report:
    """Fuzz the induced operation in the term model: the binding condition
    for the declared arity, and naturality along nameless-to-named
    conversion."""
    tm = term_model(sig)
    nm = named_model(sig)
    binders = arity.binders
    report = Report()

    gen = _binding_sampler(
        partial(random_term, sig, max_depth=4), partial(random_assignment, sig), binders
    )

    program = compile_metaterm(side)
    in_tm, in_nm = (partial(eval_metaterm, m, mt=program) for m in (tm, nm))
    binding_ok = _binding_law(tm, in_tm, binders)
    natural = _naturality_law(partial(to_named, sig), in_tm, in_nm, nm.equal)
    _run_law(report, "half-equation:binding", seed, cases, gen, binding_ok)
    # naturality ignores the assignment, but draws it to keep the stream
    _run_law(report, "half-equation:naturality", seed, cases, gen, lambda s: natural(s[0]))
    return report


def check_theory(theory: EquationalTheory, cases: int = 200, seed: int = 0) -> Report:
    report = Report()
    for rule in theory.rules:
        for side_name, side in (("L", rule.left), ("R", rule.right)):
            sub = check_half_equation(theory.signature, rule.arity, side, cases, seed)
            for res in sub.results:
                res.law = f"{rule.name}:{side_name}:{res.law}"
                report.results.append(res)
    return report


# --- builtin theories ---------------------------------------------------


def beta_theory() -> EquationalTheory:
    """app(lam(e1), e2) = e1[e2 . id] over the lambda signature."""
    sig = lambda_signature()
    beta = Rule(
        "beta",
        BindingArity((1, 0)),
        Op("app", (Op("lam", (MetaVar(0),)), MetaVar(1))),
        ExplicitSubst(MetaVar(0), Assignment((MetaVar(1),), 0)),
    )
    return EquationalTheory(sig, (beta,))


def beta_eta_theory() -> EquationalTheory:
    """Beta plus eta: lam(app(e[shift], 0)) = e."""
    sig = lambda_signature()
    beta = beta_theory().rules[0]
    eta = Rule(
        "eta",
        BindingArity((0,)),
        Op(
            "lam",
            (
                Op(
                    "app",
                    (ExplicitSubst(MetaVar(0), Assignment((), 1)), Var(0)),
                ),
            ),
        ),
        MetaVar(0),
    )
    return EquationalTheory(sig, (beta, eta))
