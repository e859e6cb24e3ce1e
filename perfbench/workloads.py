"""The four benchmark workloads.

Each workload's ``setup(M, seed, workdir)`` imports nothing itself: it is
handed the freshly imported debruijn modules ``M``, builds every input
from the seed, and returns a list of *rounds*.  A round is a list of
:class:`Operation`; the measuring loop runs whole rounds, cycling
through the list.  A round is the unit whose mix of operations is fixed,
so any run of whole rounds has the stated mix.

An operation calls into debruijn through module attributes looked up at
call time (``M.subst.subst``), so the tracer's wrappers are seen.  Its
``check`` judges the output without running the path that was timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import terms as T

MODULES = (
    "term", "subst", "signature", "model", "equational", "typed", "surface",
    "cli", "gen",
)


@dataclass
class Operation:
    label: str  # operation family; also the tracer's tag
    fn: Callable[[], Any]
    check: Callable[[Any], bool]
    size: int = 0  # nodes of the main input, for per-node metrics
    steps: int = 0  # beta steps the operation contracts


def modules(sys_modules) -> SimpleNamespace:
    """The debruijn modules by short name.  Taken from ``sys.modules``
    because ``debruijn.subst`` on the package is the function."""
    return SimpleNamespace(**{m: sys_modules[f"debruijn.{m}"] for m in MODULES})


def _lam(M, body):
    return M.term.Op("lam", (body,))


def _app(M, f, a):
    return M.term.Op("app", (f, a))


def church(M, n: int):
    """lam f. lam x. f^n x, built here rather than by the program."""
    body = M.term.Var(0)
    for _ in range(n):
        body = _app(M, M.term.Var(1), body)
    return _lam(M, _lam(M, body))


# --- laws-fuzz ---------------------------------------------------------

LAWS_POOL_ROUNDS = 400
LAWS_TRACE_ROUNDS = 40
# Term shapes of the criterion 1 and 2 cases come from this fixed stream
# and the seed draws every variable index.  The sizes of random_term's
# terms are heavy-tailed (MIXED: a mean of 406 to 473 nodes over 400 draws,
# depending on the seed), which would move ops_per_s by the seed alone.
LAWS_SHAPE_SEED = 20220906
LAWS_STRATA = 8


def _c1_case(M, sig, t, f, g, n):
    """Criterion 1 fuzz case: associativity and both unit laws."""

    def run():
        S = M.subst
        ok = S.subst(S.subst(t, f, sig), g, sig) == S.subst(t, S.compose(f, g, sig), sig)
        ok = S.subst(M.term.Var(n), f, sig) == S.apply_assignment(f, n) and ok
        return S.subst(t, S.IDENTITY, sig) == t and ok

    return run


def _exhaustive_case(M, sig, t, f, g):
    """One of criterion 1's exhaustive depth <= 3 associativity triples."""

    def run():
        S = M.subst
        return S.subst(S.subst(t, f, sig), g, sig) == S.subst(t, S.compose(f, g, sig), sig)

    return run


def _c2_case(M, sig, name, args, sigma):
    """Criterion 2 case: the binding condition of one operation."""
    binders = sig.ops[name].binders

    def run():
        S = M.subst
        lhs = S.subst(M.term.Op(name, args), sigma, sig)
        rhs = M.term.Op(
            name,
            tuple(
                S.subst(x, S.lift_n(sigma, n, sig), sig)
                for x, n in zip(args, binders)
            ),
        )
        return lhs == rhs

    return run


def _c7_case(M, sch, ty, t, f, g, n, type_args, name, args):
    """Criterion 7 case: typed monad laws, subject invariance and the
    typed binding condition."""

    def run():
        Y = M.typed
        ok = Y.tsubst(Y.tsubst(t, f, sch), g, sch) == Y.tsubst(
            t, Y.tcompose(f, g, sch), sch
        )
        ok = Y.tsubst(Y.TVar(n, ty), f, sch) == Y.typed_assignment_at(f, ty, n) and ok
        ok = Y.tsubst(t, Y.TypedAssignment(), sch) == t and ok
        ok = Y.typecheck(sch, Y.tsubst(t, f, sch)) == ty and ok
        ar = M.signature.instantiate_schema(sch.schemas[name], type_args, sch.grammar)
        lhs = Y.tsubst(Y.TOp(name, type_args, args), f, sch)
        rhs = Y.TOp(
            name,
            type_args,
            tuple(
                Y.tsubst(x, Y.tlift_gamma(f, gamma, sch), sch)
                for x, (gamma, _) in zip(args, ar.premises)
            ),
        )
        return lhs == rhs and ok

    return run


def _holds(result) -> bool:
    return result is True


def _relabel(M, t, rng: random.Random, max_index: int = 5):
    """``t`` with every variable index redrawn, as random_term draws them."""
    if T.is_var(t):
        return M.term.Var(rng.randrange(max_index))
    return M.term.Op(t.name, tuple(_relabel(M, a, rng, max_index) for a in t.args))


def _relabel_assignment(M, a, rng: random.Random):
    return M.subst.Assignment(
        tuple(_relabel(M, u, rng) for u in a.prefix), rng.randint(0, 3)
    )


def setup_laws_fuzz(M, seed: int, workdir: Path) -> list[list[Operation]]:
    """Rounds of nine law cases in the mix of criteria 1, 2 and 7: two
    exhaustive triples, one criterion 1 and one criterion 2 case per
    signature, one typed case."""
    Sg, G = M.signature, M.gen
    sigs = {
        "lambda": Sg.lambda_signature(),
        "fo": Sg.make_signature({"f": (0, 0), "c": ()}),
        "mixed": Sg.make_signature({"m": (2, 0, 1)}),
    }
    lam_sig = sigs["lambda"]
    sch = Sg.stlc_schema({"a"})
    pool = G.ground_types(sch.grammar)
    V = M.term.Var
    small_terms = G.enumerate_terms(lam_sig, 3, [0, 1, 2])
    small_assigns = G.enumerate_assignments([V(0), V(1), _lam(M, V(0))], 2, 2)

    rng = random.Random(seed)
    shapes = random.Random(LAWS_SHAPE_SEED)

    def term(sig, depth):
        return _relabel(M, G.random_term(sig, shapes, max_depth=depth), rng)

    def assignment(sig):
        return _relabel_assignment(M, G.random_assignment(sig, shapes), rng)

    rounds = []
    for _ in range(LAWS_POOL_ROUNDS):
        ops = []
        for _ in range(2):
            t = rng.choice(small_terms)
            f, g = rng.choice(small_assigns), rng.choice(small_assigns)
            ops.append(Operation("c1-exh", _exhaustive_case(M, lam_sig, t, f, g), _holds))
        for key, sig in sigs.items():
            t, f, g = term(sig, 8), assignment(sig), assignment(sig)
            n = rng.randrange(8)
            ops.append(Operation(f"c1-{key}", _c1_case(M, sig, t, f, g, n), _holds))
            if key == "mixed":
                heavy = T.node_count(t) + sum(T.node_count(u) for u in f.prefix + g.prefix)
        for key, sig in sigs.items():
            name = shapes.choice(sorted(sig.ops))
            args = tuple(term(sig, 5) for _ in sig.ops[name].binders)
            sigma = assignment(sig)
            ops.append(Operation(f"c2-{key}", _c2_case(M, sig, name, args, sigma), _holds))
        ty = rng.choice(pool)
        t = G.random_typed_term(sch, rng, ty, max_depth=4)
        f, g = G.random_typed_assignment(sch, rng), G.random_typed_assignment(sch, rng)
        n = rng.randrange(4)
        type_args = (rng.choice(pool), rng.choice(pool))
        name = rng.choice(("lam", "app"))
        ar = Sg.instantiate_schema(sch.schemas[name], type_args, sch.grammar)
        args = tuple(
            G.random_typed_term(sch, rng, tau, max_depth=3) for _, tau in ar.premises
        )
        ops.append(
            Operation(
                "c7-typed",
                _c7_case(M, sch, ty, t, f, g, n, type_args, name, args),
                _holds,
            )
        )
        rounds.append((heavy, ops))
    # A run goes through a time-dependent number of rounds.  Rounds are
    # ordered so that any stretch of LAWS_STRATA of them holds one from
    # each size stratum of the heaviest case, whatever the stretch.
    rounds.sort(key=lambda r: r[0])
    per = len(rounds) // LAWS_STRATA
    return [
        rounds[stratum * per + i][1] for i in range(per) for stratum in range(LAWS_STRATA)
    ]


# --- church-norm -------------------------------------------------------

CHURCH_KS = (25, 50, 100, 150)
# leftmost-outermost beta steps of (church k) succ zero: 3k + 2, recorded
# once from a counted run; the fuel of each operation is exactly this
CHURCH_STEPS = {25: 77, 50: 152, 100: 302, 150: 452}
CHURCH_POOL_ROUNDS = 40
CHURCH_TRACE_ROUNDS = 2


def setup_church_norm(M, seed: int, workdir: Path) -> list[list[Operation]]:
    """Rounds of one sweep over k, in a seeded order."""
    V = M.term.Var
    theory = M.equational.beta_theory()
    succ = _lam(M, _lam(M, _lam(M, _app(M, V(1), _app(M, _app(M, V(2), V(1)), V(0))))))
    zero = _lam(M, _lam(M, V(0)))
    cases = {}
    for k in CHURCH_KS:
        term = _app(M, _app(M, church(M, k), succ), zero)
        cases[k] = (term, church(M, k), T.node_count(term))

    def op(k):
        term, expected, size = cases[k]
        fuel = CHURCH_STEPS[k]

        def run():
            return M.equational.normalize(theory, term, fuel)

        def check(r) -> bool:
            return not r.exhausted and T.same_term(r.term, expected)

        return Operation(f"k{k}", run, check, size=size, steps=fuel)

    rng = random.Random(seed)
    rounds = []
    for _ in range(CHURCH_POOL_ROUNDS):
        order = list(CHURCH_KS)
        rng.shuffle(order)
        rounds.append([op(k) for k in order])
    return rounds


# --- deep-terms --------------------------------------------------------

DEEP_DEPTHS = {"d1k": 1_000, "d10k": 10_000, "d100k": 100_000}
WELLFORMED_DEPTHS = ("d1k", "d10k")  # quadratic today: d100k takes minutes
TO_NAMED_DEPTHS = {"d50": 50, "d100": 100, "d200": 200}  # cubic today
DEEP_TRACE_ROUNDS = 1


def deep_term(M, rng: random.Random, depth: int):
    """A lambda term ``depth`` binders deep, built twice from the same
    draws (two equal but unshared copies), with its support.

    Level by level from the leaf up, exactly half the levels are
    ``lam(app(t, Var i))`` and the rest ``lam(t)``, and exactly a quarter
    of the variables are free; the seed picks which, so the amount of
    work does not depend on it."""
    V, O = M.term.Var, M.term.Op
    app_levels = set(rng.sample(range(depth), depth // 2))
    n_vars = 1 + len(app_levels)
    free = set(rng.sample(range(n_vars), n_vars // 4))
    max_free = -1
    seen = 0

    def index(bound: int) -> int:
        nonlocal max_free, seen
        seen += 1
        if seen - 1 in free:
            j = rng.randrange(3)
            max_free = max(max_free, j)
            return bound + j
        return rng.randrange(min(bound, 8))

    i = index(depth)
    a, b = V(i), V(i)
    for level in range(depth):
        if level in app_levels:
            i = index(depth - level)
            a = O("lam", (O("app", (a, V(i))),))
            b = O("lam", (O("app", (b, V(i))),))
        else:
            a, b = O("lam", (a,)), O("lam", (b,))
    return a, b, max_free + 1


def _small_image(M, rng: random.Random):
    """A small image term: closed, or open at the top."""
    V = M.term.Var
    choices = (
        lambda: _lam(M, V(0)),
        lambda: _lam(M, _lam(M, _app(M, V(1), V(rng.randrange(4))))),
        lambda: V(rng.randrange(6)),
    )
    return rng.choice(choices)()


def _assignment_image(M, sigma, binders):
    """Expected image of free index j under ``depth`` binders."""
    V, O = M.term.Var, M.term.Op
    prefix, k = sigma.prefix, sigma.tail_shift

    def image_at(j: int, depth: int):
        if j < len(prefix):
            return T.shifted(prefix[j], depth, binders, V, O)
        return V(k + (j - len(prefix)) + depth)

    return image_at


def _renaming_image(M, ren):
    V = M.term.Var
    prefix, k = ren.prefix, ren.tail_shift

    def image_at(j: int, depth: int):
        r = prefix[j] if j < len(prefix) else k + (j - len(prefix))
        return V(r + depth)

    return image_at


def setup_deep_terms(M, seed: int, workdir: Path) -> list[list[Operation]]:
    """One round: a fixed set of calls at depths 1k, 10k and 100k, plus
    ``to_named`` at 50, 100 and 200."""
    rng = random.Random(seed)
    sig = M.signature.lambda_signature()
    binders = {name: a.binders for name, a in sig.ops.items()}
    S = M.subst

    def subst_args():
        prefix = tuple(_small_image(M, rng) for _ in range(rng.randint(1, 3)))
        return S.Assignment(prefix, rng.randint(0, 3))

    sigma = subst_args()
    tau = S.Assignment(
        tuple(_lam(M, _small_image(M, rng)) for _ in range(rng.randint(1, 3))),
        rng.randint(0, 3),
    )
    ren = S.Renaming(
        tuple(rng.randrange(6) for _ in range(rng.randint(1, 3))), rng.randint(0, 3)
    )
    sigma_image = _assignment_image(M, sigma, binders)
    tau_image = _assignment_image(M, tau, binders)
    ren_image = _renaming_image(M, ren)

    ops: list[Operation] = []
    for tag, depth in DEEP_DEPTHS.items():
        t, copy, supp = deep_term(M, rng, depth)
        text = T.to_sexpr(t)
        deep_sigma = S.Assignment((t,), 0)
        n = T.node_count(t)

        def composed_ok(out, t=t):
            return (
                len(out.prefix) == 1 + len(tau.prefix)
                and out.tail_shift == tau.tail_shift
                and T.substituted_ok(t, out.prefix[0], tau_image, binders)
                and all(T.same_term(x, y) for x, y in zip(out.prefix[1:], tau.prefix))
            )

        ops += [
            Operation(
                f"subst@{tag}",
                lambda t=t: M.subst.subst(t, sigma, sig),
                lambda out, t=t: T.substituted_ok(t, out, sigma_image, binders),
                size=n,
            ),
            Operation(
                f"rename@{tag}",
                lambda t=t: M.subst.rename(t, ren, sig),
                lambda out, t=t: T.substituted_ok(t, out, ren_image, binders),
                size=n,
            ),
            Operation(
                f"support@{tag}",
                lambda t=t: M.term.support(t, sig),
                lambda out, supp=supp: out == supp,
                size=n,
            ),
            Operation(
                f"compose@{tag}",
                lambda a=deep_sigma: M.subst.compose(a, tau, sig),
                composed_ok,
                size=n,
            ),
            Operation(
                f"eq@{tag}", lambda t=t, c=copy: t == c, lambda out: out is True, size=n
            ),
            Operation(
                f"hash@{tag}",
                lambda t=t: hash(t),
                lambda out, c=copy: isinstance(out, int) and out == hash(c),
                size=n,
            ),
            Operation(
                f"print@{tag}",
                lambda t=t: M.surface.print_term(t),
                lambda out, text=text: out == text,
                size=n,
            ),
            Operation(
                f"parse@{tag}",
                lambda text=text: M.surface.parse_term(text),
                lambda out, t=t: T.same_term(out, t),
                size=n,
            ),
        ]
        if tag in WELLFORMED_DEPTHS:
            ops.append(
                Operation(
                    f"wellformed@{tag}",
                    lambda t=t: M.term.wellformed(sig, t),
                    lambda out: out == [],
                    size=n,
                )
            )
    for tag, depth in TO_NAMED_DEPTHS.items():
        t, _, _ = deep_term(M, rng, depth)
        ops.append(
            Operation(
                f"to_named@{tag}",
                lambda t=t: M.model.to_named(sig, t),
                lambda out, t=t: T.same_term(
                    T.nameless_from_named(out, M.term.Var, M.term.Op), t
                ),
                size=T.node_count(t),
            )
        )
    return [ops]


# --- cli-mix -----------------------------------------------------------

CLI_POOL_ROUNDS = 40
CLI_TRACE_ROUNDS = 6
CLI_KINDS = (
    "sig-check",
    "subst-sexpr", "subst-json",
    "rename-sexpr", "rename-json",
    "to-named-sexpr", "to-named-json",
    "from-named-sexpr", "from-named-json",
    "norm-builtin", "norm-file",
    "equiv-yes", "equiv-no",
    "typecheck-ok", "typecheck-err",
    "fuzz",
    "malformed", "malformed",
)
TERM_NODES = (10, 2000)  # log-uniform size range of request terms
CLI_SIZE_BANDS = 8
# Shapes of the request terms come from fixed streams and the seed draws
# every variable index, as in laws-fuzz: to_named's cost grows fast with
# a term's nesting, so seeded shapes would move ops_per_s by the seed alone.
CLI_SHAPE_SEED = 20220907
# `print_term` and term `==` recurse, and overflow the stack near depth
# 300 (deep-terms shows it); a numeral is as deep as it is large
CHURCH_PLUS_MAX = 60

LAMBDA_SIG = """\
signature lambda {
  op lam : (1);
  op app : (0, 0);
}
"""
STLC_SIG = """\
types { a; }
signature stlc {
  op lam [s, t] : (s |- t) -> s -> t;
  op app [s, t] : (|- s -> t), (|- s) -> t;
}
"""
BETA_THEORY = LAMBDA_SIG + """\
eq beta [(1, 0)] : (app (lam ?0) ?1) = { ?0 [?1; ^0] };
"""
BAD_SIG = "signature s { op f (0); }\n"


def sized_term(M, rng: random.Random, n: int, bound: int = 0, normal=False, head=False):
    """A random lambda term of about ``n`` nodes.  An application splits
    the size between a third and two thirds, so depth stays near
    logarithmic and varies little between seeds (shallow).  With
    ``normal`` no abstraction is applied, so the term is beta-normal;
    ``head`` asks for the function part of an application."""
    V = M.term.Var
    if n <= 1 or (head and n == 2):
        if bound and rng.random() < 0.8:
            return V(rng.randrange(bound))
        return V(bound + rng.randrange(4))
    if not head and (n == 2 or rng.random() < 0.35):
        return _lam(M, sized_term(M, rng, n - 1, bound + 1, normal))
    left = min(max(1, round((n - 1) * rng.uniform(1 / 3, 2 / 3))), n - 2)
    return _app(
        M,
        sized_term(M, rng, left, bound, normal, head=normal),
        sized_term(M, rng, n - 1 - left, bound, normal),
    )


def _reindex(M, t, rng: random.Random, depth: int = 0):
    """``t`` with every variable index redrawn from ``rng`` as sized_term
    draws them; a bound variable stays bound and a free one free."""
    if T.is_var(t):
        if t.index < depth:
            return M.term.Var(rng.randrange(depth))
        return M.term.Var(depth + rng.randrange(4))
    inner = depth + 1 if t.name == "lam" else depth
    return M.term.Op(t.name, tuple(_reindex(M, a, rng, inner) for a in t.args))


# lam m. lam n. lam f. lam x. m f (n f x)
def _church_plus(M):
    V = M.term.Var
    return _lam(M, _lam(M, _lam(M, _lam(M, _app(
        M, _app(M, V(3), V(1)), _app(M, _app(M, V(2), V(1)), V(0))
    )))))


def _read_term(M, text: str, fmt: str):
    if fmt == "json":
        return T.from_json_obj(json.loads(text), M.term.Var, M.term.Op)
    return T.parse_sexpr(text, M.term.Var, M.term.Op)


def _term_arg(t, fmt: str) -> str:
    return json.dumps(T.to_json_obj(t)) if fmt == "json" else T.to_sexpr(t)


def _literal(items) -> str:
    *prefix, k = items
    return "[" + ", ".join(prefix) + f"; ^{k}]"


def setup_cli_mix(M, seed: int, workdir: Path) -> list[list[Operation]]:
    """Rounds of the 18 request kinds of :data:`CLI_KINDS`, each round in
    a seeded order.  Request terms are 10 to 2000 nodes, log-uniform in
    stratified bands."""
    files = {
        "lambda.sig": LAMBDA_SIG,
        "stlc.sig": STLC_SIG,
        "beta.theory": BETA_THEORY,
        "bad.sig": BAD_SIG,
    }
    paths = {}
    for name, text in files.items():
        p = workdir / name
        p.write_text(text)
        paths[name] = str(p)
    lam_sig = paths["lambda.sig"]

    Md, G = M.model, M.gen
    sig = M.surface.parse_signature_file(LAMBDA_SIG).signatures["lambda"]
    sch = M.surface.parse_signature_file(STLC_SIG).schemas["stlc"]
    types = G.ground_types(sch.grammar)
    plus = _church_plus(M)
    rng = random.Random(seed)
    lo, hi = math.log(TERM_NODES[0]), math.log(TERM_NODES[1])

    # sizes are stratified: every term-bearing kind steps through
    # CLI_SIZE_BANDS equal log-size bands, one per round, so that any run
    # of a few dozen rounds holds about the same work
    offsets = random.Random(CLI_SHAPE_SEED)
    band_offset = {k: offsets.randrange(CLI_SIZE_BANDS) for k in CLI_KINDS}
    current_round = 0

    def shapes(kind: str) -> random.Random:
        """The fixed stream of this round's request of ``kind``."""
        return random.Random(f"{CLI_SHAPE_SEED}:{kind}:{current_round}")

    def shaped_term(kind: str, shape: random.Random, normal=False):
        """A term in the size band of ``kind`` this round, its shape drawn
        from ``shape`` and its variable indices from the seed."""
        band = (current_round + band_offset[kind]) % CLI_SIZE_BANDS
        x = (band + shape.random()) / CLI_SIZE_BANDS
        n = int(round(math.exp(lo + x * (hi - lo))))
        return _reindex(M, sized_term(M, shape, n, normal=normal), rng)

    binders = {name: a.binders for name, a in sig.ops.items()}
    V, O = M.term.Var, M.term.Op

    def subst_checker(t, image_at):
        def check(out, fmt):
            return T.substituted_ok(t, _read_term(M, out, fmt), image_at, binders)

        return check

    def cli_op(label, argv, check, n=0):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = M.cli.main(argv)
                except SystemExit as e:  # argparse rejects a request
                    code = e.code
            return code, out.getvalue(), err.getvalue()

        return Operation(label, run, lambda r: check(*r), size=n)

    def ok_term(check_out, fmt):
        return lambda code, out, err: code == 0 and check_out(out.strip(), fmt)

    def request(kind: str) -> Operation:
        fmt = "json" if kind.endswith("-json") else "sexpr"
        fmt_args = ["--format", "json"] if fmt == "json" else []
        if kind == "sig-check":
            path = paths[rng.choice(("lambda.sig", "stlc.sig"))]
            return cli_op(
                kind, ["sig", "check", path],
                lambda code, out, err: code == 0 and out == "ok: 1 signature(s)\n",
            )
        if kind.startswith(("subst", "rename", "to-named", "from-named")):
            t = shaped_term(kind, shapes(kind))
            n = T.node_count(t)
        if kind.startswith("subst"):
            prefix = [sized_term(M, rng, rng.randint(1, 12)) for _ in range(rng.randint(0, 3))]
            k = rng.randint(0, 3)

            def image_at(j, depth, prefix=prefix, k=k):
                if j < len(prefix):
                    return T.shifted(prefix[j], depth, binders, V, O)
                return V(k + j - len(prefix) + depth)

            argv = ["term", "subst", "--sig", lam_sig, "--term", _term_arg(t, fmt),
                    "--assign", _literal([T.to_sexpr(u) for u in prefix] + [k]), *fmt_args]
            return cli_op(kind, argv, ok_term(subst_checker(t, image_at), fmt), n)
        if kind.startswith("rename"):
            prefix = [rng.randrange(6) for _ in range(rng.randint(0, 3))]
            k = rng.randint(0, 3)

            def image_at(j, depth, prefix=prefix, k=k):
                return V((prefix[j] if j < len(prefix) else k + j - len(prefix)) + depth)

            argv = ["term", "rename", "--sig", lam_sig, "--term", _term_arg(t, fmt),
                    "--renaming", _literal([str(r) for r in prefix] + [k]), *fmt_args]
            return cli_op(kind, argv, ok_term(subst_checker(t, image_at), fmt), n)
        if kind.startswith("to-named"):

            def named_ok(out, _fmt, t=t):
                named = T.parse_named(out, Md.NVar, Md.NOp)
                return T.same_term(T.nameless_from_named(named, V, O), t)

            argv = ["term", "to-named", "--sig", lam_sig, "--term", _term_arg(t, fmt),
                    *fmt_args]
            return cli_op(kind, argv, ok_term(named_ok, fmt), n)
        if kind.startswith("from-named"):
            named = T.named_from_nameless(t, binders, Md.NVar, Md.NOp)
            argv = ["term", "from-named", "--sig", lam_sig,
                    "--term", T.print_named(named), *fmt_args]
            return cli_op(
                kind, argv,
                ok_term(lambda out, f, t=t: T.same_term(_read_term(M, out, f), t), fmt),
                n,
            )
        if kind.startswith(("norm", "equiv")):
            fmt = rng.choice(("sexpr", "json"))
            fmt_args = ["--format", "json"] if fmt == "json" else []
            theory = "beta" if kind != "norm-file" else paths["beta.theory"]
            if kind.startswith("equiv"):
                theory = rng.choice(("beta", paths["beta.theory"]))
            shape = shapes(kind)
            if shape.random() < 0.5:
                # Church addition; numerals are as deep as they are large,
                # so they stay below CHURCH_PLUS_MAX
                total = shape.randint(0, CHURCH_PLUS_MAX)
                a = rng.randint(0, total)
                t = _app(M, _app(M, plus, church(M, a)), church(M, total - a))
                normal = church(M, total)
                different = church(M, total + 1)
            else:
                # an already normal term of the full size range
                t = shaped_term(kind, shape, normal=True)
                normal = t
                different = _lam(M, t)
            n = T.node_count(t)
            if kind.startswith("norm"):
                argv = ["norm", "--theory", theory, "--term", _term_arg(t, fmt), *fmt_args]
                return cli_op(
                    kind, argv,
                    ok_term(lambda out, f, e=normal: T.same_term(_read_term(M, out, f), e), fmt),
                    n,
                )
            yes = kind == "equiv-yes"
            other = normal if yes else different
            argv = ["equiv", "--theory", theory, "--left", _term_arg(t, fmt),
                    "--right", _term_arg(other, fmt), *fmt_args]
            want = (0, "yes\n") if yes else (1, "no\n")
            return cli_op(kind, argv, lambda code, out, err: (code, out) == want, n)
        if kind == "typecheck-ok":
            ty = rng.choice(types)
            t = G.random_typed_term(sch, rng, ty, max_depth=rng.randint(2, 5))
            argv = ["typecheck", "--sig", paths["stlc.sig"], "--term", T.print_typed(t)]
            want = T.type_str(ty) + "\n"
            return cli_op(
                kind, argv, lambda code, out, err: code == 0 and out == want,
                T.node_count(t),
            )
        if kind == "typecheck-err":
            s, u = rng.choice(types), rng.choice(types)
            Y = M.typed
            # app expects its first argument at s -> u; give it type s
            t = Y.TOp("app", (s, u), (Y.TVar(rng.randrange(3), s), Y.TVar(rng.randrange(3), s)))
            argv = ["typecheck", "--sig", paths["stlc.sig"], "--term", T.print_typed(t)]
            return cli_op(
                kind, argv,
                lambda code, out, err: code == 1 and out == "" and err.startswith("type error"),
                3,
            )
        if kind == "fuzz":
            laws = [w for w in ("monad", "binding", "morphism") if rng.random() < 0.6] or ["monad"]
            lines = {"monad": 3, "binding": 2, "morphism": 4}
            want_lines = sum(lines[w] for w in laws)
            argv = ["fuzz", "--sig", lam_sig, "--laws", ",".join(laws),
                    "--cases", str(rng.randint(2, 6)), "--seed", str(rng.randrange(1000))]

            def fuzz_ok(code, out, err):
                rows = out.splitlines()
                return code == 0 and len(rows) == want_lines and all(
                    r.startswith("LAW ") and r.split()[2] == "PASS" for r in rows
                )

            return cli_op(kind, argv, fuzz_ok)
        assert kind == "malformed", kind
        bad = [
            ["term", "subst", "--sig", lam_sig, "--term", "(foo 0)", "--assign", "[; ^0]"],
            ["term", "rename", "--sig", lam_sig, "--term", "(lam (app 0 1)", "--renaming", "[; ^1]"],
            ["term", "subst", "--sig", lam_sig, "--term", "0"],
            ["frobnicate", "--term", "0"],
            ["term", "to-named", "--sig", lam_sig, "--term", "{not json", "--format", "json"],
            ["sig", "check", paths["bad.sig"]],
            ["fuzz", "--sig", lam_sig, "--laws", "monad,nonsense"],
            ["sig", "check", str(workdir / "missing.sig")],
        ]
        return cli_op(
            "malformed", rng.choice(bad), lambda code, out, err: code == 2 and out == ""
        )

    rounds = []
    for current_round in range(CLI_POOL_ROUNDS):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        rounds.append([request(k) for k in kinds])
    return rounds


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Any, int, Path], list[list[Operation]]]
    trace_rounds: int  # fixed rounds of the traced run, so counts repeat
    # rounds repeat the same few long operations, rather than draw many
    # distinct ones: there is no latency distribution to report, and a
    # run needs min_rounds so that one slow run weighs less
    repeated: bool
    min_rounds: int
    # "label: exception" failures that are known defects of the program;
    # any other failure makes the run incorrect
    expected_failures: frozenset[str] = frozenset()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("laws-fuzz", setup_laws_fuzz, LAWS_TRACE_ROUNDS, False, 1),
        Workload("church-norm", setup_church_norm, CHURCH_TRACE_ROUNDS, True, 3),
        Workload("cli-mix", setup_cli_mix, CLI_TRACE_ROUNDS, False, 1),
        Workload(
            "deep-terms", setup_deep_terms, DEEP_TRACE_ROUNDS, True, 2,
            # ==, hash, print_term and parse_term recurse once per binder
            frozenset(
                f"{op}@{tag}: RecursionError"
                for op in ("eq", "hash", "print", "parse")
                for tag in DEEP_DEPTHS
            ),
        ),
    )
}
