"""Command-line front end.

Exit codes: 0 success, 1 semantic failure (law violation, type error,
inequivalence), 2 parse or validation error, 3 fuel exhausted /
undecided, 4 internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .equational import beta_eta_theory, beta_theory, equiv, normalize
from .gen import random_assignment, random_term, shrink_law_sample
from .model import (
    check_binding_conditions,
    check_monad_laws,
    check_morphism,
    from_named,
    named_model,
    term_model,
    to_named,
)
from .signature import BindingSignature
from .subst import rename, subst
from .surface import (
    ParseError,
    parse_assignment,
    parse_renaming,
    parse_signature_file,
    parse_term,
    parse_theory_file,
    print_assignment,
    print_json,
    print_term,
    term_from_json,
)
from .term import wellformed
from .typed import TypecheckError, typecheck


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(str(e), EXIT_PARSE) from None


def _load_signature(path: str) -> BindingSignature:
    f = parse_signature_file(_read(path))
    if not f.signatures:
        raise CliError(f"{path}: no untyped signature declared", EXIT_PARSE)
    return next(iter(f.signatures.values()))


def _load_schema(path: str):
    f = parse_signature_file(_read(path))
    if not f.schemas:
        raise CliError(f"{path}: no typed signature declared", EXIT_PARSE)
    return next(iter(f.schemas.values()))


def _too_deep_for_json() -> CliError:
    # the json module's reader recurses once per nesting level
    return CliError(
        "term nested too deeply for --format json input: the json module's nesting "
        f"limit is the recursion limit ({sys.getrecursionlimit()}); use --format sexpr",
        EXIT_PARSE,
    )


def _input_term(text: str, fmt: str, sig: BindingSignature):
    if fmt == "json":
        try:
            t = term_from_json(json.loads(text))
        except ValueError as e:  # json.JSONDecodeError is one
            raise CliError(f"bad JSON term: {e}", EXIT_PARSE) from None
        except RecursionError:
            raise _too_deep_for_json() from None
        errs = wellformed(sig, t)
        if errs:
            raise CliError("; ".join(errs), EXIT_PARSE)
        return t
    return parse_term(text, "nameless", sig)


def _output_term(t, fmt: str) -> str:
    return print_json(t) if fmt == "json" else print_term(t)


def _load_theory(spec: str):
    if spec == "beta":
        return beta_theory()
    if spec == "betaeta":
        return beta_eta_theory()
    return parse_theory_file(_read(spec))


# --- subcommands ---------------------------------------------------------


def cmd_sig_check(args) -> int:
    f = parse_signature_file(_read(args.file))
    total = len(f.signatures) + len(f.schemas)
    print(f"ok: {total} signature(s)")
    return EXIT_OK


def cmd_term_subst(args) -> int:
    sig = _load_signature(args.sig)
    t = _input_term(args.term, args.format, sig)
    a = parse_assignment(args.assign, sig)
    print(_output_term(subst(t, a, sig), args.format))
    return EXIT_OK


def cmd_term_rename(args) -> int:
    sig = _load_signature(args.sig)
    t = _input_term(args.term, args.format, sig)
    r = parse_renaming(args.renaming)
    print(_output_term(rename(t, r, sig), args.format))
    return EXIT_OK


def cmd_term_to_named(args) -> int:
    sig = _load_signature(args.sig)
    t = _input_term(args.term, args.format, sig)
    print(print_term(to_named(sig, t)))
    return EXIT_OK


def cmd_term_from_named(args) -> int:
    sig = _load_signature(args.sig)
    t = parse_term(args.term, "named")
    try:
        nameless = from_named(sig, t)
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE) from None
    print(_output_term(nameless, args.format))
    return EXIT_OK


def _check_fuel(fuel: int) -> None:
    if fuel < 0:
        raise CliError(f"--fuel must be at least 0, got {fuel}", EXIT_PARSE)


def cmd_norm(args) -> int:
    _check_fuel(args.fuel)
    theory = _load_theory(args.theory)
    t = _input_term(args.term, args.format, theory.signature)
    on_step = None
    if args.trace:
        def on_step(n: int, rule: str, at: list[int]) -> None:
            print(f"step {n} rule={rule} at={at}", file=sys.stderr)
    result = normalize(theory, t, args.fuel, on_step)
    print(_output_term(result.term, args.format))
    if result.exhausted:
        print("fuel exhausted", file=sys.stderr)
        return EXIT_FUEL
    return EXIT_OK


def cmd_equiv(args) -> int:
    _check_fuel(args.fuel)
    theory = _load_theory(args.theory)
    left = _input_term(args.left, args.format, theory.signature)
    right = _input_term(args.right, args.format, theory.signature)
    verdict = equiv(theory, left, right, args.fuel)
    print(verdict)
    if verdict == "yes":
        return EXIT_OK
    if verdict == "no":
        return EXIT_FAIL
    return EXIT_FUEL


def cmd_typecheck(args) -> int:
    schema = _load_schema(args.sig)
    t = parse_term(args.term, "typed")
    try:
        ty = typecheck(schema, t)
    except TypecheckError as e:
        print(f"type error: {e}", file=sys.stderr)
        return EXIT_FAIL
    print(str(ty))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    sig = _load_signature(args.sig)
    laws = [w.strip() for w in args.laws.split(",") if w.strip()]
    unknown = [w for w in laws if w not in {"monad", "binding", "morphism"}]
    if unknown:
        raise CliError(f"unknown law group(s): {', '.join(unknown)}", EXIT_PARSE)
    if args.cases < 1:
        raise CliError(f"--cases must be at least 1, got {args.cases}", EXIT_PARSE)
    tm = term_model(sig)
    gen_elem = lambda rng: random_term(sig, rng, max_depth=5)
    gen_assign = lambda rng: random_assignment(sig, rng)
    ok = True
    for law in laws:
        if law == "monad":
            report = check_monad_laws(
                tm, gen_elem, gen_assign, cases=args.cases, seed=args.seed,
                shrink=shrink_law_sample, show=_show_sample,
            )
        elif law == "binding":
            report = check_binding_conditions(
                tm, sig, gen_elem, gen_assign, cases=args.cases, seed=args.seed,
            )
        else:
            nm = named_model(sig)
            report = check_morphism(
                lambda t: to_named(sig, t), tm, nm, sig,
                gen_elem, gen_assign, cases=args.cases, seed=args.seed,
            )
        for line in report.lines():
            print(line)
        ok = ok and report.ok
    return EXIT_OK if ok else EXIT_FAIL


def _show_sample(sample) -> str:
    x, f, g, n = sample
    return f"(x={print_term(x)} f={print_assignment(f)} g={print_assignment(g)} n={n})"


# --- parser --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only reads
    it, and each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="debruijn",
        description="signature-generic nameless syntax toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt_arg(p):
        p.add_argument("--format", choices=["sexpr", "json"], default="sexpr")

    p_sig = sub.add_parser("sig", help="signature file operations")
    sig_sub = p_sig.add_subparsers(dest="sig_command", required=True)
    p = sig_sub.add_parser("check", help="parse and validate a signature file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_sig_check)

    p_term = sub.add_parser("term", help="term operations")
    term_sub = p_term.add_subparsers(dest="term_command", required=True)

    for name, fn, summary, extra in (
        ("subst", cmd_term_subst, "apply an assignment to a term", ("--assign",)),
        ("rename", cmd_term_rename, "apply a renaming to a term", ("--renaming",)),
        ("to-named", cmd_term_to_named, "convert a nameless term to named form", ()),
        ("from-named", cmd_term_from_named, "convert a named term to nameless form", ()),
    ):
        p = term_sub.add_parser(name, help=summary)
        for flag in ("--sig", "--term", *extra):
            p.add_argument(flag, required=True)
        fmt_arg(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("norm", help="normalize a term under a theory")
    p.add_argument("--theory", required=True, help="theory file, 'beta', or 'betaeta'")
    p.add_argument("--term", required=True)
    p.add_argument("--fuel", type=int, default=1000)
    p.add_argument(
        "--trace", action="store_true",
        help="print 'step N rule=<name> at=[path]' to stderr before each contraction",
    )
    fmt_arg(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("equiv", help="decide equivalence by joint normalization")
    p.add_argument("--theory", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--fuel", type=int, default=1000)
    fmt_arg(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("typecheck", help="typecheck a typed term")
    p.add_argument("--sig", required=True)
    p.add_argument("--term", required=True)
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("fuzz", help="fuzz model laws over a signature")
    p.add_argument("--sig", required=True)
    p.add_argument("--laws", default="monad,binding,morphism")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        for d in e.diagnostics:
            print(str(d), file=sys.stderr)
        return EXIT_PARSE
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except Exception as e:  # a bug, not a verdict: never EXIT_FAIL
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
