"""Parsers and printers: s-expression terms (nameless, named, typed),
signature and theory files, assignment and renaming literals.

All printers emit canonical text (single spaces, no trailing whitespace)
and round-trip through the corresponding parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .equational import EquationalTheory, ExplicitSubst, MetaVar, Rule, validate_theory
from .model import NOp, NVar, NamedTerm, to_named
from .signature import (
    BindingArity,
    BindingSignature,
    OpSchema,
    TypeExpr,
    TypeGrammar,
    TypedArity,
    TypedSignatureSchema,
    validate_signature,
)
from .subst import NAT, Assignment
from .term import Term, Var, Op, wellformed
from .typed import TOp, TVar, TypedTerm


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    span: Optional[SourceSpan] = None
    path: Optional[tuple[int, ...]] = None

    def __str__(self) -> str:
        loc = f"{self.span.line}:{self.span.column}: " if self.span else ""
        return f"{loc}{self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def _fail(message: str, span: Optional[SourceSpan] = None):
    raise ParseError([Diagnostic("error", message, span)])


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<turnstile>\|-)
  | (?P<nat>0|[1-9][0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[()\[\]{};,:^=?#])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            _fail(f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1, line, col))
        span = SourceSpan(pos, m.end(), line, col)
        chunk = m.group(0)
        if m.lastgroup == "ws":
            pass
        elif m.lastgroup == "punct":
            tokens.append(Token(chunk, chunk, span))
        else:
            tokens.append(Token(m.lastgroup, chunk, span))
        for c in chunk:
            if c == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(pos, pos, line, col)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            _fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        return self.next() if self.at(kind) else None

    def done(self):
        tok = self.peek()
        if tok.kind != "eof":
            _fail(f"unexpected trailing input {tok.text!r}", tok.span)

    # -- types ----------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        left = self.type_atom()
        if self.accept("arrow"):
            return TypeExpr("->", (left, self.type_expr()))
        return left

    def type_atom(self) -> TypeExpr:
        if self.accept("("):
            ty = self.type_expr()
            self.expect(")")
            return ty
        name = self.expect("ident").text
        if self.accept("("):
            args = [self.type_expr()]
            while self.accept(","):
                args.append(self.type_expr())
            self.expect(")")
            return TypeExpr(name, tuple(args))
        return TypeExpr(name)

    # -- nameless terms -------------------------------------------------

    def nameless(self) -> Term:
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return Var(int(tok.text))
        self.expect("(")
        name = self.expect("ident").text
        args = []
        while not self.at(")"):
            args.append(self.nameless())
        self.expect(")")
        return Op(name, tuple(args))

    # -- named terms ----------------------------------------------------

    def named(self) -> NamedTerm:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return NVar(tok.text)
        self.expect("(")
        name = self.expect("ident").text
        args = []
        while not self.at(")"):
            binders: tuple[str, ...] = ()
            if self.accept("["):
                names = []
                while not self.at("]"):
                    names.append(self.expect("ident").text)
                self.expect("]")
                binders = tuple(names)
            args.append((binders, self.named()))
        self.expect(")")
        return NOp(name, tuple(args))

    # -- typed terms ----------------------------------------------------

    def typed(self) -> TypedTerm:
        self.expect("(")
        if self.accept("#"):
            index = self.nat()
            self.expect(":")
            ty = self.type_expr()
            self.expect(")")
            return TVar(index, ty)
        head = self.expect("ident")
        if head.text != "op":
            _fail("expected 'op' or '#' in typed term", head.span)
        self.expect("[")
        name = self.expect("ident").text
        targs: list[TypeExpr] = []
        if self.accept(";"):
            if not self.at("]"):
                targs.append(self.type_expr())
                while self.accept(","):
                    targs.append(self.type_expr())
        self.expect("]")
        args = []
        while not self.at(")"):
            args.append(self.typed())
        self.expect(")")
        return TOp(name, tuple(targs), tuple(args))

    # -- literals -------------------------------------------------------

    def nat(self) -> int:
        return int(self.expect("nat").text)

    def literal(self, entry: Callable[[], object], var: Callable = Var) -> Assignment:
        """``[e, ...; ^k]``, each ``e`` read by ``entry``; the carrier's
        ``var`` makes it canonical."""
        self.expect("[")
        entries = []
        if not self.at(";"):
            entries.append(entry())
            while self.accept(","):
                entries.append(entry())
        self.expect(";")
        self.expect("^")
        shift = self.nat()
        self.expect("]")
        return Assignment(tuple(entries), shift, var)

    # -- metaterms ------------------------------------------------------

    def metaterm(self):
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return Var(int(tok.text))
        if tok.kind == "?":
            self.next()
            return MetaVar(self.nat())
        if tok.kind == "{":
            self.next()
            body = self.metaterm()
            assign = self.literal(self.metaterm)
            self.expect("}")
            return ExplicitSubst(body, assign)
        self.expect("(")
        name = self.expect("ident").text
        args = []
        while not self.at(")"):
            args.append(self.metaterm())
        self.expect(")")
        return Op(name, tuple(args))


# --- public parse functions ---------------------------------------------


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    ty = p.type_expr()
    p.done()
    return ty


def parse_term(text: str, mode: str = "nameless", sig: Optional[BindingSignature] = None):
    """Parse a term; with a signature, nameless terms are arity-checked."""
    p = _Parser(text)
    if mode == "nameless":
        t = p.nameless()
        p.done()
        if sig is not None:
            errs = wellformed(sig, t)
            if errs:
                raise ParseError([Diagnostic("error", e) for e in errs])
        return t
    if mode == "named":
        t = p.named()
        p.done()
        return t
    if mode == "typed":
        t = p.typed()
        p.done()
        return t
    raise ValueError(f"unknown mode {mode!r}")


def parse_renaming(text: str) -> Assignment:
    p = _Parser(text)
    r = p.literal(p.nat, NAT)
    p.done()
    return r


def parse_assignment(text: str, sig: Optional[BindingSignature] = None) -> Assignment:
    p = _Parser(text)
    a = p.literal(p.nameless)
    p.done()
    if sig is not None:
        for t in a.prefix:
            errs = wellformed(sig, t)
            if errs:
                raise ParseError([Diagnostic("error", e) for e in errs])
    return a


# --- printers ------------------------------------------------------------


def print_term(t, mode: str = "nameless", sig: Optional[BindingSignature] = None) -> str:
    if isinstance(t, Term) and mode == "named":
        if sig is None:
            raise ValueError("printing a nameless term as named requires a signature")
        t = to_named(sig, t)
    match t:
        case Var(index):
            return str(index)
        case Op(name, args):
            return "(" + " ".join([name, *(print_term(a) for a in args)]) + ")"
        case NVar(name):
            return name
        case NOp(name, args):
            parts = [name]
            for binders, body in args:
                if binders:
                    parts.append("[" + " ".join(binders) + "]")
                parts.append(print_term(body, "named"))
            return "(" + " ".join(parts) + ")"
        case TVar(index, ty):
            return f"(#{index} : {ty})"
        case TOp(name, targs, args):
            head = f"op[{name}; {', '.join(str(ty) for ty in targs)}]"
            return "(" + " ".join([head, *(print_term(a, "typed") for a in args)]) + ")"
    raise TypeError(t)


def print_assignment(a: Assignment, entry: Callable[[object], str] = print_term) -> str:
    return "[" + ", ".join(map(entry, a.prefix)) + f"; ^{a.tail_shift}]"


print_renaming = partial(print_assignment, entry=str)


def term_to_json(t: Term):
    match t:
        case Var(index):
            return {"var": index}
        case Op(name, args):
            return {"op": name, "args": [term_to_json(a) for a in args]}
    raise TypeError(t)


def term_from_json(data) -> Term:
    if "var" in data:
        return Var(data["var"])
    return Op(data["op"], tuple(term_from_json(a) for a in data["args"]))


# --- signature and theory files ------------------------------------------


@dataclass
class SignatureFile:
    grammar: Optional[TypeGrammar]
    signatures: dict[str, BindingSignature]
    schemas: dict[str, TypedSignatureSchema]


def _parse_typedecl(p: _Parser) -> dict[str, int]:
    ctors: dict[str, int] = {}
    p.expect("{")
    while not p.at("}"):
        name = p.expect("ident").text
        n = 0
        if p.accept("("):
            n = p.nat()
            p.expect(")")
        if name in ctors:
            _fail(f"duplicate type constructor '{name}'")
        ctors[name] = n
        p.expect(";")
    p.expect("}")
    return ctors


def _parse_opdecl(p: _Parser):
    """Returns (name, BindingArity) or (name, metavars, TypedArity)."""
    p.expect("ident")  # 'op' keyword, checked by caller
    name = p.expect("ident").text
    if p.accept("["):
        metavars: list[str] = []
        if not p.at("]"):
            metavars.append(p.expect("ident").text)
            while p.accept(","):
                metavars.append(p.expect("ident").text)
        p.expect("]")
        p.expect(":")
        premises = []
        while p.at("("):
            p.expect("(")
            gamma: list[TypeExpr] = []
            if not p.at("turnstile"):
                gamma.append(p.type_expr())
                while p.accept(","):
                    gamma.append(p.type_expr())
            p.expect("turnstile")
            tau = p.type_expr()
            p.expect(")")
            premises.append((tuple(gamma), tau))
            if not p.accept(","):
                break
        p.expect("arrow")
        conclusion = p.type_expr()
        p.expect(";")
        return name, tuple(metavars), TypedArity(tuple(premises), conclusion)
    p.expect(":")
    p.expect("(")
    binders: list[int] = []
    if not p.at(")"):
        binders.append(p.nat())
        while p.accept(","):
            binders.append(p.nat())
    p.expect(")")
    p.expect(";")
    return name, BindingArity(tuple(binders))


def parse_signature_file(text: str) -> SignatureFile:
    p = _Parser(text)
    ctors: dict[str, int] = {}
    signatures: dict[str, BindingSignature] = {}
    schemas: dict[str, TypedSignatureSchema] = {}
    while not p.at("eof"):
        tok = p.expect("ident")
        if tok.text == "types":
            ctors.update(_parse_typedecl(p))
            continue
        if tok.text != "signature":
            _fail(f"expected 'types' or 'signature', found '{tok.text}'", tok.span)
        sig_name = p.expect("ident").text
        p.expect("{")
        untyped: list[tuple[str, BindingArity]] = []
        typed_ops: dict[str, OpSchema] = {}
        while not p.at("}"):
            kw = p.peek()
            if kw.text != "op":
                _fail(f"expected 'op', found '{kw.text}'", kw.span)
            decl = _parse_opdecl(p)
            if len(decl) == 2:
                untyped.append(decl)
            else:
                name, metavars, ar = decl
                if name in typed_ops:
                    _fail(f"duplicate operation name '{name}'")
                typed_ops[name] = OpSchema(name, metavars, ar)
        p.expect("}")
        if untyped and typed_ops:
            _fail(f"signature '{sig_name}' mixes typed and untyped operations")
        if typed_ops:
            grammar = TypeGrammar(dict(ctors) | {"->": 2})
            schema = TypedSignatureSchema(grammar, typed_ops)
            errs = validate_signature(schema)
            if errs:
                raise ParseError([Diagnostic("error", e) for e in errs])
            schemas[sig_name] = schema
        else:
            errs = validate_signature(untyped)
            if errs:
                raise ParseError([Diagnostic("error", e) for e in errs])
            signatures[sig_name] = BindingSignature(dict(untyped))
    grammar = TypeGrammar(dict(ctors) | {"->": 2}) if ctors else None
    return SignatureFile(grammar, signatures, schemas)


def parse_theory_file(text: str) -> EquationalTheory:
    """A theory file holds one untyped signature plus ``eq`` declarations:
    ``eq name [n1, n2] : metaterm = metaterm ;``"""
    p = _Parser(text)
    signature: Optional[BindingSignature] = None
    rules: list[Rule] = []
    while not p.at("eof"):
        tok = p.expect("ident")
        if tok.text == "signature":
            if signature is not None:
                _fail("theory file declares more than one signature", tok.span)
            p.expect("ident")  # signature name, unused here
            p.expect("{")
            untyped: list[tuple[str, BindingArity]] = []
            while not p.at("}"):
                kw = p.peek()
                if kw.text != "op":
                    _fail(f"expected 'op', found '{kw.text}'", kw.span)
                decl = _parse_opdecl(p)
                if len(decl) != 2:
                    _fail("theory signatures must be untyped")
                untyped.append(decl)
            p.expect("}")
            errs = validate_signature(untyped)
            if errs:
                raise ParseError([Diagnostic("error", e) for e in errs])
            signature = BindingSignature(dict(untyped))
            continue
        if tok.text != "eq":
            _fail(f"expected 'signature' or 'eq', found '{tok.text}'", tok.span)
        name = p.expect("ident").text
        p.expect("[")
        parens = p.accept("(") is not None
        closer = ")" if parens else "]"
        binders: list[int] = []
        if not p.at(closer):
            binders.append(p.nat())
            while p.accept(","):
                binders.append(p.nat())
        if parens:
            p.expect(")")
        p.expect("]")
        p.expect(":")
        left = p.metaterm()
        p.expect("=")
        right = p.metaterm()
        p.expect(";")
        rules.append(Rule(name, BindingArity(tuple(binders)), left, right))
    if signature is None:
        _fail("theory file declares no signature")
    theory = EquationalTheory(signature, tuple(rules))
    errs = validate_theory(theory)
    if errs:
        raise ParseError([Diagnostic("error", e) for e in errs])
    return theory


def print_signature(name: str, sig: BindingSignature) -> str:
    lines = [f"signature {name} {{"]
    for op, a in sig.ops.items():
        lines.append(f"  op {op} : ({', '.join(str(n) for n in a.binders)});")
    lines.append("}")
    return "\n".join(lines) + "\n"
