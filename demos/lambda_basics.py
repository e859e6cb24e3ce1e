"""Walkthrough: terms, substitution, and named/nameless conversion over
the lambda-calculus signature.

Run with: python3 demos/lambda_basics.py
"""

from debruijn import (
    Assignment,
    Var,
    lambda_signature,
    parse_term,
    print_term,
    subst,
    subst1,
    support,
    to_named,
)

sig = lambda_signature()

# lam x. lam y. x y, namelessly: the inner variable 0 is y, 1 is x.
t = parse_term("(lam (lam (app 1 0)))")
print("term:           ", print_term(t))
print("named:          ", print_term(to_named(sig, t)))
print("support:        ", support(t, sig))

# Parallel substitution: send free variable 0 to (lam 0) and shift the rest.
sigma = Assignment((parse_term("(lam 0)"),), 0)
open_term = parse_term("(lam (app 1 0))")
print("\nopen term:      ", print_term(open_term))
print("after subst:    ", print_term(subst(open_term, sigma, sig)))

# Single substitution is beta-contraction's engine: (lam body) applied to u.
body = parse_term("(app 0 (lam (app 0 1)))")
u = Var(7)
print("\nbody:           ", print_term(body))
print("body[0 := 7]:   ", print_term(subst1(body, u, sig)))
