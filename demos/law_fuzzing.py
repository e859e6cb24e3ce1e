"""Walkthrough: model contracts and the law fuzzer.

A model supplies variables, substitution, and per-operation
interpretations; nothing is trusted until the fuzzer has probed the
monad laws and binding conditions.  A deliberately broken model shows
what a counterexample report looks like.

Run with: python3 demos/law_fuzzing.py
"""

from debruijn import (
    DBAlgebra,
    Var,
    check_binding_conditions,
    check_monad_laws,
    lambda_signature,
    term_model,
)
from debruijn.gen import random_assignment, random_term, shrink_law_sample

sig = lambda_signature()
tm = term_model(sig)


def gen_elem(rng):
    return random_term(sig, rng, max_depth=5)


def gen_assign(rng):
    return random_assignment(sig, rng)


print("-- term model --")
report = check_monad_laws(tm, gen_elem, gen_assign, cases=500, seed=42,
                          shrink=shrink_law_sample)
print(report)
report = check_binding_conditions(tm, sig, gen_elem, gen_assign, cases=500, seed=42)
print(report)

print("\n-- a broken model (substitution drops the assignment) --")
broken = DBAlgebra(
    variables=Var,
    substitution=lambda t, a: t,
    interpretations=tm.interpretations,
)
report = check_monad_laws(broken, gen_elem, gen_assign, cases=500, seed=42,
                          shrink=shrink_law_sample)
print(report)
