"""Walkthrough: the simply-typed extension — schemas, typechecking,
per-type substitution, and the values signature from application trees.

Run with: python3 demos/typed_lambda.py
"""

from debruijn import (
    BTLeaf,
    BTNode,
    TOp,
    TVar,
    TypedAssignment,
    arrow,
    base,
    bt_enumerate,
    print_term,
    stlc_schema,
    tsubst,
    typecheck,
    values_arity,
)

sch = stlc_schema({"a"})
A = base("a")

ident = TOp("lam", (A, A), (TVar(0, A),))
print("identity:", print_term(ident))
print("type:    ", typecheck(sch, ident))

# Apply it to the free a-variable #0; then substitute a value for that
# variable.  Indices are per type: the a-space and the (a -> a)-space do
# not interfere.
applied = TOp("app", (A, A), (ident, TVar(0, A)))
print("\napplied: ", print_term(applied))
print("type:    ", typecheck(sch, applied))

sigma = TypedAssignment({A: ((TOp("app", (A, A), (ident, TVar(3, A))),), 0)})
print("substituted:", print_term(tsubst(applied, sigma, sch)))

# The values signature: every application binary tree yields one packed
# operation.  A bare leaf recovers lambda-abstraction's arity; the
# two-leaf tree packs lam x. (f a).
t1, t2, s = base("t1"), base("t2"), base("s")
print("\nleaf arity:  ", values_arity(BTLeaf(t2), s))
node = BTNode(BTLeaf(arrow(t1, t2)), BTLeaf(t1))
print("node arity:  ", values_arity(node, s))

from debruijn import TypeGrammar

grammar = TypeGrammar({"t1": 0, "t2": 0, "->": 2})
trees = bt_enumerate(grammar, t2, 3, context_types=(arrow(t1, t2), t1))
print("\ntrees concluding t2 (<= 3 leaves):", len(trees))
