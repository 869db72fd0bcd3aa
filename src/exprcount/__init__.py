"""Exact counting and equivalence checking of arithmetic expressions.

The package has four layers: sparse integer polynomials and their fraction
field (``polys``, ``rational``), expression trees with parsing and
evaluation (``expressions``), the quadratic-time recurrence engine for the
per-k sequence counts (``counting``), and the brute-force enumeration
oracle that validates the engine at small k (``oracle``).  ``cli`` wires
them into the ``exprcount`` command.
"""

from .counting import (
    BASE_ROW,
    InexactDivisionError,
    OpCounter,
    SequenceRow,
    SequenceTable,
    compute_table,
)
from .expressions import (
    Add,
    Div,
    ExprSyntaxError,
    ExprTree,
    Leaf,
    Mul,
    NameMap,
    Neg,
    Sub,
    eliminate_subtraction,
    evaluate,
    parse,
    render,
)
from .oracle import (
    ClassSet,
    DEFAULT_CUTOFF,
    enumerate_grammar,
    enumerate_tree_classes,
    enumerate_tree_classes_literal,
    iter_expression_trees,
)
from .polys import Monomial, Poly, divexact, normalize_sign, poly_gcd, poly_str
from .rational import Frac, canonicalize

__version__ = "0.1.0"

__all__ = [
    "Add",
    "BASE_ROW",
    "ClassSet",
    "DEFAULT_CUTOFF",
    "Div",
    "ExprSyntaxError",
    "ExprTree",
    "Frac",
    "InexactDivisionError",
    "Leaf",
    "Monomial",
    "Mul",
    "NameMap",
    "Neg",
    "OpCounter",
    "Poly",
    "SequenceRow",
    "SequenceTable",
    "Sub",
    "canonicalize",
    "compute_table",
    "divexact",
    "eliminate_subtraction",
    "enumerate_grammar",
    "enumerate_tree_classes",
    "enumerate_tree_classes_literal",
    "evaluate",
    "iter_expression_trees",
    "normalize_sign",
    "parse",
    "poly_gcd",
    "poly_str",
    "render",
]
