"""Property tests over generated expression trees on x1..x6 (hypothesis)."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from exprcount import (  # noqa: E402
    Add,
    Div,
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
from exprcount.cli import main  # noqa: E402
from test_expressions import _has_sub  # noqa: E402

trees = st.recursive(
    st.builds(Leaf, st.integers(1, 6)),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        *(st.builds(op, kids, kids) for op in (Add, Sub, Mul, Div)),
    ),
    max_leaves=10,
)

fixed = settings(derandomize=True, database=None, deadline=None)


def _value(tree):
    try:
        return evaluate(tree)
    except ZeroDivisionError:
        return ZeroDivisionError


def _equiv(lhs, rhs):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["equiv", "--", render(lhs), render(rhs)])
    return code, out.getvalue()


@fixed
@given(trees)
def test_parse_inverts_render(tree):
    identity = NameMap({f"x{i}": i for i in range(1, 7)})
    assert parse(render(tree), identity)[0] == tree


@fixed
@given(trees, trees)
def test_equiv_is_symmetric(a, b):
    assert _equiv(a, b) == _equiv(b, a)


@fixed
@given(trees)
def test_eliminate_subtraction_keeps_value(tree):
    flat = eliminate_subtraction(tree)
    assert not _has_sub(flat)
    assert _value(flat) == _value(tree)
