"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import itertools
import random
import signal
import sys
import time
from fractions import Fraction

import pytest

import corpus
import run
import tracing
from speed import Speed


def test_corpus_is_deterministic_for_a_seed():
    first = list(itertools.islice(corpus.corpus(7), 40))
    again = list(itertools.islice(corpus.corpus(7), 40))
    other = list(itertools.islice(corpus.corpus(8), 40))
    assert first == again
    assert [e for e, _ in first] != [e for e, _ in other]
    assert first[0][0]["left"] == corpus.PINNED == other[0][0]["left"]


@pytest.mark.parametrize(
    "left, right, same",
    [
        ("a + b", "a - (-b)", True),
        ("(a*b)/c", "b/(c/a)", True),
        ("(a-b)*(c-d)", "a*c - a*d - b*c + b*d", True),
        ("a + b", "a * b", False),
    ],
)
def test_answer_key_on_readme_pairs(left, right, same):
    points = corpus.random_points(random.Random(1), corpus.names_in_order(left + right))
    assert (corpus.values(left, points) == corpus.values(right, points)) is same


def test_answer_key_finds_formal_zero_divisor():
    points = corpus.random_points(random.Random(1), ["a", "b"])
    assert corpus.values("a / (b - b)", points) is None
    assert corpus.values("(b - b) / a", points) == [0, 0, 0]


def test_read_canon_handles_powers_and_coefficients():
    point = {"p": 3, "q": 5}
    value = corpus.read_canon("(2*x1^2*x2 - x2 + 7)/(-x1)", ["p", "q"], point)
    assert value == Fraction(2 * 9 * 5 - 5 + 7, -3)
    with pytest.raises(ValueError):
        corpus.read_canon("(x1 +x2)/(1)", ["p", "q"], point)


class FakeCli:
    """Stands in for exprcount.cli with a fixed answer."""

    def __init__(self, stdout: str, rc: int, sleep: float = 0.0):
        self.stdout, self.rc, self.sleep = stdout, rc, sleep

    def main(self, argv):
        time.sleep(self.sleep)
        print(self.stdout, end="")
        return self.rc


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


ENTRY = {"left": "a * b", "right": "b * a"}
UNSCALED = Speed("interp", 1.0)  # no samples: deadlines as given


def _key(entry):
    return corpus.answer_key(random.Random(3), entry)


def test_gate_counts_wrong_equiv_answer(alarm):
    key = _key(ENTRY)
    assert key["equiv_rc"] == 0
    assert run._equiv_op(FakeCli("equivalent\n", 0), ENTRY, key, 1.0, UNSCALED).run()[0] == run.OK
    assert run._equiv_op(FakeCli("inequivalent\n", 1), ENTRY, key, 1.0, UNSCALED).run()[0] == run.WRONG
    assert run._equiv_op(FakeCli("", 2), ENTRY, key, 1.0, UNSCALED).run()[0] == run.WRONG


def test_gate_counts_wrong_canon_answer(alarm):
    key = _key(ENTRY)
    assert run._canon_op(FakeCli("(x1*x2)/(1)\n", 0), ENTRY, key, 1.0, UNSCALED).run()[0] == run.OK
    assert run._canon_op(FakeCli("(x1*x2 + 1)/(1)\n", 0), ENTRY, key, 1.0, UNSCALED).run()[0] == run.WRONG
    assert run._canon_op(FakeCli("x1*x2\n", 0), ENTRY, key, 1.0, UNSCALED).run()[0] == run.WRONG


def test_gate_counts_overrun_and_internal_error(alarm):
    key = _key(ENTRY)
    slow = FakeCli("equivalent\n", 0, sleep=0.5)
    assert run._equiv_op(slow, ENTRY, key, 0.05, UNSCALED).run()[0] == run.OVERRUN
    assert run._equiv_op(FakeCli("", 3), ENTRY, key, 1.0, UNSCALED).run()[0] == run.ERROR


def test_gate_passes_real_program(alarm):
    _, _, cli = run.setup(run.new_speed("interp"))
    for entry, key in itertools.islice(corpus.corpus(5), 1, 15):
        assert run._equiv_op(cli, entry, key, 5.0, UNSCALED).run()[0] == run.OK
        assert run._canon_op(cli, entry, key, 5.0, UNSCALED).run()[0] == run.OK


def test_install_wraps_every_site_and_restore_undoes_it():
    _, _, cli = run.setup(run.new_speed("interp"))
    rational = sys.modules["exprcount.rational"]
    polys = sys.modules["exprcount.polys"]
    original_gcd = polys.poly_gcd
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert rational.poly_gcd is polys.poly_gcd is not original_gcd
        assert cli.main(["canon", "--", "(a*b)/(a*c)"]) == 0
        counts = tracer.take_op_counts()
    finally:
        tracing.restore(undo)
    assert polys.poly_gcd is original_gcd is rational.poly_gcd
    assert counts["cli.main"] == 1
    assert counts["polys.gcd"] >= 1
    assert counts[("rational.truediv", "polys.gcd")] >= 1


def test_run_is_a_fixed_list_of_operations():
    speed = Speed("interp", 1.0)
    assert run.run_size("equiv", 25) == run.run_size("equiv", 25) > 1
    first = run.equiv_ops(None, 4, 30, speed)
    assert [op.kind for op in first] == ["equiv", "canon"] * 30


def test_probe_scaling():
    speed = Speed("interp", 0.02, exponent=0.5)
    speed.samples = [0.01, 0.08, 0.08, 0.08, 0.01]
    assert speed.factor() == (0.02 / 0.08) ** 0.5
    assert speed.deadline(0.5) == 0.5 * 0.08 / 0.02
    before = speed.clock()
    speed.sample()
    assert len(speed.samples) == 6 and speed.clock() - before < speed.samples[-1]


def test_coefficient_budget_stops_gcd_blow_up_and_undo_restores(alarm):
    _, _, cli = run.setup(run.new_speed("interp"))
    polys = sys.modules["exprcount.polys"]
    rational = sys.modules["exprcount.rational"]
    original = polys.poly_gcd
    undo = run.coefficient_budget(8)
    try:
        assert rational.poly_gcd is polys.poly_gcd is not original
        small = {"left": "(a*b)/(a*c)", "right": "b/c"}
        assert run._equiv_op(cli, small, _key(small), 5.0, UNSCALED).run()[0] == run.OK
        pinned = {"left": corpus.PINNED, "right": corpus.PINNED}
        assert run._canon_op(cli, pinned, _key(pinned), 5.0, UNSCALED).run()[0] == run.OVERRUN
    finally:
        undo()
    assert polys.poly_gcd is original is rational.poly_gcd
