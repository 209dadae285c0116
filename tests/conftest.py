"""Shared helpers for the test suite."""

from fractions import Fraction

from pericat.characters import FormalChar, char_sum, delta, nabla
from pericat.weights import weight

# One verdict line per acceptance criterion, printed after capture ends so
# they are visible in the terminal summary of every run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

B2 = (1, 1)
B3 = (1, 1, 1)
B4 = (1, 1, 1, 1)


def W(*coords):
    return weight(*coords)


def nab_sum(*rows) -> FormalChar:
    """Sum of full-category dual Vermas, one per row (repeats accumulate)."""
    return char_sum(nabla(weight(*row)) for row in rows)


def del_sum(*rows) -> FormalChar:
    return char_sum(delta(weight(*row)) for row in rows)


def frac_box(lo: int, hi: int):
    return [Fraction(v) for v in range(lo, hi + 1)]


def normalised(lam) -> bool:
    """Integral coordinates are ints, the others Fractions off Z."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in lam
    )
