"""Shared helpers for the test suite."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import reference
from pericat.characters import FormalChar, char_sum, delta, nabla, nabla_sum_to_delta_sum
from pericat.linkage import block_label
from pericat.pe3 import tables
from pericat.tilting import weakly_typical_tilting
from pericat.weights import _levi_pairs, borel, weight

# One verdict line per acceptance criterion, printed after capture ends so
# they are visible in the terminal summary of every run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True, scope="module")
def _empty_reference_caches():
    yield  # the reference's caches serve one module; kept, they slow every later gc
    for cached in vars(reference).values():
        getattr(cached, "cache_clear", lambda: None)()


B2 = (1, 1)
B3 = (1, 1, 1)
B4 = (1, 1, 1, 1)
W = weight


def sweep_items(seeds=(31, 2002), rounds=10):
    """The (weight, parabolic) items of perfbench's tilting-sweep, read
    through its own generator, for the given seeds and rounds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sweep = workloads.WORKLOADS["tilting-sweep"]
    return [
        sweep.prepare(item)
        for seed in seeds
        for round_index in range(rounds)
        for item in sweep.generate(seed, round_index)
    ]


def nab_sum(*rows) -> FormalChar:
    """Sum of full-category dual Vermas, one per row (repeats accumulate)."""
    return char_sum(nabla(weight(*row)) for row in rows)


def del_sum(*rows) -> FormalChar:
    return char_sum(delta(weight(*row)) for row in rows)


# Weights of rank <= 6 mixing ints, reduced Fractions and raw integral
# Fractions such as Fraction(2, 1), which bypass `weight()`.
mixed_weights = st.lists(
    st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
        st.integers(-6, 6).map(Fraction),
    ),
    min_size=1,
    max_size=6,
).map(tuple)


def compose(w, v):
    """(w. v)(i) = w(v(i)) for permutations in one-line notation."""
    return tuple(w[v[i]] for i in range(len(w)))


def oracle_verma_mult_small(lam, mu) -> int:
    """Independent recomputation of [M_lam : L_mu] for n <= 3, where every
    nonzero multiplicity is 1: mu in lam's down-set by the reference's
    weight BFS, which shares no ranking with the engine."""
    if len(lam) > 3:
        raise ValueError("oracle only covers n <= 3")
    return 1 if reference.strongly_linked(mu, lam) else 0


def tilting_delta_mults_wt(lam, p=None) -> FormalChar:
    """Standard-flag multiplicities of T^p_lam (weakly-typical route):
    expand the costandard-flag character and recollect in the Delta^p basis."""
    p = p or borel(len(lam))
    return nabla_sum_to_delta_sum(weakly_typical_tilting(lam, p))


def formal(chi: dict) -> FormalChar:
    """A reference character of one basis, {(kind, p, weight): coeff}, as a FormalChar."""
    bases: dict = {}
    for (kind, p, lam), c in chi.items():
        bases.setdefault((kind, p), {})[lam] = c
    return char_sum(FormalChar(kind, p, terms) for (kind, p), terms in bases.items())


def fresh(chi: FormalChar) -> FormalChar:
    """The character chi built anew from its weights."""
    return FormalChar(chi.kind, chi.parabolic, dict(chi.items()))


# Roots as dense vectors, for the tests that check the index-pair form
# against the bilinear form.


def basis_vector(i: int, n: int):
    return tuple(1 if j == i else 0 for j in range(n))


def even_root(i: int, j: int, n: int):
    """e_i - e_j as a vector (0-based i != j)."""
    if i == j:
        raise ValueError("even root needs distinct indices")
    return tuple(1 if k == i else -1 if k == j else 0 for k in range(n))


def conjugate(beta):
    """The odd conjugate of an even root: e_i - e_j  |->  e_i + e_j."""
    if sorted(beta) != sorted((-1, 1) + (0,) * (len(beta) - 2)):
        raise ValueError("conjugate is defined for roots e_i - e_j only")
    return tuple(abs(c) for c in beta)


def levi_positive_roots(p, n: int):
    """Phi^+(l): the positive even roots inside the Levi blocks of p."""
    return [even_root(i, j, n) for i, j in _levi_pairs(tuple(p), n)]


def compositions(n: int):
    """Every composition of n: the parabolics of gl(n)."""
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in compositions(n - head):
            yield (head,) + tail


def frac_box(lo: int, hi: int):
    return [Fraction(v) for v in range(lo, hi + 1)]


def partial_weight(i: int, n: int):
    """The block representative with i leading ones: (1,..,1,0,..,0)."""
    return (1,) * i + (0,) * (n - i)


def same_block(lam, mu) -> bool:
    """Equality of block labels as multisets of class records."""
    return sorted(block_label(lam)) == sorted(block_label(mu))


def normalised(lam) -> bool:
    """Integral coordinates are ints, the others Fractions off Z."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in lam
    )


def _mutate(rec: dict, mutation: str) -> None:
    terms = rec["terms"]
    if mutation == "coefficient":  # second coefficient set to 2
        terms[1][1] = 2
        return
    if mutation == "no-highest-weight":  # the highest-weight term dropped
        del terms[0]
        return
    if mutation == "widen-domain":  # the first parameter's lower bound cut by one
        next(iter(rec["params"].values()))["min"] -= 1
        return
    if mutation == "unknown-kind":  # the first parameter's kind misspelt
        next(iter(rec["params"].values()))["kind"] = "integer"
        return
    coords = terms[1][0].split(",")
    if mutation == "unlinked":  # second term's first coordinate moved by 1/2
        coords[0] = str(Fraction(coords[0]) + Fraction(1, 2))
    elif mutation == "not-p-dominant":  # second term's first two coordinates swapped
        coords[0], coords[1] = coords[1], coords[0]
    elif mutation == "undeclared-token":  # second term's last coordinate named "d"
        coords[-1] = "d"
    else:
        raise ValueError(f"unknown mutation {mutation!r}")
    terms[1][0] = ",".join(coords)


def without_row(tmp_path, fam_id, name=None):
    """families.json with the row fam_id left out."""
    doc = json.loads(tables._read_fixture("<packaged>"))
    doc["families"] = [rec for rec in doc["families"] if rec["id"] != fam_id]
    path = tmp_path / (name or f"families-without-{fam_id}.json")
    path.write_text(json.dumps(doc))
    return path


def corrupt_row(tmp_path, fam_id="5.4", mutation="coefficient"):
    """families.json with one row broken by one mutation; the default sets
    the row's second coefficient to 2."""
    doc = json.loads(tables._read_fixture("<packaged>"))
    for rec in doc["families"]:
        if rec["id"] == fam_id:
            _mutate(rec, mutation)
    alt = tmp_path / f"families-{fam_id}-{mutation}.json"  # tables are cached per path
    alt.write_text(json.dumps(doc))
    return alt
