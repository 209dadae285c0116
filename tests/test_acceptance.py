"""End-to-end acceptance checks, one test per published claim bundle.

Every criterion prints exactly one summary line

    [PASS] criterion-N: <what was verified>
    [FAIL] criterion-N: <what went wrong>

on the real stdout (bypassing pytest capture) so the ten verdicts are
readable in any run, then asserts.  All ten are expected to pass.
Criterion 5 also carries a recorded refutation: the claim, shipped with the
pe(3) tables, that every tilting module's standard flag is multiplicity-free
((T : standard) <= 1) is false.  The criterion recomputes the standard
flags with an independent kappa-rule oracle, checks that
``pericat.pe3.verify.delta_flag_bound_report`` names exactly the
instantiations the oracle finds above 1, and prints their count in its PASS
line; the README documents the discrepancy under "Known discrepancy".
"""

import functools
import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction

import conftest
import reference
from conftest import (
    B3,
    B4,
    W,
    compositions,
    frac_box,
    nab_sum,
    oracle_verma_mult_small,
)
from pericat.characters import (
    DELTA,
    NABLA,
    char_sum,
    nabla,
    nabla_sum_to_delta_sum,
    theta_char,
)
from pericat.glmult import (
    parabolic_verma_simple_mult,
    verma_simple_mult,
)
from pericat.linkage import (
    block_label,
    strong_down_set,
    thm34_delta_edge,
    thm34_nabla_edge,
    thmA_delta_form,
    thmA_nabla_form,
)
from pericat.pe3.appendix import replay_appendix
from pericat.pe3.tables import load_families, lookup_tilting_pe3
from pericat.pe3.verify import _instances, _tag, verify_tables, verify_theorem_D
from pericat.tilting import tilting_equals_nabla, weakly_typical_tilting
from pericat.weights import (
    format_weight,
    is_dominant,
    is_p_dominant,
)
from pericat.weyl import all_perms, kl_polynomial


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion-{num}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(num: int):
    """The wrapped test returns its PASS detail line; any exception is
    converted into a FAIL line before propagating."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                _report(num, False, f"{type(exc).__name__}: {exc}")
                raise
            _report(num, True, detail)

        return wrapper

    return deco


# --- criterion 1: block label counts -------------------------------------------


def _canon_label(label) -> tuple:
    """Order-free form of a block label (records sorted)."""
    return tuple(sorted(label))


_OFFSETS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))


@criterion(1)
def test_criterion_01_block_counts():
    t0 = time.perf_counter()
    int_box = frac_box(-6, 6)

    # Integral weights in {-6..6}^n fall into exactly n+1 blocks.  The label
    # is permutation-invariant (sampled below and proved by its multiset
    # semantics), so nondecreasing representatives already realize every
    # label; for n <= 4 we cross-check against the full box.
    for n in range(1, 7):
        labels = {
            _canon_label(block_label(lam))
            for lam in itertools.combinations_with_replacement(int_box, n)
        }
        assert len(labels) == n + 1, f"n={n}: {len(labels)} integral labels"
        if n <= 4:
            full = {
                _canon_label(block_label(lam))
                for lam in itertools.product(int_box, repeat=n)
            }
            assert full == labels, f"n={n}: full box realizes different labels"

    rng = random.Random(20260817)
    for _ in range(200):
        n = rng.randint(2, 6)
        lam = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n))
        mu = tuple(rng.sample(list(lam), n))
        assert _canon_label(block_label(mu)) == _canon_label(block_label(lam))

    # For each class structure (composition of n <= 5) the labels number
    # exactly prod(n_i + 1): each class of size n_i contributes an odd-count
    # in 0..n_i independently.  Classes are kept distinct by giving each
    # part its own fractional offset.
    comp_count = 0
    for n in range(1, 6):
        for comp in compositions(n):
            comp_count += 1
            per_part = []
            for offset, size in zip(_OFFSETS, comp):
                vals = [offset + v for v in range(-6, 7)]
                recs = {
                    block_label(c)[0]
                    for c in itertools.combinations_with_replacement(vals, size)
                }
                assert len(recs) == size + 1, (comp, size, len(recs))
                per_part.append(sorted(recs))
            combined = {
                _canon_label(recs) for recs in itertools.product(*per_part)
            }
            expected = math.prod(k + 1 for k in comp)
            assert len(combined) == expected, (comp, len(combined), expected)
            for _ in range(20):
                coords = []
                for offset, size in zip(_OFFSETS, comp):
                    coords += [offset + rng.randint(-6, 6) for _ in range(size)]
                rng.shuffle(coords)
                assert _canon_label(block_label(tuple(coords))) in combined

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"block-count sweep took {elapsed:.2f}s"
    return (
        "integral boxes give n+1 blocks for n=1..6 and all "
        f"{comp_count} class structures of n<=5 give prod(n_i+1) labels "
        f"({elapsed:.2f}s < 5s)"
    )


# --- criterion 2: appendix replay -----------------------------------------------


@criterion(2)
def test_criterion_02_appendix_replay():
    t0 = time.perf_counter()
    records = replay_appendix()
    elapsed = time.perf_counter() - t0
    bad = [r for r in records if not r.ok]
    assert not bad, f"{len(bad)} failing steps, first: {bad[0]}"
    found = {
        int(m)
        for r in records
        for m in re.findall(r"\b6\.(\d{1,2})\b", r.step)
    }
    missing = set(range(1, 21)) - found
    assert not missing, f"identities never replayed: {sorted(missing)}"
    assert len(records) >= 100, f"only {len(records)} replay records"
    assert elapsed < 1.0, f"replay took {elapsed:.2f}s"
    return (
        f"all {len(records)} derivation steps bit-exact, identities "
        f"6.1-6.20 all covered ({elapsed:.2f}s < 1s)"
    )


# --- criterion 3: the six weakly-typical anchors ---------------------------------


@criterion(3)
def test_criterion_03_tilting_anchors():
    checked = 0
    for b in (3, 4, 7):  # dominant side: single costandard term
        assert weakly_typical_tilting(W(-1, 1, b)) == nab_sum((-1, 1, b))
        checked += 1
    for b in (-2, -5):  # antidominant side: full four-term orbit sum
        assert weakly_typical_tilting(W(-1, 1, b)) == nab_sum(
            (-1, 1, b), (-1, b, 1), (b, -1, 1), (b, 1, -1)
        )
        checked += 1
    assert weakly_typical_tilting(W(-1, 1, -1)) == nab_sum((-1, 1, -1), (-1, -1, 1))
    checked += 1
    for a in (2, 5):  # leading coordinate dominant: four terms
        assert weakly_typical_tilting(W(a, -1, 1)) == nab_sum(
            (a, -1, 1), (-1, a, 1), (-1, 1, a), (1, -1, a)
        )
        checked += 1
    assert weakly_typical_tilting(W(-3, -1, 1)) == nab_sum((-3, -1, 1))
    checked += 1
    assert weakly_typical_tilting(W(1, -1, 1)) == nab_sum((1, -1, 1), (-1, 1, 1))
    checked += 1
    return f"all six anchor families match exactly ({checked} instantiations)"


# --- criterion 4: minimality statements ------------------------------------------


@criterion(4)
def test_criterion_04_minimality_statements():
    t0 = time.perf_counter()
    reports = verify_theorem_D(param_bound=6)
    elapsed = time.perf_counter() - t0
    names = [r.name for r in reports]
    assert names == [f"minimality-{k}" for k in range(1, 7)], names
    bad = [r for r in reports if not r.ok]
    assert not bad, f"failing statements: {[(r.name, r.failures[:2]) for r in bad]}"
    assert all(r.checked > 0 for r in reports)
    assert elapsed < 10.0, f"verifier took {elapsed:.2f}s"
    return (
        f"statements 1-6 hold on {reports[0].checked} characters at "
        f"parameter bound 6 ({elapsed:.2f}s < 10s)"
    )


# --- criterion 5: table self-consistency ---------------------------------------


def _borel_delta(chi) -> dict:
    """Borel standard multiplicities of a FormalChar, from the reference's
    definitions: a parabolic costandard is the alternating Levi-orbit sum of
    Borel costandards, and ch Nabla_mu = sum over kappa in {0,2}^n of
    ch Delta_{mu - kappa}."""
    return {mu: c for (_, _, mu), c in reference.borel_expansion(reference.terms(chi)).items()}


@criterion(5)
def test_criterion_05_table_self_consistency():
    reports = {r.name: r for r in verify_tables(4)}
    table_reports = [r for name, r in reports.items() if name.startswith("table-")]
    assert table_reports, "verify_tables produced no per-row reports"

    # clause 1+2: every instantiation single-block and theta-closed with
    # non-negative tilting decomposition (per-row reports; proper-parabolic
    # rows may skip theta images leading outside the stored patterns)
    bad = [(r.name, r.failures[:2]) for r in table_reports if not r.ok]
    assert not bad, f"single-block / theta-closure clause fails: {bad}"
    skips = sum(
        1 for r in table_reports for f in r.failures if f.startswith("skipped:")
    )
    # clause 3: the two stored rows sharing a highest weight agree
    assert reports["rows-5.2==5.7"].ok, reports["rows-5.2==5.7"].failures

    # clause 4: the standard flag of every stored tilting row.  The theory
    # promises a finite flag with positive integer multiplicities, the
    # highest weight exactly once, and every weight in the row's block; it
    # does not promise multiplicity-freeness, and the claimed bound
    # (T : standard) <= 1 is refuted here against an independent kappa-rule
    # oracle (README, "Known discrepancy").
    instantiations = 0
    above_one: dict[str, int] = {}
    examples: list[str] = []  # what delta_flag_bound_report should record
    for fam in load_families().values():
        for params in _instances(fam, 4):
            instantiations += 1
            tag = _tag(fam, params)
            row = fam.instantiate(params)
            hw = fam.highest_weight(params)
            d = nabla_sum_to_delta_sum(row)
            assert (d.kind, d.parabolic) == (DELTA, fam.parabolic), (tag, d.kind, d.parabolic)
            mults = {mu: c for (_, mu), c in d.terms.items()}
            positive = all(isinstance(c, int) and c > 0 for c in mults.values())
            assert positive, (tag, d)
            assert mults.get(hw) == 1, f"{tag}: (T : standard_hw) = {mults.get(hw)}"
            home = _canon_label(block_label(hw))
            strays = [mu for mu in mults if _canon_label(block_label(mu)) != home]
            assert not strays, f"{tag}: standard weights outside the block: {strays}"

            # Delta^p_nu is Delta_nu plus signed Borel terms at weights that
            # are not p-dominant, so the p-dominant coefficients of the Borel
            # expansion are the parabolic multiplicities (all of it for B3).
            oracle = {
                nu: c
                for nu, c in _borel_delta(row).items()
                if reference.is_p_dominant(nu, fam.parabolic)
            }
            assert mults == oracle, f"{tag}: kappa-rule oracle disagrees"
            if fam.parabolic != B3:
                assert _borel_delta(d) == _borel_delta(row), tag
            top = max(oracle.values())
            if top > 1:
                above_one[tag] = top
                examples += [
                    f"{tag}: (T_{format_weight(hw)} : "
                    f"standard_{format_weight(mu)}) = {c}"
                    for mu, c in sorted(oracle.items())
                    if c > 1
                ][:2]

    flag = reports["delta-flag-bound"]
    assert flag.checked == instantiations == sum(r.checked for r in table_reports)
    named = {f.split(": ", 1)[0] for f in flag.failures}
    assert named == set(above_one), (
        "delta-flag-bound names other instantiations than the oracle: "
        f"only oracle {sorted(set(above_one) - named)}, "
        f"only report {sorted(named - set(above_one))}"
    )
    assert list(flag.failures) == examples, "recorded examples differ from oracle"

    # The README's worked example: in T_{0,1,-1} the costandard terms
    # Nabla_{-1,0,-1} and Nabla_{-1,0,1} both contain Delta_{-3,-2,-1}.
    example = lookup_tilting_pe3(W(0, 1, -1))
    assert example.coeff(NABLA, W(-1, 0, -1)) == 1
    assert example.coeff(NABLA, W(-1, 0, 1)) == 1
    assert nabla_sum_to_delta_sum(example).coeff(DELTA, W(-3, -2, -1)) == 2
    assert _borel_delta(example)[W(-3, -2, -1)] == 2

    return (
        f"{len(table_reports)} row families single-block and theta-closed "
        f"({skips} parabolic theta-images skipped), overlapping rows agree; "
        f"standard flags of all {instantiations} instantiations match the "
        "kappa-rule oracle (positive, highest weight once, one block); "
        f"claimed bound (T : standard) <= 1 refuted on {len(above_one)} of "
        f"{instantiations} instantiations, highest multiplicity "
        f"{max(above_one.values(), default=1)}, "
        "e.g. (T_0,1,-1 : standard_-3,-2,-1) = 2"
    )


# --- criterion 6: multiplicity engine vs strong-linkage oracle -------------------


@criterion(6)
def test_criterion_06_multiplicity_oracle():
    t0 = time.perf_counter()
    # the KL engine's own guarantee that every n<=3 value is 0 or 1
    for n in (2, 3):
        perms = all_perms(n)
        assert all(
            sum(kl_polynomial(x, w)) in (0, 1) for x in perms for w in perms
        ), f"nontrivial KL value in S_{n}"

    pair_total = 0
    for n in (2, 3):
        grid = list(itertools.product(frac_box(-4, 4), repeat=n))
        down = {lam: strong_down_set(lam) for lam in grid}
        rng = random.Random(99)
        for lam in rng.sample(grid, 60):  # BFS oracle vs down-set indicator
            for mu in rng.sample(grid, 8):
                assert oracle_verma_mult_small(lam, mu) == (
                    1 if mu in down[lam] else 0
                )
        for lam in grid:
            hits = down[lam]
            for mu in grid:
                assert verma_simple_mult(lam, mu) == (1 if mu in hits else 0), (
                    lam,
                    mu,
                )
        pair_total += len(grid) ** 2

    grid3 = list(itertools.product(frac_box(-4, 4), repeat=3))
    par_pairs = 0
    for mu in (m for m in grid3 if is_p_dominant(m, (2, 1))):
        for lam in grid3:
            assert parabolic_verma_simple_mult(mu, lam, (2, 1)) >= 0, (mu, lam)
            par_pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"multiplicity sweep took {elapsed:.2f}s"
    return (
        f"strong-linkage indicator matched on {pair_total} pairs and "
        f"{par_pairs} parabolic values non-negative ({elapsed:.2f}s < 10s)"
    )


# --- criterion 7: translation-functor consistency --------------------------------


@criterion(7)
def test_criterion_07_theta_consistency():
    rng = random.Random(20260817)
    pool = [Fraction(k, 2) for k in range(-9, 10)]
    nonzero = 0
    for _ in range(200):
        lam = tuple(rng.choice(pool) for _ in range(3))
        if rng.random() < 0.5:  # bias half the draws onto active indices
            a = rng.choice(lam) - rng.choice((0, 2))
        else:
            a = rng.choice(pool)
        via_nabla_rule = theta_char(a, nabla(lam))
        expanded = reference.borel_expansion(reference.terms(via_nabla_rule))
        expansion = reference.borel_expansion({(NABLA, B3, lam): 1})
        (via_delta_rule,) = reference.theta_borel([a], expansion)
        assert expanded == via_delta_rule, (lam, a)
        if not via_nabla_rule.is_zero():
            nonzero += 1
    assert nonzero >= 50, f"only {nonzero} draws produced nonzero characters"
    return (
        "Delta-rule and costandard-rule translation agree on 200 random "
        f"(weight, a) pairs at n=3 ({nonzero} nonzero instances)"
    )


# --- criterion 8: the two forms of the edge hypotheses ----------------------------


@criterion(8)
def test_criterion_08_edge_predicate_equivalence():
    box = frac_box(-3, 3)
    checked = 0
    for n, p in [(3, B3), (3, (2, 1)), (4, B4), (4, (2, 2))]:
        for lam in itertools.product(box, repeat=n):
            if not is_p_dominant(lam, p):
                continue
            checked += 1
            for q in range(1, n + 1):
                assert thm34_nabla_edge(lam, q, p) == thmA_nabla_form(lam, q, p), (
                    lam,
                    q,
                    p,
                )
            for i in range(1, n):
                assert thm34_delta_edge(lam, i, p) == thmA_delta_form(lam, i, p), (
                    lam,
                    i,
                    p,
                )
    return (
        "both formulations of the costandard- and standard-edge predicates "
        f"agree on {checked} p-dominant integral weights across four (n, p) cases"
    )


# --- criterion 9: tilting = costandard characterization ---------------------------


@criterion(9)
def test_criterion_09_tilting_equals_costandard():
    box = frac_box(-3, 3)
    eq_count = 0
    for lam in itertools.product(box, repeat=3):
        expected = reference.is_antidominant(lam) and reference.is_p_weakly_typical(lam, B3)
        assert tilting_equals_nabla(lam) == expected, lam
        eq_count += expected
    for lam in (W(0, "1/2", 1), W(1, "1/2", 0), W("1/2", 0, "-3/2"), W(2, "5/2", "1/2")):
        expected = reference.is_antidominant(lam) and reference.is_p_weakly_typical(lam, B3)
        assert tilting_equals_nabla(lam) == expected, lam

    orbit_count = 0
    for lam in itertools.product(box, repeat=3):
        if not is_dominant(lam):
            continue
        orbit_count += 1
        orbit = set(itertools.permutations(lam))
        assert weakly_typical_tilting(lam) == char_sum(nabla(mu) for mu in orbit), lam
    return (
        "single-costandard characterization holds on the 7^3 grid "
        f"({eq_count} positives) and all {orbit_count} dominant integral "
        "weights decompose as their distinct-orbit costandard sum"
    )


# --- criterion 10: non-integral rows derived by translation -----------------------


@criterion(10)
def test_criterion_10_nonintegral_family_derivation():
    for c in (Fraction(1, 2), Fraction(3, 2)):
        source = weakly_typical_tilting(W(-1, 1, c))
        derived = theta_char(-1, source)
        expected = nabla(W(0, 1, c)) + nabla(W(-1, 0, c))
        assert derived == expected, c
        assert derived == lookup_tilting_pe3(W(0, 1, c)), c
    return (
        "translating the weakly-typical source reproduces the stored "
        "two-term rows at c=1/2 and c=3/2 exactly"
    )
