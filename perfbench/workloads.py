"""The four benchmark workloads: seeded input generation, the timed call
into pericat for one item, and the correctness oracle for one answer.

Items are plain JSON data (weights as comma-separated exact strings,
permutations as 0-based lists), generated here from the seed, so the
program receives only weights and permutations.  A workload is a module-
level ``Workload`` with four functions:

* ``generate(seed, round_index)`` -> list of items (deterministic);
* ``prepare(item)`` -> arguments for ``execute``, built through pericat's
  public constructors outside the timed phase;
* ``execute(args)`` -> the answer (this call is timed);
* ``check(args, answer)`` -> ``(status, detail)`` with status ``"ok"``,
  ``"refused"`` (a correct typed refusal) or ``"failed"``.

Every oracle takes a route independent of the path under test.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

# Strata cycled through by position in a round, so every round (and every
# seed) carries the same mix of cheap and expensive items.
MULT_STRATA = ((3, "int"), (3, "half"), (4, "int"), (4, "half"))
TILT_STRATA = (
    (3, (1, 1, 1), "int"),
    (3, (1, 1, 1), "half"),
    (3, (2, 1), "int"),
    (3, (2, 1), "half"),
    (4, (1, 1, 1, 1), "int"),
    (4, (2, 2), "half"),
)
VERIFY_SUITES = ("pe3", "appendix", "thmD", "props")

# pe3 is expected to fail exactly one row: the standard-flag bound that the
# stored tables refute (36 multiplicity-2 instances over 65 instantiations).
PE3_ROWS = 29
PE3_RED = ("delta-flag-bound", "checked=65", 36)

MULT_ROWS_PER_ROUND = 400
KL_PAIRS_PER_ROUND = ((5, 32), (6, 64))
KL_LENGTHS = {5: (4, 6, 8), 6: (6, 8, 10)}
KL_GAPS = {5: (2, 3), 6: (3, 5)}
TILT_WEIGHTS_PER_ROUND = 48
KL_IDENTITY_CHECKS = 2  # seeded pairs per S_n per round checked by R-inversion


class Workload(NamedTuple):
    name: str
    generate: Callable
    prepare: Callable
    execute: Callable
    check: Callable


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def fmt(lam) -> str:
    return ",".join(str(Fraction(c)) for c in lam)


def parse(text: str) -> tuple:
    from pericat.weights import weight

    return weight(*text.split(","))


def _coord(rng: random.Random, kind: str) -> Fraction:
    if kind == "half" and rng.random() < 0.5:
        return Fraction(2 * rng.randint(-3, 2) + 1, 2)
    return Fraction(rng.randint(-3, 3))


def bench_weakly_typical(lam, p) -> bool:
    """p-weak typicality from its definition (independent of
    ``pericat.weights.is_p_weakly_typical``): no Levi pair i<j in one block
    with lam_i - lam_j = 1, and no other pair with lam_i - lam_j = -1."""
    block = [b for b, size in enumerate(p) for _ in range(size)]
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            target = 1 if block[i] == block[j] else -1
            if lam[i] - lam[j] == target:
                return False
    return True


def bench_p_dominant(lam, p) -> bool:
    """lam_i - lam_j a positive integer for every Levi pair i < j."""
    start = 0
    for size in p:
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                d = Fraction(lam[i]) - Fraction(lam[j])
                if d.denominator != 1 or d <= 0:
                    return False
        start += size
    return True


# --- mult-grid ----------------------------------------------------------------


def mult_generate(seed: int, round_index: int) -> list:
    rng = rng_for("mult-grid", seed, round_index)
    items = []
    for k in range(MULT_ROWS_PER_ROUND):
        n, kind = MULT_STRATA[k % len(MULT_STRATA)]
        lam = tuple(_coord(rng, kind) for _ in range(n))
        orbit = sorted(set(itertools.permutations(lam)))
        mus = [fmt(mu) for mu in orbit]
        mus += [fmt(tuple(_coord(rng, kind) for _ in range(n))) for _ in orbit]
        p = (2, 1) if n == 3 else (2, 2)
        items.append(
            {"lam": fmt(lam), "mus": mus, "p": list(p) if bench_p_dominant(lam, p) else None}
        )
    return items


def mult_prepare(item: dict):
    p = tuple(item["p"]) if item["p"] else None
    return parse(item["lam"]), [parse(m) for m in item["mus"]], p


def mult_execute(args):
    from pericat.glmult import parabolic_verma_simple_mult, verma_simple_mult

    lam, mus, p = args
    verma = [verma_simple_mult(lam, mu) for mu in mus]
    parabolic = [parabolic_verma_simple_mult(lam, mu, p) for mu in mus] if p else []
    return verma, parabolic


def mult_check(args, answer):
    """BGG: [M_lam : L_mu] != 0 exactly when mu is strongly linked below
    lam; every value is 1 at n <= 3; parabolic values are >= 0 and vanish
    off the down-set."""
    from pericat.linkage import strong_down_set

    lam, mus, p = args
    verma, parabolic = answer
    if len(verma) != len(mus) or len(parabolic) != (len(mus) if p else 0):
        return "failed", "answer length mismatch"
    down = strong_down_set(lam)
    for mu, v in zip(mus, verma):
        if not isinstance(v, int) or v < 0 or (v != 0) != (mu in down):
            return "failed", f"[M_{fmt(lam)} : L_{fmt(mu)}] = {v!r}"
        if len(lam) <= 3 and v not in (0, 1):
            return "failed", f"[M_{fmt(lam)} : L_{fmt(mu)}] = {v} at n <= 3"
    for mu, v in zip(mus, parabolic):
        if not isinstance(v, int) or v < 0 or (v and mu not in down):
            return "failed", f"[M^p_{fmt(lam)} : L_{fmt(mu)}] = {v!r}"
    return "ok", ""


# --- kl-cold ------------------------------------------------------------------


def kl_generate(seed: int, round_index: int) -> list:
    """Bruhat-comparable pairs x < w.  Each pair's stratum fixes l(w) and
    l(w) - l(x); w is drawn among the permutations of that length and x by
    a walk down covering transpositions from w, so x < w by construction.
    Cycling through the strata keeps the cost of a round from depending on
    the luck of the draw."""
    rng = rng_for("kl-cold", seed, round_index)
    items = []
    for n, count in KL_PAIRS_PER_ROUND:
        strata = [(length, gap) for length in KL_LENGTHS[n] for gap in KL_GAPS[n]]
        checked = set(rng.sample(range(count), KL_IDENTITY_CHECKS))
        for k in range(count):
            length, gap = strata[k % len(strata)]
            w = rng.choice(_perms_by_length(n)[length])
            x = list(w)
            for _ in range(gap):
                x = _cover_down(x, rng)
            items.append({"x": x, "w": list(w), "identity": k in checked})
    return items


@functools.lru_cache(maxsize=None)
def _perms_by_length(n: int) -> dict:
    out: dict = {}
    for w in itertools.permutations(range(n)):
        out.setdefault(_inversions(w), []).append(w)
    return out


def _cover_down(x: list, rng: random.Random) -> list:
    """Swap a random inversion (i, j) with no value of x between x[j] and
    x[i] at positions strictly between i and j: the length drops by one."""
    n = len(x)
    covers = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if x[i] > x[j] and not any(x[j] < x[k] < x[i] for k in range(i + 1, j))
    ]
    i, j = rng.choice(covers)
    out = list(x)
    out[i], out[j] = out[j], out[i]
    return out


def kl_prepare(item: dict):
    return tuple(item["x"]), tuple(item["w"]), item["identity"]


def kl_execute(args):
    from pericat.weyl import kl_polynomial

    x, w, _ = args
    return kl_polynomial(x, w)


def _inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def _tableau_leq(x, w) -> bool:
    """Bruhat order by Ehresmann's rank-matrix criterion (independent of
    ``pericat.weyl.bruhat_leq``, which sorts prefixes)."""
    n = len(x)
    for i in range(1, n + 1):
        for j in range(n):
            if sum(1 for v in x[:i] if v >= j) > sum(1 for v in w[:i] if v >= j):
                return False
    return True


def kl_check(args, answer):
    """P_{x,w} has constant term 1, non-negative coefficients and degree at
    most (l(w)-l(x)-1)/2; on the flagged pairs, the R-polynomial inversion
    q^(l(w)-l(x)) P_{x,w}(1/q) = sum_{x<=z<=w} R_{x,z} P_{z,w} holds."""
    from pericat.weyl import all_perms, kl_polynomial, poly_add, poly_mul, r_polynomial

    x, w, identity = args
    poly = tuple(answer)
    gap = _inversions(w) - _inversions(x)
    if not _tableau_leq(x, w) or gap <= 0:
        return "failed", f"generated pair not comparable: {x} {w}"
    if not poly or poly[0] != 1 or any(c < 0 for c in poly):
        return "failed", f"P_{x},{w} = {poly}"
    if 2 * (len(poly) - 1) > gap - 1:
        return "failed", f"P_{x},{w} = {poly} breaks the degree bound"
    if identity:
        lhs = [0] * (gap + 1)
        for i, c in enumerate(poly):
            lhs[gap - i] = c
        while lhs and lhs[-1] == 0:
            lhs.pop()
        rhs = ()
        for z in all_perms(len(w)):
            if _tableau_leq(x, z) and _tableau_leq(z, w):
                p_zw = poly if z == x else kl_polynomial(z, w)
                rhs = poly_add(rhs, poly_mul(r_polynomial(x, z), p_zw))
        if tuple(lhs) != rhs:
            return "failed", f"R-inversion fails at {x} {w}: {lhs} != {rhs}"
    return "ok", ""


# --- tilting-sweep --------------------------------------------------------------


def tilt_generate(seed: int, round_index: int) -> list:
    rng = rng_for("tilting-sweep", seed, round_index)
    items = []
    for k in range(TILT_WEIGHTS_PER_ROUND):
        n, p, kind = TILT_STRATA[k % len(TILT_STRATA)]
        while True:
            lam = tuple(_coord(rng, kind) for _ in range(n))
            if not bench_p_dominant(lam, p):
                continue
            if n == 4 and not bench_weakly_typical(lam, p):
                continue
            break
        items.append({"lam": fmt(lam), "p": list(p)})
    return items


def tilt_prepare(item: dict):
    return parse(item["lam"]), tuple(item["p"])


def closure_alphabet(chi) -> list:
    """Every a for which theta_a can act on a support weight of chi."""
    values = set()
    for mu in chi.support():
        for c in mu:
            values.update((c, c - 2))
    return sorted(values)


class TiltAnswer(NamedTuple):
    chi: object
    delta_form: object
    round_trip: object
    thetas: tuple
    refusal: str


def tilt_execute(args):
    from pericat.characters import delta_sum_to_nabla_sum, nabla_sum_to_delta_sum, theta_char
    from pericat.pe3.tables import NoTableEntry, lookup_tilting_pe3
    from pericat.tilting import NotWeaklyTypical, weakly_typical_tilting

    lam, p = args
    try:
        chi = lookup_tilting_pe3(lam, p) if len(lam) == 3 else weakly_typical_tilting(lam, p)
    except (NoTableEntry, NotWeaklyTypical) as exc:
        return TiltAnswer(None, None, None, (), type(exc).__name__)
    delta_form = nabla_sum_to_delta_sum(chi)
    round_trip = delta_sum_to_nabla_sum(delta_form)
    thetas = tuple((a, theta_char(a, chi)) for a in closure_alphabet(chi))
    return TiltAnswer(chi, delta_form, round_trip, thetas, "")


def _levi_orbit(mu, p):
    """(w.mu, sign of w) over the Levi Weyl group of p."""
    blocks, start = [], 0
    for size in p:
        blocks.append(range(start, start + size))
        start += size
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        order = [i for image in images for i in image]
        sign = (-1) ** _inversions(order)
        yield tuple(mu[i] for i in order), sign


def borel_delta_expansion(chi) -> dict:
    """A Delta(p)- or Nabla(p)-basis character as a map from weight to
    coefficient in the Borel Delta basis: parabolic (co)standards expand as
    alternating Levi-orbit sums, and Nabla_mu = sum over kappa in {0,2}^n of
    Delta_{mu - kappa}.  Written here from the definitions, independent of
    pericat's converters."""
    out: dict = {}
    for (sym, mu), c in chi.terms.items():
        for nu, sign in _levi_orbit(mu, sym.parabolic):
            shifts = itertools.product((0, 2), repeat=len(nu)) if sym.kind == "nabla" else [(0,) * len(nu)]
            for kappa in shifts:
                key = tuple(a - k for a, k in zip(nu, kappa))
                out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in out.items() if v}


def theta_delta_rule(a, expansion: dict) -> dict:
    """theta_a on Borel standards: Delta_mu goes to the sum over mu_i = a of
    Delta_{mu + e_i} + Delta_{mu - e_i}."""
    out: dict = {}
    for mu, c in expansion.items():
        for i, x in enumerate(mu):
            if x == a:
                for step in (1, -1):
                    key = mu[:i] + (x + step,) + mu[i + 1 :]
                    out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def tilt_check(args, answer):
    """A refusal is correct only for a weight outside the weakly typical
    region.  An answer has coefficient 1 at lam, survives the Delta->Nabla
    round trip, has a Delta-form with the same Borel expansion, and each
    theta image, expanded, equals the Delta-rule applied to the expansion of
    the tilting character (the criterion-7 oracle)."""
    from pericat.characters import NABLA

    lam, p = args
    if answer.refusal:
        if answer.refusal == "NoTableEntry" and not bench_weakly_typical(lam, p):
            return "refused", answer.refusal
        return "failed", f"unexpected {answer.refusal} at {fmt(lam)} p={p}"
    chi = answer.chi
    if chi.coeff(NABLA, lam, p) != 1:
        return "failed", f"coefficient at {fmt(lam)} is {chi.coeff(NABLA, lam, p)}"
    if answer.round_trip != chi:
        return "failed", f"Delta->Nabla round trip changed T_{fmt(lam)}"
    expansion = borel_delta_expansion(chi)
    if borel_delta_expansion(answer.delta_form) != expansion:
        return "failed", f"Delta-form of T_{fmt(lam)} is a different character"
    for a, image in answer.thetas:
        if theta_delta_rule(a, expansion) != borel_delta_expansion(image):
            return "failed", f"theta_{a} rules disagree on T_{fmt(lam)}"
    return "ok", ""


# --- verify-cli -------------------------------------------------------------------


def verify_generate(seed: int, round_index: int) -> list:
    """The suites run at default bounds, so the seed only rotates their
    order within a round."""
    order = list(VERIFY_SUITES)
    rng_for("verify-cli", seed, round_index).shuffle(order)
    return [{"suite": s} for s in order]


def verify_prepare(item: dict):
    return ["verify", item["suite"], "--format", "json"]


def verify_execute(argv):
    from pericat import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_check(argv, answer):
    """appendix, thmD and props pass every row with exit code 0; pe3 exits
    1 with all 29 rows passing except delta-flag-bound, which reports
    exactly 36 failures over checked=65."""
    code, text = answer
    suite = argv[1]
    try:
        report = json.loads(text)
        rows = [(r["name"], r["ok"], r["detail"], len(r["failures"])) for r in report["results"]]
    except (ValueError, KeyError, TypeError) as exc:
        return "failed", f"{suite}: unreadable report: {exc}"
    red = [(name, detail, nfail) for name, ok, detail, nfail in rows if not ok]
    if suite == "pe3":
        if code != 1 or len(rows) != PE3_ROWS or red != [PE3_RED]:
            return "failed", f"pe3: exit {code}, {len(rows)} rows, red rows {red}"
        return "ok", ""
    if code != 0 or red or not rows:
        return "failed", f"{suite}: exit {code}, red rows {red}"
    return "ok", ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mult-grid", mult_generate, mult_prepare, mult_execute, mult_check),
        Workload("kl-cold", kl_generate, kl_prepare, kl_execute, kl_check),
        Workload("tilting-sweep", tilt_generate, tilt_prepare, tilt_execute, tilt_check),
        Workload("verify-cli", verify_generate, verify_prepare, verify_execute, verify_check),
    )
}
