"""pericat from the definitions, slow and plain: one oracle per primitive
for the tests to compare the engine with, sharing none of its shortcuts.

Weights are tuples of ints and Fractions, rho-shifted as in pericat; a
character is a dict {(kind, p, weight): nonzero coefficient}, and `terms`
reads one off a FormalChar.  From pericat it takes only `weyl.kl_polynomial`,
which test_weyl checks against its own recursion, and `pe3.tables` (the rows,
their validators and errors).  It holds no assert, which pytest would not
rewrite here and python -O strips: every check raises.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from pericat.pe3 import tables
from pericat.weyl import kl_polynomial

DELTA, NABLA = "delta", "nabla"


# --- weights -------------------------------------------------------------------


def exact(c):  # an int when integral, else a Fraction
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


def fmt(lam) -> str:  # as pericat prints a weight, e.g. '0,1/2,-2'
    return ",".join(map(str, lam))


def is_integer(x) -> bool:
    return x.denominator == 1


def negate(lam) -> tuple:
    return tuple(-c for c in lam)


def _blocks(p) -> list:  # the index ranges of the Levi blocks of p
    starts = list(itertools.accumulate((0, *p)))
    return [range(a, b) for a, b in zip(starts, starts[1:])]


@lru_cache(maxsize=None)
def levi_pairs(p: tuple, n: int) -> tuple:
    """The pairs i < j inside one Levi block of p, a composition of n."""
    if sum(p) != n:
        raise ValueError(f"composition {p} does not sum to n={n}")
    return tuple(pair for block in _blocks(p) for pair in itertools.combinations(block, 2))


def is_p_dominant(lam, p) -> bool:
    """lam in Sigma_p^+: <lam, e_i - e_j> is a positive integer on every Levi pair."""
    return all((d := lam[i] - lam[j]) > 0 and is_integer(d) for i, j in levi_pairs(p, len(lam)))


def require_p_dominant(lam, p) -> None:
    if not is_p_dominant(lam, p):
        raise ValueError(f"{fmt(lam)} is not in Sigma_p^+ for p={p}")


def is_dominant(lam) -> bool:
    """No pairing with a positive even root e_i - e_j lies in Z_{<0}."""
    return not any(
        lam[i] < lam[j] and is_integer(lam[i] - lam[j])
        for i, j in itertools.combinations(range(len(lam)), 2)
    )


def is_antidominant(lam) -> bool:  # no pairing with a positive even root in Z_{>0}
    return is_dominant(negate(lam))


def is_g0_weakly_typical(lam) -> bool:
    """The product over positive even roots of (<lam, beta> - 1) is nonzero."""
    return all(lam[i] - lam[j] != 1 for i, j in itertools.combinations(range(len(lam)), 2))


def is_p_weakly_typical(lam, p) -> bool:
    """Levi roots contribute (<lam, beta> - 1), the other positive even roots
    (<lam, gamma> + 1); lam is p-weakly-typical when the product is nonzero."""
    levi = set(levi_pairs(p, len(lam)))
    return all(
        lam[i] - lam[j] != (1 if (i, j) in levi else -1)
        for i, j in itertools.combinations(range(len(lam)), 2)
    )


@lru_cache(maxsize=None)
def _levi_elements(p: tuple) -> tuple:
    """(w, sign of w) over the Levi Weyl group of p, w as the order in which
    it reads the positions, a permutation within each block."""
    out = []
    for parts in itertools.product(*map(itertools.permutations, _blocks(p))):
        w = [i for part in parts for i in part]
        inversions = sum(1 for a, b in itertools.combinations(w, 2) if a > b)
        out.append((tuple(w), (-1) ** inversions))
    return tuple(out)


def levi_orbit(lam, p) -> list:
    """(w lam, sign of w) over the Levi Weyl group of p."""
    return [(tuple(lam[i] for i in w), sign) for w, sign in _levi_elements(tuple(p))]


def neg_w0p(lam, p) -> tuple:
    """-w_0^p(lam): each Levi block reversed, then negated."""
    return negate(lam[i] for block in _blocks(p) for i in reversed(block))


# --- strong linkage and blocks ---------------------------------------------------


@lru_cache(maxsize=None)
def _closure(lam, sign: int) -> frozenset:
    seen, frontier = {lam}, [lam]
    while frontier:
        nu = frontier.pop()
        for i, j in itertools.combinations(range(len(nu)), 2):
            d = (nu[i] - nu[j]) * sign
            if d > 0 and is_integer(d):
                mu = nu[:i] + (nu[j],) + nu[i + 1 : j] + (nu[i],) + nu[j + 1 :]
                if mu not in seen:
                    seen.add(mu)
                    frontier.append(mu)
    return frozenset(seen)


def down_set(lam) -> frozenset:
    """The mu strongly linked to lam: lam and the weights reached by steps
    nu -> s_beta nu, beta = e_i - e_j (i < j), <nu, beta> in Z_{>0}."""
    return _closure(tuple(lam), 1)


def up_set(mu) -> frozenset:
    """The lam with mu strongly linked to lam: those steps run backwards."""
    return _closure(tuple(mu), -1)


def strongly_linked(mu, lam) -> bool:
    return mu in down_set(lam)


@lru_cache(maxsize=None)
def _classes(lam: tuple) -> tuple:
    """(c - floor(c), positions) per integrality class of lam, in
    first-occurrence order."""
    classes: dict = {}
    for i, c in enumerate(lam):
        classes.setdefault(c - math.floor(c), []).append(i)
    return tuple((key, tuple(pos)) for key, pos in classes.items())


def _class_records(lam) -> list:  # (key, positions, count of odd offsets from the key)
    return [
        (key, pos, sum((lam[i] - key).numerator % 2 for i in pos))
        for key, pos in _classes(tuple(lam))
    ]


def block_label(lam) -> tuple:
    """(fractional part, size, odd count) per integrality class, in
    first-occurrence order."""
    return tuple((key, len(pos), odd) for key, pos, odd in _class_records(lam))


def canonical_representative(lam) -> tuple:
    """Each class's positions refilled in order: one key + 1 per odd offset,
    then the key."""
    out = [0] * len(lam)
    for key, pos, odd in _class_records(lam):
        for rank, i in enumerate(pos):
            out[i] = key + 1 if rank < odd else key
    return tuple(out)


# --- gl(n) multiplicities --------------------------------------------------------


def w0_coset_rep(x) -> tuple:
    """w0 w for w the longest permutation carrying sorted(x) to x under the
    place action, (w.nu)_{w(i)} = nu_i: the equal entries of sorted(x) go to
    their positions in x in decreasing order, so every pair of them is an
    inversion."""
    positions: dict = {}
    for j, v in enumerate(x):
        positions.setdefault(v, []).append(j)
    w = [j for v in sorted(positions) for j in reversed(positions[v])]
    return tuple(len(x) - 1 - j for j in w)


@lru_cache(maxsize=None)
def _kl_value(x: tuple, y: tuple) -> int:
    return sum(kl_polynomial(w0_coset_rep(x), w0_coset_rep(y)))


def verma_mult(lam, mu) -> int:
    """[M_lam : L_mu] for gl(n): 0 unless mu rearranges lam within each
    integrality class of positions; then the product over those classes of
    P_{w0 x, w0 y}(1), x and y the longest permutations carrying the class's
    sorted entries to lam's and to mu's."""
    if len(lam) != len(mu):
        return 0
    total = 1
    for _, pos in _classes(tuple(mu)):
        if not all(is_integer(lam[i] - mu[i]) for i in pos):
            return 0
        # entries of one class differ by integers: they compare as their floors
        x, y = [math.floor(lam[i]) for i in pos], [math.floor(mu[i]) for i in pos]
        if sorted(x) != sorted(y):
            return 0
        rank = {v: r for r, v in enumerate(sorted(set(x)))}
        total *= _kl_value(tuple(map(rank.get, x)), tuple(map(rank.get, y)))
    return total


def parabolic_mult(mu, lam, p) -> int:
    """[M^p_mu : L_lam] for mu in Sigma_p^+: M^p_mu has the character of the
    alternating sum of the Vermas M_{w mu} over the Levi Weyl group."""
    require_p_dominant(mu, p)
    return sum(sign * verma_mult(nu, lam) for nu, sign in levi_orbit(mu, p))


# --- characters ------------------------------------------------------------------


def terms(chi) -> dict:
    """A FormalChar as a reference character."""
    return {(sym.kind, sym.parabolic, lam): c for (sym, lam), c in chi.terms.items()}


def _add(out: dict, key, c: int) -> None:
    """out[key] += c, dropping the key at 0."""
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def _basis(chi: dict) -> tuple:
    """(kind, p) of a nonzero character of one basis."""
    bases = {key[:2] for key in chi}
    if len(bases) != 1:
        raise ValueError(f"expected one basis, found {sorted(bases)}")
    return next(iter(bases))


@lru_cache(maxsize=None)
def _borel_terms(kind: str, p: tuple, lam: tuple) -> tuple:
    """The Delta(borel) terms of kind^p_lam as (weight, coefficient, degree
    drop from lam): a parabolic (co)standard is the alternating Levi-orbit
    sum of Borel ones, and ch Nabla_nu is the sum over kappa in {0,2}^n of
    ch Delta_{nu - kappa}, which lies sum(kappa) below nu."""
    if kind not in (DELTA, NABLA):
        raise ValueError(f"unknown basis kind {kind!r}")
    require_p_dominant(lam, p)
    # kappa in {0,2}^n in the order of itertools.product, with its sum
    drops = [sum(kappa) for kappa in itertools.product((0, 2), repeat=len(lam))]
    out: dict = {}
    for nu, sign in levi_orbit(lam, p):
        if kind == DELTA:
            _add(out, (nu, 0), sign)
            continue
        for mu, drop in zip(itertools.product(*((c, c - 2) for c in nu)), drops):
            _add(out, (mu, drop), sign)
    return tuple((mu, c, drop) for (mu, drop), c in out.items())


def borel_expansion(chi: dict) -> dict:
    """chi, of Delta(p) and Nabla(p) terms, in the Borel standard basis."""
    out: dict = {}
    for (kind, p, lam), c in chi.items():
        b = (1,) * len(lam)
        for mu, k, _ in _borel_terms(kind, p, lam):
            _add(out, (DELTA, b, mu), c * k)
    return out


def _delta_part(expansion: dict, p: tuple) -> dict:
    """The Delta(p) coordinates of a character given by its Borel expansion:
    its p-dominant coefficients, since w lam is not p-dominant for w != 1
    in W_p."""
    return {(DELTA, p, mu): c for (_, _, mu), c in expansion.items() if is_p_dominant(mu, p)}


def delta_form(chi: dict) -> dict:
    if not chi:
        return {}
    _, p = _basis(chi)
    return _delta_part(borel_expansion(chi), p)


@lru_cache(maxsize=None)
def _nabla_rows(p: tuple, x: tuple) -> tuple:
    """The Delta(p) form of Nabla^p_x as (weight, coefficient, degree drop)."""
    return tuple(term for term in _borel_terms(NABLA, p, x) if is_p_dominant(term[0], p))


class NoFiniteSum(Exception):
    """A Delta(p)-basis character is no finite Nabla(p) sum."""


def nabla_form(chi: dict) -> dict:
    """chi, a Delta(p)-basis character, in the Nabla(p) basis, greedily from
    the top degree: each x of the top level is collected with its coefficient
    c, and c times the Delta(p) form of Nabla^p_x subtracted (only kappa = 0
    keeps the degree, so that clears x alone).  Nabla^p_x has the Delta(p)
    term x - 2(1,..,1), which no other Nabla term of its degree meets, so the
    lowest Nabla terms of a finite answer lie 2n above the lowest degree of
    chi: a leader below that floor raises NoFiniteSum."""
    if not chi:
        return {}
    kind, p = _basis(chi)
    if kind != DELTA:
        raise ValueError(f"expected a Delta-basis character, got {kind!r}")
    levels: dict = {}
    for (_, _, mu), c in chi.items():
        levels.setdefault(sum(mu), {})[mu] = c
    floor = min(levels) + 2 * sum(p)
    out = {}
    while levels:
        top = max(levels)
        level = levels[top]
        if level and top < floor:
            raise NoFiniteSum(f"{sum(map(len, levels.values()))} terms left")
        for x in list(level):
            c = level.get(x, 0)
            if c:
                out[(NABLA, p, x)] = c
                for mu, k, drop in _nabla_rows(p, x):
                    _add(levels.setdefault(top - drop, {}), mu, -c * k)
        if level:
            raise ValueError(f"the greedy left {fmt(next(iter(level)))} at its own level")
        del levels[top]
    return out


def theta_borel(alphabet, chi: dict) -> list:
    """[theta_a chi for a in alphabet], chi in the Borel standard basis:
    Delta_mu goes to the sum over mu_i = a of Delta_{mu + e_i} + Delta_{mu - e_i}."""
    outs = {exact(a): {} for a in alphabet}
    moves = {a: (out, a + 1, a - 1) for a, out in outs.items()}
    for (kind, b, mu), c in chi.items():
        for i, x in enumerate(mu):
            if x in moves:
                out, up, down = moves[x]
                for y in (up, down):
                    _add(out, (kind, b, mu[:i] + (y,) + mu[i + 1 :]), c)
    return [outs[exact(a)] for a in alphabet]


def theta(alphabet, chi: dict) -> list:
    """[theta_a chi for a in alphabet] in the basis of chi: `theta_borel` of
    the Borel expansion, in Delta(p) coordinates, and for a Nabla(p) basis
    read back by `nabla_form`."""
    if not chi:
        return [{} for _ in alphabet]
    kind, p = _basis(chi)
    images = [_delta_part(image, p) for image in theta_borel(alphabet, borel_expansion(chi))]
    return images if kind == DELTA else list(map(nabla_form, images))


def shift(chi: dict, k) -> dict:
    """chi tensored by the one-dimensional module of weight k*omega."""
    return {(kind, p, tuple(exact(c + k) for c in lam)): v for (kind, p, lam), v in chi.items()}


# --- tilting characters ------------------------------------------------------------


@lru_cache(maxsize=None)
def _tilting_terms(lam: tuple, p: tuple) -> tuple:
    eta = neg_w0p(lam, p)
    out = []
    for nu in up_set(eta):
        if is_p_dominant(nu, p):
            c = parabolic_mult(nu, eta, p)
            if c:
                out.append(((NABLA, p, neg_w0p(nu, p)), c))
    return tuple(out)


def weakly_typical_tilting(lam, p=None) -> dict:
    """ch T^p_lam for lam p-dominant and p-weakly-typical: the sum over mu of
    [M^p_{-w_0^p mu} : L_{-w_0^p lam}] ch Nabla^p_mu, where -w_0^p mu runs
    over the strong up-set of -w_0^p lam."""
    p = (1,) * len(lam) if p is None else tuple(p)
    require_p_dominant(lam, p)
    if not is_p_weakly_typical(lam, p):
        raise ValueError(f"{fmt(lam)} is not p-weakly-typical for p={p}")
    return dict(_tilting_terms(tuple(lam), p))


# --- the pe(3) tables ---------------------------------------------------------------


def row_instance(record: dict, params: dict) -> tuple:
    """(highest weight, character) of a stored row at params, read from its
    JSON record: each token of its patterns is a parameter's value or a
    number."""

    def read(pattern: str) -> tuple:
        return tuple(exact(params.get(t, t)) for t in map(str.strip, pattern.split(",")))

    out: dict = {}
    for pattern, coeff in record["terms"]:
        _add(out, (NABLA, tuple(record["parabolic"]), read(pattern)), coeff)
    return read(record["hw"]), out


def _solve(fam, lam):
    """(params in their domains, k) with lam = fam's hw(params) + k*omega, or None."""
    shifts = {c - t for t, c in zip(fam.hw, lam) if type(t) is not str}
    if len(fam.hw) != len(lam) or len(shifts) != 1:
        return None
    (k,) = shifts
    values: dict = {}
    for t, c in zip(fam.hw, lam):
        if type(t) is str and values.setdefault(t, c - k) != c - k:
            return None
    for name, spec in fam.params:
        if name not in values or not spec.admits(values[name]):
            return None
    return {name: values[name] for name, _ in fam.params}, k


def lookup(lam, p=None) -> dict:
    """T^p_lam at rank 3: the weakly typical tilting character, else the
    first row of p, in file order, solving lam = hw(params) + k*omega,
    shifted by k.  Every row is solved and every match validated on every
    call: NoTableEntry for none, TableIntegrityError for two that differ."""
    lam = tuple(map(exact, lam))
    p = (1, 1, 1) if p is None else tuple(p)
    require_p_dominant(lam, p)
    if is_p_weakly_typical(lam, p):
        return weakly_typical_tilting(lam, p)
    matches = []
    for fam in tables.load_families().values():
        solved = _solve(fam, lam) if fam.parabolic == p else None
        if solved is not None:
            params, k = solved
            matches.append((fam.id, shift(terms(fam.instantiate(params)), k)))
    if not matches:
        raise tables.NoTableEntry(f"no table entry for weight {fmt(lam)} with parabolic {p}")
    (first_id, first), *others = matches
    for fam_id, other in others:
        if other != first:
            raise tables.TableIntegrityError(
                f"families {first_id} and {fam_id} disagree at {fmt(lam)}"
            )
    return first


def _head(chi: dict) -> tuple:
    """The first top-degree mu in support-set order with no other top nu, -nu up-arrow -mu."""
    support = {mu for _, _, mu in chi}
    top = max(map(sum, support))
    tops = [mu for mu in support if sum(mu) == top]
    return next(
        mu for mu in tops
        if not any(nu != mu and strongly_linked(negate(nu), negate(mu)) for nu in tops)
    )


def decompose(chi: dict, p) -> dict:
    """A Nabla(p)-basis character as tilting characters of `lookup`, greedily
    from the top: {head: c} in the order taken.  Each step needs a positive
    coefficient c at the head, and chi - c T_head must have no negative
    coefficient."""
    p = tuple(p)
    parts, remainder = {}, dict(chi)
    while remainder:
        head = _head(remainder)
        c = remainder.get((NABLA, p, head), 0)
        if c <= 0:
            raise ValueError(f"head {fmt(head)} has non-positive coefficient {c}")
        for key, t in lookup(head, p).items():
            _add(remainder, key, -c * t)
        if any(v < 0 for v in remainder.values()):
            raise ValueError(f"subtracting {c} x T_{fmt(head)} went negative")
        parts[head] = parts.get(head, 0) + c
    return parts
