"""Certification runs once per object it certifies, and no answer changes.

A character is guarded once, where it is built from weights, the pe(3) table
lookup serves validated instances kept per fixture file, and `verify pe3`'s
decompositions look a head up once per class mod omega.  These tests compare
each against the reference, which re-certifies on every call: its table
lookup instantiates every match, and its guard tests every term.
"""

import json
from fractions import Fraction

import pytest

import reference
from conftest import B3, W, corrupt_row, fresh, sweep_items, without_row
from pericat import glmult
from pericat.characters import (
    DELTA,
    NABLA,
    FormalChar,
    delta,
    delta_sum_to_nabla_sum,
    nabla,
    nabla_sum_to_delta_sum,
    shift_by_omega,
    theta_char,
)
from pericat.pe3 import tables, verify
from pericat.pe3.tables import (
    NoTableEntry,
    TableIntegrityError,
    load_families,
    lookup_tilting_pe3,
)
from pericat.pe3.verify import _instances, decompose_into_tiltings, verify_tables
from pericat.weights import format_weight, is_p_weakly_typical, require_p_dominant, shift

P21 = (2, 1)


def _outcome(call, *args):
    """("value", the answer as a reference character), or the error's type and text."""
    try:
        answer = call(*args)
    except Exception as exc:  # the exception type and text are the answer
        return type(exc), str(exc)
    return "value", reference.terms(answer) if isinstance(answer, FormalChar) else answer


def _verify_heads(bound):
    """Every (head, parabolic) that verify_tables(bound) peels or looks up."""
    heads, peeling = set(), []
    head, lookup, decompose = verify._head, verify.lookup_tilting_pe3, verify.decompose_into_tiltings

    def record_decompose(chi, p, memo):
        peeling[:] = [tuple(p)]
        return decompose(chi, p, memo)

    def record_head(tops):
        i = head(tops)
        heads.add((tops[i], peeling[0]))
        return i

    def record_lookup(lam, p=None):
        heads.add((lam, p))
        return lookup(lam, p)

    saved = head, lookup, decompose
    verify._head, verify.lookup_tilting_pe3, verify.decompose_into_tiltings = (
        record_head, record_lookup, record_decompose)
    try:
        verify_tables(bound)
    finally:
        verify._head, verify.lookup_tilting_pe3, verify.decompose_into_tiltings = saved
    return sorted(heads, key=repr)


@pytest.fixture(scope="module")
def verify_heads():
    return _verify_heads(12)


def test_lookup_matches_reference_on_verify_heads(verify_heads):
    assert len(verify_heads) > 300
    for lam, p in verify_heads:
        want = _outcome(reference.lookup, lam, p)
        for _ in range(2):  # the second call reads kept instances
            assert _outcome(lookup_tilting_pe3, lam, p) == want, (lam, p)


def test_lookup_matches_reference_on_sweep_items():
    items = [(lam, p) for lam, p in sweep_items() if len(lam) == 3]
    assert len(items) == 640
    outcomes = {"value": 0}
    for lam, p in items:
        got = _outcome(lookup_tilting_pe3, lam, p)
        assert got == _outcome(reference.lookup, lam, p), (lam, p)
        outcomes[got[0]] = outcomes.get(got[0], 0) + 1
    assert outcomes["value"] > 500 and outcomes[NoTableEntry] > 10


_CORRUPTIONS = [
    ("5.4", "coefficient"),
    ("5.4", "no-highest-weight"),
    ("5.4", "unlinked"),
    ("5.4", "not-p-dominant"),
    ("5.4", "undeclared-token"),
    ("5.1", "widen-domain"),
    ("5.1", "unknown-kind"),
    ("5.1", "undeclared-token"),
    ("5.8-1", "coefficient"),
    ("5.8-1", "widen-domain"),
    ("5.2", "coefficient"),
]


@pytest.mark.parametrize("fam_id,mutation", _CORRUPTIONS, ids=[f"{f}-{m}" for f, m in _CORRUPTIONS])
def test_lookup_matches_reference_under_corruption(
    tmp_path, monkeypatch, verify_heads, fam_id, mutation
):
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path, fam_id, mutation)))
    raised = 0
    for lam, p in verify_heads:
        want = _outcome(reference.lookup, lam, p)
        for _ in range(2):  # a failing instance is never kept: it raises again
            assert _outcome(lookup_tilting_pe3, lam, p) == want, (lam, p)
        raised += want[0] is TableIntegrityError
    assert raised


_SHAPES = [
    {"id": "X1", "parabolic": [1, 1, 1], "hw": "a,b,c",
     "params": {name: {"kind": "int"} for name in "abc"}, "terms": [["a,b,c", 1]]},
    {"id": "X2", "parabolic": [1, 1, 1], "hw": "0,1,b",
     "params": {"b": {"kind": "int"}, "c": {"kind": "int"}}, "terms": [["0,1,b", 1]]},
    {"id": "X4", "parabolic": [1, 1, 1, 1], "hw": "0,1,2,3", "terms": [["0,1,2,3", 1]]},
    {"id": "X3", "parabolic": [1, 1, 1], "hw": "-1,0,d", "terms": [["-1,0,d", 1]]},
]


@pytest.mark.parametrize("with_x3", [False, True], ids=["without-X3", "with-X3"])
def test_lookup_skips_rows_the_solve_cannot_match(tmp_path, monkeypatch, verify_heads, with_x3):
    """X1 has no constant, X2 declares a parameter c that its pattern never
    names, and X4 is a row of another parabolic: none of them matches.  X3
    matches every weight whose second coordinate is its first plus one, and
    its token d, declared nowhere, makes each of those lookups name it."""
    path = tmp_path / "shapes.json"
    path.write_text(json.dumps({"families": _SHAPES if with_x3 else _SHAPES[:3]}))
    monkeypatch.setenv("PERICAT_FIXTURES", str(path))
    for lam in (W(0, 1, 2), W(1, 2, 7), W(0, 1, 5), W(-1, 0, 5), W(0, 1, -5)):
        want = (NoTableEntry, f"no table entry for weight {format_weight(lam)} with parabolic {B3}")
        if with_x3:
            want = (TableIntegrityError,
                    "family X3: token 'd' is neither a number nor a declared parameter")
        assert _outcome(reference.lookup, lam) == _outcome(lookup_tilting_pe3, lam) == want
    for lam, p in verify_heads:
        assert _outcome(lookup_tilting_pe3, lam, p) == _outcome(reference.lookup, lam, p), (lam, p)


def test_lookup_checks_a_repeated_token(tmp_path, monkeypatch, verify_heads):
    """A row whose pattern names a parameter twice matches only weights whose
    coordinates there agree: (-1, 0, 0) and (0, 1, 1) fit b,b,0 at its 0 alone."""
    path = tmp_path / "repeated-token.json"
    path.write_text('{"families": [{"id": "X", "parabolic": [1, 1, 1], "hw": "b,b,0", '
                    '"params": {"b": {"kind": "int"}}, "terms": [["b,b,0", 1]]}]}')
    monkeypatch.setenv("PERICAT_FIXTURES", str(path))
    for lam in (W(-1, 0, 0), W(0, 1, 1)):
        want = (NoTableEntry, f"no table entry for weight {format_weight(lam)} with parabolic {B3}")
        assert _outcome(reference.lookup, lam) == _outcome(lookup_tilting_pe3, lam) == want
    hits = 0  # heads the row answers: the engine takes the weakly typical ones
    for lam, p in verify_heads:
        want = _outcome(reference.lookup, lam, p)
        assert _outcome(lookup_tilting_pe3, lam, p) == want, (lam, p)
        hits += want[0] == "value" and not reference.is_p_weakly_typical(lam, p)
    assert hits


def _table_heads():
    """The highest weight of every stored instance at bound 4."""
    return [
        (fam.highest_weight(params), fam.parabolic)
        for fam in load_families().values()
        for params in _instances(fam, 4)
    ]


def _engine_heads():
    box = [W(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]
    box += [W(a, "1/2", c) for a in range(-2, 3) for c in range(-2, 3)]
    return [
        (lam, p)
        for p in (B3, P21)
        for lam in box
        if is_p_weakly_typical(lam, p) and _outcome(require_p_dominant, lam, p)[0] == "value"
    ]


@pytest.mark.parametrize("k", [1, -2, Fraction(1, 2), Fraction(-3, 2)], ids=str)
def test_lookup_commutes_with_omega(k):
    table, engine = _table_heads(), _engine_heads()
    assert len(table) == 65 and len(engine) > 50
    for lam, p in table + engine:
        assert lookup_tilting_pe3(shift(lam, k), p) == shift_by_omega(lookup_tilting_pe3(lam, p), k)
    miss = shift(W(3, 1, 2), k)
    message = f"no table entry for weight {format_weight(miss)} with parabolic {P21}"
    with pytest.raises(NoTableEntry) as exc:
        lookup_tilting_pe3(miss, P21)
    assert str(exc.value) == message


@pytest.mark.parametrize("k", [0, 3, Fraction(1, 2)], ids=str)
def test_decompose_reports_the_exact_head_of_a_failed_class(k, monkeypatch):
    calls = []

    def counted(lam, p=None):
        calls.append(lam)
        return lookup_tilting_pe3(lam, p)

    monkeypatch.setattr(verify, "lookup_tilting_pe3", counted)
    head, base = shift(W(3, 1, 2), k), W(0, -2, -1)
    memo = {}
    for looked_up in ([base, head], [head]):  # a stored miss costs one lookup
        calls.clear()
        with pytest.raises(NoTableEntry) as exc:
            decompose_into_tiltings(nabla(head, P21), P21, memo)
        assert str(exc.value) == (
            f"no table entry for weight {format_weight(head)} with parabolic {P21}"
        )
        assert calls == looked_up
    assert memo == {(base, P21): None}  # the failed class is stored as a miss


def test_decompose_shares_one_lookup_per_omega_class(monkeypatch):
    calls = []

    def counted(lam, p=None):
        calls.append(lam)
        return lookup_tilting_pe3(lam, p)

    monkeypatch.setattr(verify, "lookup_tilting_pe3", counted)
    memo = {}
    for lam in (W(0, 1, -1), W(2, 3, 1), W("1/2", "3/2", "-1/2"), W(2, 3, 1)):
        tilting = lookup_tilting_pe3(lam)
        assert decompose_into_tiltings(tilting, B3, memo) == {lam: 1}
        assert memo[lam, B3] == tilting
    assert calls == [W(0, 1, -1)]  # the class, once; repeats read the exact entry


def _fewer_terms(tmp_path, fam_id, name):
    """The packaged file with the last constituent of one row dropped: a
    different, still valid row."""
    doc = json.loads(tables._read_fixture("<packaged>"))
    for rec in doc["families"]:
        if rec["id"] == fam_id:
            del rec["terms"][-1]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_switching_fixtures_serves_each_files_rows(tmp_path, monkeypatch):
    packaged = lookup_tilting_pe3(W(0, 1, -1))
    assert len(packaged.terms) == 6
    files = {
        "fewer": _fewer_terms(tmp_path, "5.4", "fewer.json"),
        "without": without_row(tmp_path, "5.4", "without.json"),
        "corrupt": corrupt_row(tmp_path, "5.4", "coefficient"),
        "packaged": None,
    }
    want = {
        "fewer": ("value", len(packaged.terms) - 1),
        "without": (NoTableEntry, "no table entry for weight 2,3,1 with parabolic (1, 1, 1)"),
        "corrupt": (
            TableIntegrityError,
            "family 5.4: coefficient 2 at 0,-1,1; all stored coefficients are 1",
        ),
        "packaged": ("value", len(packaged.terms)),
    }
    order = ["fewer", "packaged", "without", "corrupt", "fewer", "corrupt", "packaged", "without"]
    for name in order + order[::-1]:
        if files[name] is None:
            monkeypatch.delenv("PERICAT_FIXTURES", raising=False)
        else:
            monkeypatch.setenv("PERICAT_FIXTURES", str(files[name]))
        got = _outcome(lookup_tilting_pe3, W(2, 3, 1))
        if got[0] == "value":
            got = ("value", len(got[1]))
        assert got == want[name], name


def test_kept_instances_are_keyed_by_parameter_name():
    """Row 5.5-1 takes b an int >= 2 and c non-integral: its parameters
    given in the other order, with the values swapped, are another instance,
    and one that violates b's domain."""
    fixture = tables._fixture()
    fam = fixture.families["5.5-1"]
    half = Fraction(1, 2)
    assert fixture.instance(fam, {"b": 3, "c": half}) == fam.instantiate({"b": 3, "c": half})
    for _ in range(2):
        with pytest.raises(ValueError, match=r"parameter b=1/2 violates"):
            fixture.instance(fam, {"c": 3, "b": half})
    assert fixture.instance(fam, {"c": half, "b": 3}) == nabla(W(0, 3, half))


def test_lookup_reads_an_integral_fraction_as_its_int():
    got = lookup_tilting_pe3((Fraction(0), Fraction(2, 2), Fraction(-1)))
    assert got == lookup_tilting_pe3(W(0, 1, -1))
    assert {type(c) for _, mu in got.terms for c in mu} == {int}
    with pytest.raises(TypeError, match="weight coordinate '1' is not exact"):
        lookup_tilting_pe3((0, "1", -1))


def test_lookups_share_a_read_only_character():
    """A lookup at shift 0 returns the kept instance: a write into it raises,
    and its rows stay across lookups."""
    first = lookup_tilting_pe3(W(0, 1, -1))
    key = next(iter(first.terms))
    with pytest.raises(TypeError):
        first.terms[key] = 0
    with pytest.raises(TypeError):
        del first.terms[key]
    assert len(lookup_tilting_pe3(W(0, 1, -1)).terms) == 6
    assert lookup_tilting_pe3(W(0, 1, -1)) is first
    nabla_sum_to_delta_sum(first)
    assert lookup_tilting_pe3(W(0, 1, -1)).rows is first.rows


# --- the character guard, once where a character is built ------------------------

_BUILDS = [
    ("nabla_sum", lambda rows, p: _char_sum(nabla, rows, p)),
    ("delta_sum", lambda rows, p: _char_sum(delta, rows, p)),
    ("nabla", lambda rows, p: FormalChar(NABLA, p, {W(*row): 1 for row in rows})),
    ("delta", lambda rows, p: FormalChar(DELTA, p, {W(*row): 1 for row in rows})),
]


def _ref_guard(rows, p):
    """The per-term guard: the first of the rows outside Sigma_p^+ raises."""
    for row in rows:
        reference.require_p_dominant(W(*row), p)


def _char_sum(make, rows, p):
    out = FormalChar()
    for row in rows:
        out = out + make(W(*row), p)
    return out


_OUTSIDE = [
    ([(0, 1, 2)], P21, "0,1,2 is not in Sigma_p^+ for p=(2, 1)"),
    ([(2, 1, 0), (1, 1, 0)], P21, "1,1,0 is not in Sigma_p^+ for p=(2, 1)"),
    ([("3/2", "1/2", 0), ("1/2", "3/2", 0)], P21, "1/2,3/2,0 is not in Sigma_p^+ for p=(2, 1)"),
    ([(1, "1/2", 0)], P21, "1,1/2,0 is not in Sigma_p^+ for p=(2, 1)"),
    ([(3, 1, 2, 0), (2, 3, 1, 0)], (2, 2), "2,3,1,0 is not in Sigma_p^+ for p=(2, 2)"),
]


@pytest.mark.parametrize("name,build", _BUILDS, ids=[b[0] for b in _BUILDS])
@pytest.mark.parametrize("rows,p,message", _OUTSIDE)
def test_construction_refuses_a_term_outside_sigma(name, build, rows, p, message):
    with pytest.raises(ValueError) as ref:
        _ref_guard(rows, p)
    assert str(ref.value) == message
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            build(rows, p)
        assert str(exc.value) == message


_WRONG_LENGTH = [
    ([(2, 1, 0), (2, 1)], B3),
    ([(2, 1), (2, 1, 0)], B3),
    ([(2, 1, 0, 5)], B3),
    ([(2, 1, 0), (3, 1)], P21),
    ([("1/2", 0), (2, 1, 0)], P21),
]


@pytest.mark.parametrize("name,build", _BUILDS, ids=[b[0] for b in _BUILDS])
@pytest.mark.parametrize("rows,p", _WRONG_LENGTH)
def test_construction_refuses_a_term_of_the_wrong_length(name, build, rows, p):
    with pytest.raises(ValueError) as ref:
        _ref_guard(rows, p)
    assert "does not sum to n=" in str(ref.value)
    with pytest.raises(ValueError) as exc:
        build(rows, p)
    assert str(exc.value) == str(ref.value)


def test_borel_operations_run_no_guard(monkeypatch):
    from pericat import characters

    calls = []
    monkeypatch.setattr(characters, "require_p_dominant", lambda *args: calls.append(args))
    chi = lookup_tilting_pe3(W(0, 1, -1))
    nabla_sum_to_delta_sum(chi)
    delta_sum_to_nabla_sum(nabla_sum_to_delta_sum(chi))
    theta_char(0, chi)
    chi21 = lookup_tilting_pe3(W(1, 0, 3), P21)
    nabla_sum_to_delta_sum(chi21)
    theta_char(1, chi21)
    assert calls == []


def test_multi_class_rows_skip_the_parabolic_guard(monkeypatch):
    calls = []
    guard = glmult.require_p_dominant
    monkeypatch.setattr(
        glmult, "require_p_dominant", lambda *args: (calls.append(args), guard(*args))[1]
    )
    row = W("5/2", "1/2", 2, 0)
    for mu in ((Fraction(1, 2), Fraction(5, 2), 0, 2), (0, 2, Fraction(5, 2), Fraction(1, 2)), row):
        glmult.parabolic_verma_simple_mult(row, mu, (2, 2))
    assert calls == []
    with pytest.raises(ValueError, match=r"5/2,1/2,2,0 is not in Sigma_p\^\+ for p=\(1, 3\)"):
        glmult.parabolic_verma_simple_mult(row, row, (1, 3))
    assert len(calls) == 1


def test_held_character_form_refuses_changes_in_place():
    """A character's rows are kept for good: its terms refuse every write,
    so it answers as a fresh copy does."""
    chi = lookup_tilting_pe3(W(1, 0, 3), P21)
    (sym, lam), _ = next(iter(chi.terms.items()))

    def same_as_fresh_copy():
        for op in (nabla_sum_to_delta_sum, lambda c: theta_char(3, c)):
            want = _outcome(op, fresh(chi))
            assert _outcome(op, chi) == _outcome(op, chi) == want

    same_as_fresh_copy()
    rows, before = chi.rows, chi.terms.copy()
    for key, c in (((sym, lam), 5), ((sym, tuple(Fraction(v) for v in lam)), 1), ((sym, W(0, 1, 2)), 1)):
        with pytest.raises(TypeError):
            chi.terms[key] = c
    with pytest.raises(TypeError):
        del chi.terms[sym, lam]
    assert chi.terms == before and chi.rows is rows
    same_as_fresh_copy()
