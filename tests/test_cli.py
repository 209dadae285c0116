"""Command-line interface: output shapes, exit codes, error taxonomy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pericat
from conftest import corrupt_row, without_row
from pericat.cli import _merge_negative_values, main
from pericat.pe3 import tables


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_blocks_count(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--composition", "2,1")
    assert code == 0
    assert out.splitlines()[0] == "6"


def test_blocks_json(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--composition", "1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert len(doc["labels"]) == 4


def test_block_label_json(capsys):
    code, out, _ = run_cli(capsys, "block", "--weight", "4,7,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == [{"key": "0", "size": 3, "odd": 1}]
    assert doc["canonical"] == "1,0,0"


def test_tilting_single_term_json(capsys):
    code, out, _ = run_cli(
        capsys, "tilting", "--weight", "-1,1,5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "nabla"
    assert doc["terms"] == [{"weight": ["-1", "1", "5"], "coeff": 1}]


def test_tilting_table_route_text(capsys):
    code, out, _ = run_cli(capsys, "tilting", "--weight", "0,1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("nabla[" in line for line in lines)


def test_tilting_parabolic(capsys):
    code, out, _ = run_cli(
        capsys, "tilting", "--weight", "1,0,3", "--parabolic", "2,1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["parabolic"] == [2, 1]
    assert len(doc["terms"]) == 2


def test_theta_doubles_fixture(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "tilting", "--weight", "0,-1,1", "--format", "json"
    )
    src = tmp_path / "char.json"
    src.write_text(out)
    code, out, _ = run_cli(capsys, "theta", "--a", "-1", "--char", str(src))
    assert code == 0
    lines = out.strip().splitlines()
    assert sorted(lines) == [
        "2 * nabla[-1,0,0]",
        "2 * nabla[0,-1,0]",
        "2 * nabla[0,0,1]",
    ]


@pytest.mark.parametrize(
    "source, delta_terms",
    [
        (None, 4),  # 2^n expansion at n=2
        (("tilting", "--weight", "1,-2,0", "--parabolic", "2,1"), 14),
        (("tilting", "--weight", "1/2,-1/2,0"), 16),
    ],
    ids=["nabla-file", "parabolic", "half-integral"],
)
def test_char_round_trip(capsys, tmp_path, source, delta_terms):
    # a Nabla(p) file reads back as itself, and Nabla(p) -> Delta(p) ->
    # Nabla(p) prints the file byte for byte
    if source is None:
        doc = {
            "basis": "nabla",
            "parabolic": [1, 1],
            "terms": [{"weight": ["0", "1"], "coeff": 2}],
        }
        text = json.dumps(doc) + "\n"
    else:
        _, text, _ = run_cli(capsys, *source, "--format", "json")
    src = tmp_path / "char.json"
    src.write_text(text)
    code, out, _ = run_cli(capsys, "char", "--char", str(src), "--format", "json")
    assert (code, out) == (0, text)
    code, out, _ = run_cli(
        capsys, "char", "--char", str(src), "--to", "delta", "--format", "json"
    )
    assert code == 0
    converted = json.loads(out)
    assert converted["basis"] == "delta"
    assert len(converted["terms"]) == delta_terms
    dlt = tmp_path / "delta.json"
    dlt.write_text(out)
    code, out, _ = run_cli(capsys, "char", "--char", str(dlt), "--to", "nabla", "--format", "json")
    assert (code, out) == (0, text)


def test_kl_and_mult(capsys):
    code, out, _ = run_cli(capsys, "kl", "--x", "1,2,3,4", "--w", "3,4,1,2")
    assert code == 0
    assert out.strip() == "1+q^1"
    code, out, _ = run_cli(
        capsys, "kl", "--x", "1,2,3", "--w", "3,2,1", "--format", "json"
    )
    assert json.loads(out)["coeffs"] == [1]
    code, out, _ = run_cli(capsys, "mult", "--verma", "2,1,0", "--simple", "0,1,2")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(
        capsys, "mult", "--verma", "2,1,0", "--simple", "0,1,2", "--parabolic", "2,1"
    )
    assert out.strip() == "0"


@pytest.mark.parametrize("text", ["", "1,,2", "a,b", "1.0,2"])
def test_error_bad_permutation(capsys, text):
    code, out, err = run_cli(capsys, "kl", "--x", text, "--w", text)
    assert (code, out) == (1, "")
    assert err == f"error: not a permutation in one-line notation: {text!r}\n"


def test_verify_subcommands(capsys):
    code, out, _ = run_cli(capsys, "verify", "thmD", "--bound", "4")
    assert code == 0
    assert "[PASS] minimality-1" in out
    code, out, _ = run_cli(capsys, "verify", "props")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "appendix")
    assert code == 0
    assert "all checks passed" in out


def test_verify_pe3_reports_flag_bound_red(capsys):
    code, out, _ = run_cli(capsys, "verify", "pe3")
    assert code == 1
    assert "[FAIL] delta-flag-bound" in out
    assert "[PASS] table-5.4" in out
    assert "SOME CHECKS FAILED" in out


@pytest.mark.parametrize(
    "suite, bound, message",
    [
        ("pe3", "0", "error: param_bound must be at least 4 to cover every pattern"),
        ("thmD", "0", "error: param_bound must be at least 4 to cover every pattern"),
        ("props", "-1", "error: bound must be non-negative"),
        ("pe3", "100000000000000000000", "error: --bound must be at most 256"),
    ],
)
def test_verify_bound_is_never_replaced(capsys, suite, bound, message):
    code, out, err = run_cli(capsys, "verify", suite, "--bound", bound)
    assert code == 1
    assert out == ""
    assert err.strip() == message


def test_verify_bound_zero_is_kept(capsys):
    code, out, _ = run_cli(capsys, "verify", "props", "--bound", "0")
    assert code == 0
    assert out.splitlines()[0] == "[PASS] rank2-linkage-bound: checked=1"


def test_error_corrupt_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path)))
    code, out, err = run_cli(capsys, "tilting", "--weight", "0,1,-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: TableIntegrityError: family 5.4: coefficient 2")


@pytest.mark.parametrize("argv", [("verify", "pe3"), ("tilting", "--weight", "0,1,-1")])
def test_error_unknown_parameter_kind(capsys, tmp_path, monkeypatch, argv):
    # a row whose parameter kind is unknown is refused when the table loads,
    # naming the row, rather than failing every lookup of its parabolic
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path, "5.1", "unknown-kind")))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: TableIntegrityError: family 5.1: unknown parameter kind 'integer'\n"


def _malformed(doc, case):
    """The packaged families.json broken by one malformed record."""
    rows = {rec["id"]: rec for rec in doc["families"]}
    if case == "no-families":
        doc.clear()
    elif case == "no-hw":
        del rows["5.4"]["hw"]
    elif case == "no-id":
        del rows["5.1"]["id"]  # the first record
    elif case == "term-without-coefficient":
        rows["5.4"]["terms"][1] = ["0,1,2"]
    elif case == "param-without-kind":
        del rows["5.1"]["params"]["b"]["kind"]
    elif case == "coefficient-not-an-integer":
        rows["5.4"]["terms"][1][1] = "x"
    elif case == "coefficient-a-float":  # int() read this, and the next two, as 1
        rows["5.4"]["terms"][1][1] = 1.5
    elif case == "coefficient-a-bool":
        rows["5.4"]["terms"][1][1] = True
    elif case == "coefficient-a-string":
        rows["5.4"]["terms"][1][1] = "1"
    elif case == "repeated-id":
        rows["5.7"]["id"] = "5.4"
    elif case == "record-not-an-object":
        doc["families"] = [1]
    elif case == "hw-a-number":
        rows["5.4"]["hw"] = 5
    elif case == "min-a-string":
        rows["5.1"]["params"]["b"]["min"] = "3"
    elif case == "parabolic-a-number":
        rows["5.4"]["parabolic"] = 3
    elif case == "parabolic-part-a-string":
        rows["5.4"]["parabolic"] = ["a", 1, 1]
    elif case == "parabolic-parts-bools":  # never read as the Borel
        rows["5.4"]["parabolic"] = [True, True, True]
    elif case == "params-a-list":
        rows["5.1"]["params"] = ["b"]
    return doc


_MALFORMED = [
    ("no-families", "the fixture file has no 'families' list"),
    ("no-hw", "family 5.4: no 'hw' field"),
    ("no-id", "family #1: no 'id' field"),
    ("term-without-coefficient", "family 5.4: a term is not a [pattern, integer coefficient] pair"),
    ("param-without-kind", "family 5.1: no 'kind' field"),
    ("coefficient-not-an-integer", "family 5.4: a term is not a [pattern, integer coefficient] pair"),
    ("coefficient-a-float", "family 5.4: a term is not a [pattern, integer coefficient] pair"),
    ("coefficient-a-bool", "family 5.4: a term is not a [pattern, integer coefficient] pair"),
    ("coefficient-a-string", "family 5.4: a term is not a [pattern, integer coefficient] pair"),
    ("repeated-id", "family 5.4: an earlier record has the same id"),
    ("record-not-an-object", "family #1: no 'id' field"),
    ("hw-a-number", "family 5.4: 'hw' is not a str"),
    ("min-a-string", "family 5.1: b.min is not an integer or null"),
    ("parabolic-a-number", "family 5.4: 'parabolic' is not a list"),
    ("parabolic-part-a-string", "family 5.4: 'parabolic' is not a list of positive integers"),
    ("parabolic-parts-bools", "family 5.4: 'parabolic' is not a list of positive integers"),
    ("params-a-list", "family 5.1: 'params' is not a dict"),
    ("not-json", "the fixture file is not JSON: Expecting value: line 1 column 1 (char 0)"),
]


@pytest.mark.parametrize(
    "argv", [("verify", "pe3"), ("tilting", "--weight", "0,1,2")], ids=["verify", "tilting"]
)
@pytest.mark.parametrize("case,message", _MALFORMED, ids=[case for case, _ in _MALFORMED])
def test_error_malformed_fixture_record(capsys, tmp_path, monkeypatch, argv, case, message):
    # a record the loader cannot read is refused with one typed line that
    # names the row, by its id or else its 1-based position
    doc = json.loads(tables._read_fixture("<packaged>"))
    path = tmp_path / f"families-{case}.json"
    path.write_text("not JSON" if case == "not-json" else json.dumps(_malformed(doc, case)))
    monkeypatch.setenv("PERICAT_FIXTURES", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: TableIntegrityError: {message}\n"


def test_verify_pe3_names_a_missing_row(capsys, tmp_path, monkeypatch):
    # the coincidence check of rows 5.2 and 5.7 fails naming the missing
    # row, and every other report is still printed
    monkeypatch.setenv("PERICAT_FIXTURES", str(without_row(tmp_path, "5.7")))
    code, out, err = run_cli(capsys, "verify", "pe3")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert sum(line.startswith("[") for line in lines) == 28  # 26 rows, the pair, the flag bound
    i = lines.index("[FAIL] rows-5.2==5.7: checked=1")
    assert lines[i + 1] == "    family 5.7: no such row in the fixture file"
    assert lines[i + 2] == "[FAIL] delta-flag-bound: checked=64"


def test_verify_pe3_corrupt_table_under_python_O(tmp_path):
    # the row checks raise typed errors, so they hold with asserts stripped
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(pericat.__file__).resolve().parents[1]),
        PERICAT_FIXTURES=str(corrupt_row(tmp_path)),
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pericat.cli", "verify", "pe3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "[FAIL] table-5.4: checked=1" in proc.stdout
    assert "5.4: instantiate: family 5.4: coefficient 2 at 0,-1,1" in proc.stdout


def test_error_not_weakly_typical(capsys):
    code, _, err = run_cli(capsys, "tilting", "--weight", "0,1,2,4")
    assert code == 1
    assert "NotWeaklyTypical" in err


def test_error_no_table_entry(capsys):
    code, _, err = run_cli(capsys, "tilting", "--weight", "5,0,1", "--parabolic", "2,1")
    assert code == 1
    assert "NoTableEntry" in err


def test_error_bad_weight(capsys):
    code, _, err = run_cli(capsys, "block", "--weight", "1,,2")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("block", "--weight", "1/0,1"),
        ("mult", "--verma", "0,1", "--simple", "1,0/0"),
        ("tilting", "--weight", "1,-2/0,0"),
        ("theta", "--a", "1/0", "--char", "unread.json"),
    ],
    ids=["block", "mult", "tilting", "theta"],
)
def test_error_zero_denominator(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: weight coordinate") and "zero denominator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "--to", "nabla"),  # the file is already in the nabla basis
        ("theta", "--a", "0"),
    ],
)
def test_error_simple_basis(capsys, tmp_path, argv):
    # a conversion given the basis it converts to is a SimpleBasis error; a
    # simple-basis file is refused when it loads, before theta runs
    src = tmp_path / "simple.json"
    basis = "nabla" if argv[0] == "char" else "simple"
    doc = {"basis": basis, "terms": [{"weight": ["0", "1"], "coeff": 1}]}
    if basis == "nabla":
        doc["parabolic"] = [1, 1]
    src.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, *argv, "--char", str(src))
    assert code == 1
    expected = "error: SimpleBasis:" if basis == "nabla" else "error: unknown basis 'simple'\n"
    assert err.startswith(expected)
    assert "Traceback" not in err


def _nabla_doc(weight, coeff):
    return {"basis": "nabla", "parabolic": [1, 1], "terms": [{"weight": weight, "coeff": coeff}]}


@pytest.mark.parametrize(
    "doc, needle",
    [
        ([{"weight": ["0", "1"], "coeff": 1}], "JSON object"),
        (_nabla_doc([0, 1.5], 1), "term 0"),
        (_nabla_doc([True, 1], 1), "term 0"),
        (_nabla_doc(["0", "1"], 1.5), "term 0"),
        (_nabla_doc(["0", "1"], True), "term 0"),
        ({**_nabla_doc(["0", "1"], 1), "parabolic": "21"}, "parabolic"),
        ({**_nabla_doc(["0", "1"], 1), "basis": "foo"}, "basis"),
        ({**_nabla_doc(["0", "1"], 1), "terms": [5]}, "terms"),
        ({**_nabla_doc(["0", "1"], 1), "parabolic": [2, 1]}, "term 0: weight has 2 entries"),
        (
            {**_nabla_doc(["0", "1"], 1), "terms": [
                {"weight": ["0", "1"], "coeff": 1}, {"weight": ["0", "1", "2"], "coeff": 1},
            ]},
            "term 1: weight has 3 entries",
        ),
        ({**_nabla_doc(["0", "1"], 1), "terms": [{"weight": ["0", "1"]}]}, "term 0: no 'coeff'"),
        ({**_nabla_doc(["0", "1"], 1), "terms": [{"coeff": 1}]}, "term 0: no 'weight'"),
        (_nabla_doc("01", 1), "term 0: weight '01' is not a list"),
        (_nabla_doc(["x", "1"], 1), "term 0: Invalid literal"),
        (_nabla_doc(["1/0", "1"], 1), "term 0: weight coordinate '1/0' has a zero denominator"),
        # the kinds of the retired simple, Kac and gl(n) bases
        *(
            ({"basis": kind, "terms": [{"weight": ["0", "1"], "coeff": 1}]}, f"unknown basis '{kind}'")
            for kind in ("simple", "kac", "even_simple")
        ),
        *(
            ({**_nabla_doc(["0", "1"], 1), "basis": kind}, f"unknown basis '{kind}'")
            for kind in ("even_verma", "levi_simple")
        ),
    ],
    ids=[
        "list-document", "float-weight", "bool-weight", "float-coeff", "bool-coeff",
        "string-parabolic", "unknown-basis", "int-term", "weight-off-parabolic",
        "weight-lengths-differ", "no-coeff", "no-weight", "string-weight",
        "non-numeric-entry", "zero-denominator", "simple", "kac", "even_simple",
        "even_verma", "levi_simple",
    ],
)
def test_error_bad_character_file(capsys, tmp_path, doc, needle):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "char", "--char", str(src))
    assert code == 1
    assert err.startswith("error:") and needle in err
    assert "Traceback" not in err


def test_char_accepts_int_weight_entries(capsys, tmp_path):
    src = tmp_path / "ints.json"
    src.write_text(json.dumps(_nabla_doc([0, 1], 2)))
    code, out, _ = run_cli(capsys, "char", "--char", str(src), "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"] == [{"weight": ["0", "1"], "coeff": 2}]


@pytest.mark.parametrize("to", ["delta", "nabla"])
def test_char_converts_zero_character(capsys, tmp_path, to):
    src = tmp_path / "nabla.json"
    src.write_text(json.dumps(_nabla_doc(["0", "1"], 1)))
    code, out, _ = run_cli(capsys, "theta", "--a", "9", "--char", str(src), "--format", "json")
    assert code == 0 and json.loads(out)["terms"] == []
    zero = tmp_path / "zero.json"
    zero.write_text(out)
    code, out, err = run_cli(capsys, "char", "--char", str(zero), "--to", to, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"basis": to, "terms": []}


def test_parse_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tilting"])  # missing --weight
    assert exc.value.code == 2


def test_merge_negative_values():
    assert _merge_negative_values(["tilting", "--weight", "-1,1,5"]) == [
        "tilting",
        "--weight=-1,1,5",
    ]
    assert _merge_negative_values(["theta", "--a", "-2", "--char", "f.json"]) == [
        "theta",
        "--a=-2",
        "--char",
        "f.json",
    ]
    # Flags with non-negative values and other arguments pass through.
    argv = ["tilting", "--weight", "0,1,2", "--format", "json"]
    assert _merge_negative_values(argv) == argv


def _fresh_python(script: str) -> list[str]:
    """Run ``script`` in a new interpreter that imports this pericat, with
    asserts stripped when they are stripped here; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(Path(pericat.__file__).resolve().parents[1]))
    optimize = ["-O"] * sys.flags.optimize
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_cli_does_not_load_logging():
    script = (
        "import sys\n"
        "from pericat.cli import main\n"
        "print(main(['kl', '--x', '2,1,3', '--w', '3,2,1']), 'logging' in sys.modules)\n"
    )
    assert _fresh_python(script) == ["1", "0 False"]


def test_cli_reuses_suite_modules_imported_first():
    """A suite module imported before the CLI is the one the CLI runs: a
    second copy would hold second copies of its classes."""
    script = (
        "import sys\n"
        "import pericat.pe3.verify as verify, pericat.pe3.appendix as appendix\n"
        "from pericat import cli\n"
        "print(cli.verify is verify is sys.modules['pericat.pe3.verify'],"
        " cli.appendix is appendix is sys.modules['pericat.pe3.appendix'])\n"
        "print(cli.main(['verify', 'props']))\n"
    )
    lines = _fresh_python(script)
    assert lines[0] == "True True"
    assert lines[-2:] == ["all checks passed", "0"]


@pytest.mark.parametrize(
    "argvs, ran",
    [
        ([], []),
        ([["kl", "--x", "2,1,3", "--w", "3,2,1"]], []),
        ([["kl", "--x", "2,1,3", "--w", "3,2,1"], ["verify", "props"]], ["pericat.pe3.verify"]),
        ([["verify", "appendix"]], ["pericat.pe3.appendix"]),
    ],
)
def test_cli_runs_only_the_suite_modules_it_reads(argvs, ran):
    """Right after ``import pericat.cli`` every module file of the package
    has its ``sys.modules`` entry (perfbench's tracer indexes them), bound
    on its parent package as ``import`` binds it; but a verify suite's
    module runs only when a subcommand reads it: until then its entry is a
    lazy module, not a ``types.ModuleType``."""
    src = Path(pericat.__file__).resolve().parent
    names = sorted(
        ".".join(("pericat",) + path.relative_to(src).with_suffix("").parts).removesuffix(
            ".__init__"
        )
        for path in src.rglob("*.py")
    )
    script = (
        "import contextlib, io, json, sys, types\n"
        "from pericat import cli\n"
        "def registered(name):\n"
        "    parent, _, child = name.rpartition('.')\n"
        "    module = sys.modules.get(name)\n"
        "    bound = not parent or getattr(sys.modules[parent], child, None) is module\n"
        "    return module is not None and bound\n"
        f"missing = [n for n in {names!r} if not registered(n)]\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "ran = [n for n in ('pericat.pe3.appendix', 'pericat.pe3.verify')\n"
        "       if type(sys.modules[n]) is types.ModuleType]\n"
        "print(json.dumps([missing, codes, ran]))\n"
    )
    assert "pericat.pe3.verify" in names and "pericat.pe3" in names
    assert json.loads(_fresh_python(script)[-1]) == [[], [0] * len(argvs), ran]
