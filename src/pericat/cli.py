"""Command-line front end for every engine query and verification suite.

Weights on the command line follow the shifted convention used throughout
the package: ``T_{a,b,c}`` means the tilting module of highest weight
``a e_1 + b e_2 + c e_3 - rho``.  All arithmetic is exact; weights accept
rational entries such as ``1/2``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .characters import (
    DELTA,
    FormalChar,
    MixedBasis,
    NABLA,
    NonTerminating,
    SimpleBasis,
    char_from_json,
    char_to_json,
    delta_sum_to_nabla_sum,
    nabla_sum_to_delta_sum,
    theta_char,
)
from .glmult import parabolic_verma_simple_mult, verma_simple_mult
from .linkage import block_count, block_label, canonical_representative
from .tilting import NotWeaklyTypical, weakly_typical_tilting
from .weights import borel, exact, format_weight, parse_weight
from .weyl import format_poly, kl_polynomial, parse_perm
from .pe3.tables import NoTableEntry, TableIntegrityError, lookup_tilting_pe3


def _lazy(name: str):
    """The module ``name``, registered in ``sys.modules`` and on its parent
    package now, but compiled and run on its first attribute read.  An
    already imported module is returned as it is, so no second copy of its
    classes exists."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# only `verify` runs these two suites' modules: other subcommands never compile them
appendix = _lazy("pericat.pe3.appendix")
verify = _lazy("pericat.pe3.verify")

MAX_BOUND = 256  # the largest --bound: there verify props takes about 6 s, verify pe3 2 s

RHO_NOTE = (
    "Weights are rho-shifted: T_{a,b,c} means the tilting module of highest "
    "weight a*eps_1 + b*eps_2 + c*eps_3 - rho.  Set PERICAT_FIXTURES to "
    "override the packaged table file."
)


def _parse_composition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed composition {text!r}") from exc
    if not parts or any(p <= 0 for p in parts):
        raise ValueError(f"composition parts must be positive: {text!r}")
    return parts


def _label(label) -> tuple[list[dict], str]:
    doc = [{"key": str(key), "size": size, "odd": odd} for (key, size, odd) in label]
    return doc, ", ".join("(key={key}, size={size}, odd={odd})".format(**d) for d in doc)


def _char(chi: FormalChar, empty_basis: str = NABLA) -> tuple[dict, str]:
    lines = [
        f"{'' if coeff == 1 else f'{coeff} * '}{chi.kind}[{format_weight(lam)}]"
        for lam, coeff in sorted(chi.items())  # the weights are distinct
    ]
    return char_to_json(chi, empty_basis=empty_basis), "\n".join(lines) or "0"


def _load_char(path: str) -> FormalChar:
    with open(path, "r", encoding="utf-8") as fh:
        return char_from_json(json.load(fh))


def _cmd_block(args):
    lam = parse_weight(args.weight)
    label, bits = _label(block_label(lam))
    canonical = format_weight(canonical_representative(lam))
    doc = {"weight": args.weight, "label": label, "canonical": canonical}
    return doc, f"{bits}; canonical {canonical}"


def _cmd_blocks(args):
    comp = _parse_composition(args.composition)
    count = block_count(comp)
    doc = {"composition": list(comp), "count": count}
    if args.format == "json":  # the labels grow as prod(k + 1): text prints the count alone
        # one class per part, keyed by its own fractional offset; a class of
        # size k has 0..k coordinates at odd offset, independently, and a
        # label takes one entry of each class
        keys = [0] + [Fraction(1, k + 2) for k in range(len(comp) - 1)]
        classes = [
            _label([(key, size, odd) for odd in range(size + 1)])[0]
            for key, size in zip(keys, comp)
        ]
        doc["labels"] = [list(lab) for lab in product(*classes)]
    return doc, str(count)


def _cmd_char(args):
    chi = _load_char(args.char)
    if args.to == "delta":
        chi = nabla_sum_to_delta_sum(chi)
    elif args.to == "nabla":
        chi = delta_sum_to_nabla_sum(chi)
    return _char(chi, DELTA if args.to == "delta" else NABLA)


def _cmd_tilting(args):
    lam = parse_weight(args.weight)
    p = _parse_composition(args.parabolic) if args.parabolic else borel(len(lam))
    if sum(p) != len(lam):
        raise ValueError(f"parabolic {p} does not match weight length {len(lam)}")
    if len(lam) == 3:
        return _char(lookup_tilting_pe3(lam, p))
    return _char(weakly_typical_tilting(lam, p))


def _cmd_theta(args):
    return _char(theta_char(exact(args.a), _load_char(args.char)))


def _cmd_kl(args):
    x = parse_perm(args.x)
    w = parse_perm(args.w)
    if args.n is not None and (len(x) != args.n or len(w) != args.n):
        raise ValueError(f"permutations must have length {args.n}")
    if len(x) != len(w):
        raise ValueError("permutations must have equal length")
    poly = kl_polynomial(x, w)
    return {"coeffs": list(poly)}, format_poly(poly)


def _cmd_mult(args):
    verma = parse_weight(args.verma)
    simple = parse_weight(args.simple)
    if len(verma) != len(simple):
        raise ValueError("weights must have equal length")
    if args.parabolic:
        p = _parse_composition(args.parabolic)
        value = parabolic_verma_simple_mult(verma, simple, p)
    else:
        value = verma_simple_mult(verma, simple)
    return {"mult": value}, str(value)


def _report_rows(suite: str, bound: Optional[int]):
    if bound is not None and bound > MAX_BOUND:
        raise ValueError(f"--bound must be at most {MAX_BOUND}")
    args = () if bound is None else (bound,)  # each suite keeps its own default
    if suite == "appendix":
        if args:
            raise ValueError("verify appendix takes no --bound: it replays fixed samples")
        return [(r.step, r.ok, r.detail, ()) for r in appendix.replay_appendix()]
    if suite == "pe3":
        reports = verify.verify_tables(*args)
    elif suite == "thmD":
        reports = verify.verify_theorem_D(*args)
    elif suite == "props":
        reports = [verify.pe2_property_check(*args)]
    else:
        raise ValueError(f"unknown verification suite {suite!r}")
    return [(r.name, r.ok, f"checked={r.checked}", r.failures) for r in reports]


def _cmd_verify(args):
    rows = _report_rows(args.suite, args.bound)
    all_ok = all(ok for (_, ok, _, _) in rows)
    results = [
        {"name": name, "ok": ok, "detail": detail, "failures": list(failures)}
        for (name, ok, detail, failures) in rows
    ]
    lines = []
    for name, ok, detail, failures in rows:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        lines.extend(f"    {f}" for f in failures)
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    doc = {"suite": args.suite, "ok": all_ok, "results": results}
    return doc, "\n".join(lines), 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pericat",
        description="Exact block, multiplicity, and tilting-character queries "
        "for periplectic Lie superalgebras.",
        epilog=RHO_NOTE,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_block = subparsers.add_parser(
        "block", parents=[common], help="block label of a single weight"
    )
    p_block.add_argument("--weight", required=True, help="comma-separated weight")

    p_blocks = subparsers.add_parser(
        "blocks",
        parents=[common],
        help="block count (and labels) for a class-size composition",
    )
    p_blocks.add_argument("--composition", required=True, help="e.g. 2,1")

    p_char = subparsers.add_parser(
        "char", parents=[common], help="normalize or convert a character file"
    )
    p_char.add_argument("--char", required=True, help="path to a character JSON file")
    p_char.add_argument(
        "--to",
        choices=("delta", "nabla"),
        default=None,
        help="convert to this basis before printing",
    )

    p_tilt = subparsers.add_parser(
        "tilting",
        parents=[common],
        help="tilting character in the costandard basis",
        epilog=RHO_NOTE,
    )
    p_tilt.add_argument("--weight", required=True, help="comma-separated weight")
    p_tilt.add_argument("--parabolic", default=None, help="composition, e.g. 2,1")

    p_theta = subparsers.add_parser(
        "theta", parents=[common], help="apply a translation functor to a character"
    )
    p_theta.add_argument("--a", required=True, help="rational parameter of theta_a")
    p_theta.add_argument("--char", required=True, help="path to a character JSON file")

    p_kl = subparsers.add_parser(
        "kl", parents=[common], help="Kazhdan-Lusztig polynomial P_{x,w}"
    )
    p_kl.add_argument("--n", type=int, default=None, help="rank (optional check)")
    p_kl.add_argument("--x", required=True, help="one-line permutation, e.g. 2,1,3")
    p_kl.add_argument("--w", required=True, help="one-line permutation")

    p_mult = subparsers.add_parser(
        "mult", parents=[common], help="(parabolic) Verma-to-simple multiplicity"
    )
    p_mult.add_argument("--verma", required=True, help="comma-separated weight")
    p_mult.add_argument("--simple", required=True, help="comma-separated weight")
    p_mult.add_argument("--parabolic", default=None, help="composition, e.g. 2,1")

    p_verify = subparsers.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument(
        "suite", choices=("pe3", "appendix", "thmD", "props"), help="suite to run"
    )
    p_verify.add_argument("--bound", type=int, help=f"parameter bound, at most {MAX_BOUND}")

    return parser


_DISPATCH = {
    "block": _cmd_block,
    "blocks": _cmd_blocks,
    "char": _cmd_char,
    "tilting": _cmd_tilting,
    "theta": _cmd_theta,
    "kl": _cmd_kl,
    "mult": _cmd_mult,
    "verify": _cmd_verify,
}


_VALUE_FLAGS = {
    "--weight", "--verma", "--simple", "--a", "--x", "--w", "--parabolic", "--composition"
}
_NEGATIVE_VALUE = re.compile(r"^-\d[\d,/\- ]*$")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--weight -1,1,5`` into ``--weight=-1,1,5`` so argparse does
    not mistake a leading-minus value for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (
            arg in _VALUE_FLAGS
            and i + 1 < len(argv)
            and _NEGATIVE_VALUE.match(argv[i + 1])
        ):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = parser.parse_args(argv)  # exits with code 2 on parse errors
    try:
        # each handler returns its JSON document and its text; verify adds its exit code
        doc, text, *code = _DISPATCH[args.command](args)
        print(json.dumps(doc) if args.format == "json" else text)
        return code[0] if code else 0
    except (
        NotWeaklyTypical, NoTableEntry, TableIntegrityError, NonTerminating,
        SimpleBasis, MixedBasis,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
