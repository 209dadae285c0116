"""Command-line front end for every engine query and verification suite.

Weights on the command line follow the shifted convention used throughout
the package: ``T_{a,b,c}`` means the tilting module of highest weight
``a e_1 + b e_2 + c e_3 - rho``.  All arithmetic is exact; weights accept
rational entries such as ``1/2``.
"""

from __future__ import annotations

import argparse
import json
import re
import logging
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .characters import (
    FormalChar,
    NABLA,
    NonTerminating,
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
from .pe3.appendix import replay_appendix
from .pe3.tables import NoTableEntry, lookup_tilting_pe3
from .pe3.verify import pe2_property_check, verify_tables, verify_theorem_D

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


def _label_to_json(label) -> list[dict]:
    return [
        {"key": str(key), "size": size, "odd": odd}
        for (key, size, odd) in label
    ]


def _print_char(chi: FormalChar, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(char_to_json(chi, empty_basis=NABLA)))
        return
    if chi.is_zero():
        print("0")
        return
    for (sym, lam), coeff in sorted(chi.terms.items(), key=lambda kv: kv[0][1]):
        prefix = "" if coeff == 1 else f"{coeff} * "
        print(f"{prefix}{sym.kind}[{format_weight(lam)}]")


def _load_char(path: str) -> FormalChar:
    with open(path, "r", encoding="utf-8") as fh:
        return char_from_json(json.load(fh))


def _composition_sample_labels(comp: tuple[int, ...]) -> set:
    """Distinct block labels over a box of weights with the given class
    structure (one rational class per part, distinct fractional offsets)."""
    from itertools import combinations_with_replacement, product as iproduct

    offsets = [0] + [Fraction(1, k + 2) for k in range(len(comp) - 1)]
    per_part = []
    for size, off in zip(comp, offsets):
        coords = [off + v for v in range(-size, size + 1)]
        per_part.append(list(combinations_with_replacement(coords, size)))
    labels = set()
    for pick in iproduct(*per_part):
        lam = tuple(c for part in pick for c in part)
        labels.add(block_label(lam))
    return labels


def _cmd_block(args, fmt: str) -> int:
    lam = parse_weight(args.weight)
    label = block_label(lam)
    canonical = format_weight(canonical_representative(lam))
    if fmt == "json":
        print(
            json.dumps(
                {
                    "weight": args.weight,
                    "label": _label_to_json(label),
                    "canonical": canonical,
                }
            )
        )
    else:
        bits = ", ".join(f"(key={k}, size={s}, odd={o})" for (k, s, o) in label)
        print(f"{bits}; canonical {canonical}")
    return 0


def _cmd_blocks(args, fmt: str) -> int:
    comp = _parse_composition(args.composition)
    count = block_count(comp)
    labels = _composition_sample_labels(comp)
    if len(labels) != count:
        print(
            f"error: enumerated {len(labels)} labels, formula gives {count}",
            file=sys.stderr,
        )
        return 1
    if fmt == "json":
        print(
            json.dumps(
                {
                    "composition": list(comp),
                    "count": count,
                    "labels": [_label_to_json(lab) for lab in sorted(labels)],
                }
            )
        )
    else:
        print(count)
    return 0


def _cmd_char(args, fmt: str) -> int:
    chi = _load_char(args.char)
    if args.to == "delta":
        chi = nabla_sum_to_delta_sum(chi)
    elif args.to == "nabla":
        chi = delta_sum_to_nabla_sum(chi)
    _print_char(chi, fmt)
    return 0


def _cmd_tilting(args, fmt: str) -> int:
    lam = parse_weight(args.weight)
    p = _parse_composition(args.parabolic) if args.parabolic else borel(len(lam))
    if sum(p) != len(lam):
        raise ValueError(f"parabolic {p} does not match weight length {len(lam)}")
    if len(lam) == 3:
        chi = lookup_tilting_pe3(lam, p)
    else:
        chi = weakly_typical_tilting(lam, p)
    _print_char(chi, fmt)
    return 0


def _cmd_theta(args, fmt: str) -> int:
    chi = theta_char(exact(args.a), _load_char(args.char))
    _print_char(chi, fmt)
    return 0


def _cmd_kl(args, fmt: str) -> int:
    x = parse_perm(args.x)
    w = parse_perm(args.w)
    if args.n is not None and (len(x) != args.n or len(w) != args.n):
        raise ValueError(f"permutations must have length {args.n}")
    if len(x) != len(w):
        raise ValueError("permutations must have equal length")
    poly = kl_polynomial(x, w)
    if fmt == "json":
        print(json.dumps({"coeffs": list(poly)}))
    else:
        print(format_poly(poly))
    return 0


def _cmd_mult(args, fmt: str) -> int:
    verma = parse_weight(args.verma)
    simple = parse_weight(args.simple)
    if len(verma) != len(simple):
        raise ValueError("weights must have equal length")
    if args.parabolic:
        p = _parse_composition(args.parabolic)
        value = parabolic_verma_simple_mult(verma, simple, p)
    else:
        value = verma_simple_mult(verma, simple)
    if fmt == "json":
        print(json.dumps({"mult": value}))
    else:
        print(value)
    return 0


def _report_rows(suite: str, bound: Optional[int]):
    if suite == "pe3":
        return [
            (r.name, r.ok, f"checked={r.checked}", r.failures)
            for r in verify_tables(bound or 4)
        ]
    if suite == "appendix":
        return [(r.step, r.ok, r.detail, ()) for r in replay_appendix()]
    if suite == "thmD":
        return [
            (r.name, r.ok, f"checked={r.checked}", r.failures)
            for r in verify_theorem_D(bound or 6)
        ]
    if suite == "props":
        r = pe2_property_check(bound or 3)
        return [(r.name, r.ok, f"checked={r.checked}", r.failures)]
    raise ValueError(f"unknown verification suite {suite!r}")


def _cmd_verify(args, fmt: str) -> int:
    rows = _report_rows(args.suite, args.bound)
    all_ok = all(ok for (_, ok, _, _) in rows)
    if fmt == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "ok": all_ok,
                    "results": [
                        {
                            "name": name,
                            "ok": ok,
                            "detail": detail,
                            "failures": list(failures),
                        }
                        for (name, ok, detail, failures) in rows
                    ],
                }
            )
        )
    else:
        for name, ok, detail, failures in rows:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
            for f in failures:
                print(f"    {f}")
        print(f"{'all checks passed' if all_ok else 'SOME CHECKS FAILED'}")
    return 0 if all_ok else 1


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
    sub = parser.add_subparsers(dest="command", required=True)

    p_block = sub.add_parser(
        "block", parents=[common], help="block label of a single weight"
    )
    p_block.add_argument("--weight", required=True, help="comma-separated weight")

    p_blocks = sub.add_parser(
        "blocks",
        parents=[common],
        help="block count (and labels) for a class-size composition",
    )
    p_blocks.add_argument("--composition", required=True, help="e.g. 2,1")

    p_char = sub.add_parser(
        "char", parents=[common], help="normalize or convert a character file"
    )
    p_char.add_argument("--char", required=True, help="path to a character JSON file")
    p_char.add_argument(
        "--to",
        choices=("delta", "nabla"),
        default=None,
        help="convert to this basis before printing",
    )

    p_tilt = sub.add_parser(
        "tilting",
        parents=[common],
        help="tilting character in the costandard basis",
        epilog=RHO_NOTE,
    )
    p_tilt.add_argument("--weight", required=True, help="comma-separated weight")
    p_tilt.add_argument("--parabolic", default=None, help="composition, e.g. 2,1")

    p_theta = sub.add_parser(
        "theta", parents=[common], help="apply a translation functor to a character"
    )
    p_theta.add_argument("--a", required=True, help="rational parameter of theta_a")
    p_theta.add_argument("--char", required=True, help="path to a character JSON file")

    p_kl = sub.add_parser(
        "kl", parents=[common], help="Kazhdan-Lusztig polynomial P_{x,w}"
    )
    p_kl.add_argument("--n", type=int, default=None, help="rank (optional check)")
    p_kl.add_argument("--x", required=True, help="one-line permutation, e.g. 2,1,3")
    p_kl.add_argument("--w", required=True, help="one-line permutation")

    p_mult = sub.add_parser(
        "mult", parents=[common], help="(parabolic) Verma-to-simple multiplicity"
    )
    p_mult.add_argument("--verma", required=True, help="comma-separated weight")
    p_mult.add_argument("--simple", required=True, help="comma-separated weight")
    p_mult.add_argument("--parabolic", default=None, help="composition, e.g. 2,1")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument(
        "suite", choices=("pe3", "appendix", "thmD", "props"), help="suite to run"
    )
    p_verify.add_argument("--bound", type=int, default=None, help="parameter bound")

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


_VALUE_FLAGS = {"--weight", "--verma", "--simple", "--a", "--x", "--w"}
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
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = parser.parse_args(argv)  # exits with code 2 on parse errors
    try:
        return _DISPATCH[args.command](args, args.format)
    except NotWeaklyTypical as exc:
        print(f"error: NotWeaklyTypical: {exc}", file=sys.stderr)
    except NoTableEntry as exc:
        print(f"error: NoTableEntry: {exc}", file=sys.stderr)
    except NonTerminating as exc:
        print(f"error: NonTerminating: {exc}", file=sys.stderr)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
