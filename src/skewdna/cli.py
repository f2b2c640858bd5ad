"""Command-line front end.

    skewdna table1
    skewdna divisors --n 10 --degree 4 [--leading unit|v|v1|any]
    skewdna build    --n 6 --gen "v(x^4+x^2+1)"
    skewdna check    --n 6 --gen "v(x^4+x^2+1)" --property reversible [--assert]
    skewdna dna      --n 6 --gen "v(x^4+x^2+1)" [--fasta]
    skewdna distance --n 6 --gen "v(x^4+x^2+1)" [--metric lee|hamming]
    skewdna verify-paper [--seed N]

Generators are written either as polynomial text in x over the ring
(tokens 0, 1, w, w2, v, products like w2*v, parentheses, ^ for powers)
or as an ascending coefficient list such as "[1, w+v, 1]".

check decides on the code's GF(2) basis at any size; dna walks every word,
distance walks the components vC and (1+v)C (about 2*sqrt(size) words),
and both refuse codes above --cap.  --n is at most
skewpoly.MAX_PARSE_DEGREE (2048), checked before any work, so every size
printed has under 4,300 digits.

Exit codes: 0 success; 1 a requested property or verification check
failed; 2 input could not be parsed or is out of range; 3 a size or search
cap was hit, or memory ran out.  A reader that closes stdout early changes
neither.
Every subcommand takes --format structured to emit JSON instead of text.
All output is deterministic; the one randomized sweep takes --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis as an
from . import codes as cd
from . import dna
from . import skewpoly as sp
from . import verify
from .algebra import ELEMENTS, gf4_token, gray, r_token


def _coeff_tokens(f: sp.Poly) -> list[str]:
    return [r_token(c) for c in f]


def _emit(args, doc: dict, text: list[str]) -> None:
    if args.format == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text:
            print(line)


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code, its JSON document and its text
# lines, and main prints one of the two


def _cmd_table1(args) -> tuple[int, dict, list[str]]:
    rows = []
    text = [f"{'element':<12} {'gray':<10} dna"]
    for x in ELEMENTS:
        p, q = gray(x)
        block = dna.encode_element(x)
        rows.append({
            "index": x,
            "element": r_token(x),
            "gray": [gf4_token(p), gf4_token(q)],
            "dna": block,
        })
        pair = f"({gf4_token(p)}, {gf4_token(q)})"
        text.append(f"{r_token(x):<12} {pair:<10} {block}")
    return 0, {"command": "table1", "rows": rows}, text


_SHAPES = {"unit": (cd.FORM_UNIT,), "v": (cd.FORM_V,), "v1": (cd.FORM_V1,),
           "any": (cd.FORM_UNIT, cd.FORM_V, cd.FORM_V1)}


def _cmd_divisors(args) -> tuple[int, dict, list[str]]:
    rows = []
    for shape in _SHAPES[args.leading]:
        for g in cd.enumerate_right_divisors(args.n, args.degree,
                                             leading=shape, budget=args.cap):
            rows.append({
                "coeffs": _coeff_tokens(g),
                "leading": shape,
                "palindromic": sp.is_palindromic(g),
                "theta_palindromic": sp.is_theta_palindromic(g),
            })
    text = [f"{len(rows)} right divisors of x^{args.n} - 1, degree {args.degree}, "
            f"leading {args.leading}"]
    for row in rows:
        flags = [name for name in ("palindromic", "theta_palindromic") if row[name]]
        tag = ", ".join(f.replace("_", "-") for f in flags) if flags else "-"
        text.append(f"[{', '.join(row['coeffs'])}]  ({row['leading']})  {tag}")
    doc = {"command": "divisors", "n": args.n, "degree": args.degree,
           "leading": args.leading, "divisors": rows}
    return 0, doc, text


def _cmd_build(args) -> tuple[int, dict, list[str]]:
    code = cd.code_from_generator(args.n, sp.parse_poly(args.gen))
    g = code.generators[0]  # reduced mod x^n - 1: the polynomial the flags describe
    basis = cd.code_basis(code)  # no word is enumerated
    k = len(basis)  # F2 dimension
    info = dna.classify(code, basis)
    doc = {
        "command": "build",
        "n": args.n,
        "generator": _coeff_tokens(g),
        "polynomial": sp.format_poly(g),
        "leading_form": info.form,
        "size": 1 << k,
        "log2_size": k,
        "palindromic": info.palindromic,
        "theta_palindromic": info.theta_palindromic,
        "predicted_reversible": info.predicted_reversible,
        "predicted_reverse_complement": info.predicted_reverse_complement,
    }
    text = [
        f"length:            {args.n}",
        f"generator:         {sp.coeff_list_str(g)} = {sp.format_poly(g)}",
        f"leading form:      {info.form}",
        f"code size:         {1 << k} (2^{k})",
        f"palindromic:       {'yes' if info.palindromic else 'no'}",
        f"theta-palindromic: {'yes' if info.theta_palindromic else 'no'}",
        f"predicted reversible:         {info.predicted_reversible}",
        f"predicted reverse-complement: {info.predicted_reverse_complement}",
    ]
    return 0, doc, text


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    code = cd.code_from_generator(args.n, sp.parse_poly(args.gen))
    g = code.generators[0]  # reduced mod x^n - 1, as build prints it
    # perfbench's tracer sums each materialized code's size, at most 16^n,
    # into a float; until it counts basis vectors, larger codes skip the CodeSet
    basis = (cd.materialize(code).basis if 4 * args.n < sys.float_info.max_exp
             else cd.code_basis(code))
    prop = args.property
    holds = {
        "reversible": dna.reversible_on_basis, "complement": dna.complement_on_basis,
        "reverse-complement": dna.reverse_complement_on_basis,
        "quasi-cyclic": an.image_closed_on_basis,
    }[prop](code, basis)
    doc = {"command": "check", "n": args.n, "generator": _coeff_tokens(g),
           "property": prop, "holds": holds, "size": 1 << len(basis)}
    verdict = "holds" if holds else "fails"
    text = [f"{prop} {verdict} for <{sp.format_poly(g)}> at length {args.n}"]
    return (1 if args.assert_ and not holds else 0), doc, text


def _enumerable(args) -> tuple[sp.Poly, cd.CodeSet]:
    """Generator (reduced mod x^n - 1) and code for dna and distance."""
    cs = cd.materialize(cd.code_from_generator(args.n, sp.parse_poly(args.gen)))
    if cs.size > args.cap:
        raise cd.SizeCapExceeded(f"code has 2^{len(cs.basis)} words, above the cap of "
                                 f"{args.cap}; raise --cap to enumerate anyway")
    return cs.code.generators[0], cs


def _cmd_dna(args) -> tuple[int, dict, list[str]]:
    g, cs = _enumerable(args)
    strings = dna.encode_codeset(cs)
    if args.fasta:
        text = []
        for i, s in enumerate(strings):
            text.append(f">w{i}")
            text.append(s)
    else:
        text = list(strings)
    doc = {"command": "dna", "n": args.n, "generator": _coeff_tokens(g),
           "size": len(strings), "strings": strings}
    return 0, doc, text


def _cmd_distance(args) -> tuple[int, dict, list[str]]:
    g, cs = _enumerable(args)
    d = an.min_distance(cs, args.metric)
    doc = {"command": "distance", "n": args.n, "generator": _coeff_tokens(g),
           "metric": args.metric, "min_distance": d, "size": cs.size}
    if args.metric == "lee":
        note = "equals Hamming distance on the DNA strings"
    else:
        note = "over the 16-element alphabet"
    text = [f"minimum {args.metric} distance: {d} ({note}; {cs.size} codewords)"]
    return 0, doc, text


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    results = verify.run_all(seed=args.seed)
    rows = []
    text = []
    for r in results:
        rows.append({"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3),
                     "summary": r.summary, "details": r.details})
        mark = "ok  " if r.passed else "FAIL"
        text.append(f"{mark}  {r.name:<40} ({r.seconds:5.2f}s)  {r.summary}")
        if not r.passed:
            for line in r.details:
                text.append(f"        {line}")
    passed = sum(1 for r in results if r.passed)
    failing = [r.name for r in results if not r.passed]
    text.append(f"{passed} of {len(results)} checks passed")
    if failing:
        text.append(f"failing checks: {', '.join(failing)}")
    doc = {"command": "verify-paper", "seed": args.seed, "passed": passed,
           "total": len(results), "all_passed": not failing, "results": rows}
    return (1 if failing else 0), doc, text


# ---------------------------------------------------------------------------
# parser


def code_length(text: str) -> int:
    n = int(text)
    if not 1 <= n <= sp.MAX_PARSE_DEGREE:
        raise argparse.ArgumentTypeError(f"length {n} is outside 1..{sp.MAX_PARSE_DEGREE}")
    return n


def _add_code_args(p: argparse.ArgumentParser, cap: bool = True) -> None:
    p.add_argument("--n", type=code_length, required=True, help="code length")
    p.add_argument("--gen", required=True,
                   help="generator polynomial text or ascending coefficient list")
    if cap:
        p.add_argument("--cap", type=int, default=cd.DEFAULT_CAP,
                       help="largest code size to enumerate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewdna",
        description="skew cyclic DNA codes over the 16-element ring F4 + vF4",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="output format (structured = JSON)")
        return p

    add("table1", "print the 16-row element / Gray pair / DNA 2-base table")

    p = add("divisors", "list right divisors of x^n - 1 of a given degree")
    p.add_argument("--n", type=code_length, required=True, help="code length")
    p.add_argument("--degree", type=int, required=True, help="divisor degree")
    p.add_argument("--leading", choices=("unit", "v", "v1", "any"), default="unit",
                   help="leading coefficient shape")
    p.add_argument("--cap", type=int, default=cd.DEFAULT_CAP,
                   help="largest search size: q^min(t, n-t), the candidates "
                        "tried; q = 16 for unit divisors at even n, else 4")

    p = add("build", "construct a code and report its shape, its size and what "
                     "the paper's rules predict; the predictions include the two "
                     "refuted rules, and check decides each property exactly")
    _add_code_args(p, cap=False)

    p = add("check", "decide a DNA property of a code on its GF(2) basis, "
                     "for any code size")
    _add_code_args(p, cap=False)
    p.add_argument("--property", required=True, dest="property",
                   choices=("reversible", "complement", "reverse-complement",
                            "quasi-cyclic"),
                   help="quasi-cyclic (the Gray image is closed under swap-pairs "
                        "of rotate-right-2, which is the skew shift) holds for "
                        "every code, as every code is closed under the skew shift")
    p.add_argument("--assert", dest="assert_", action="store_true",
                   help="exit 1 when the property fails")

    p = add("dna", "print the code as DNA strings, one per line")
    _add_code_args(p)
    p.add_argument("--fasta", action="store_true", help="FASTA headers >w<index>")

    p = add("distance", "minimum distance of the code")
    _add_code_args(p)
    p.add_argument("--metric", choices=("hamming", "lee"), default="lee")

    p = add("verify-paper", "run the built-in reproduction and verification suite")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                   help="seed for the randomized sweeps")

    return parser


_DISPATCH = {
    "table1": _cmd_table1,
    "divisors": _cmd_divisors,
    "build": _cmd_build,
    "check": _cmd_check,
    "dna": _cmd_dna,
    "distance": _cmd_distance,
    "verify-paper": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, text = _DISPATCH[args.subcommand](args)
        try:
            _emit(args, doc, text)
            sys.stdout.flush()  # a closed reader fails here, not at interpreter exit
        except BrokenPipeError:
            # nobody reads the rest; send it, and the flush at exit, nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (cd.SizeCapExceeded, MemoryError) as exc:
        print(f"skewdna: {str(exc) or 'out of memory; a lower --cap refuses at once'}",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"skewdna: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
