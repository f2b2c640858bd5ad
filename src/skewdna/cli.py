"""Command-line front end.

    skewdna table1
    skewdna divisors --n 10 --degree 4 [--leading unit|v|v1|any]
    skewdna build    --n 6 --gen "v(x^4+x^2+1)"
    skewdna check    --n 6 --gen "v(x^4+x^2+1)" --property reversible [--assert]
    skewdna dna      --n 6 --gen "v(x^4+x^2+1)" [--fasta]
    skewdna distance --n 6 --gen "v(x^4+x^2+1)" [--metric lee|hamming]
    skewdna verify-paper [--seed N]

Generators are written either as polynomial text in x over the ring
(tokens 0, 1, w, w2, v, products like w2*v, parentheses, ^ for powers, and
+ or -, alike in characteristic 2) or as a coefficient list like "[1, w+v, 1]".

check decides on the code's GF(2) basis at any size; dna writes the words
sorted, 4,096 at a time as it makes them, in memory that does not grow with
the code; distance walks the component vC alone (about sqrt(size) words),
and both refuse codes above --cap.  divisors writes 4,096 rows at a time,
each block built at once, flags by column, once its search has listed every
divisor.  --n is at most skewpoly.MAX_PARSE_DEGREE (2048), checked before
any work, so every size printed has under 4,300 digits.

Exit codes: 0 success; 1 a requested property or verification check
failed; 2 input could not be parsed or is out of range; 3 a size or search
cap was hit, or memory ran out.  A reader that closes stdout early changes
neither.
Every subcommand takes --format structured to emit JSON instead of text:
the bytes of json.dumps(doc, indent=2, sort_keys=True), written a top-level
value at a time, and dna's strings and divisors' rows a chunk at a time.
All output is deterministic; verify-paper's two randomized checks (10 and
11) take --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice, repeat

from . import analysis as an
from . import codes as cd
from . import dna
from . import skewpoly as sp
from .algebra import ELEMENTS, gf4_token, gray, r_token
from .skewpoly import _THETA_BYTES


# divisors rows per write: few calls, and no whole copy
_LINES_PER_WRITE = 4096
_ENCODE = json.JSONEncoder(indent=2, sort_keys=True).encode
_TOP = "\n  "  # the newline and indent of a top-level value
_ROW = _TOP + "  "  # and of an item in a top-level list


def _emit(args, doc: dict, text: Iterable[str]) -> None:
    if args.format == "text":
        for block in text:  # a line, or a block of lines a stream made
            print(block)
        return
    # a stream is an iterator value that yields its JSON in pieces, written
    # as they come in the place of its null: the whole document is never held
    out = sys.stdout
    streams = {key: value for key, value in doc.items() if isinstance(value, Iterator)}
    rest = _ENCODE({**doc, **dict.fromkeys(streams)})
    for key in sorted(streams):
        mark = f"{_TOP}{json.dumps(key)}: "
        head, rest = rest.split(mark + "null", 1)
        out.write(head + mark)
        out.writelines(streams[key])
    out.write(rest + "\n")


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


_KEY = _ROW + "  "  # the indent of a divisors row's keys
_TAGS = ("-", "theta-palindromic", "palindromic", "palindromic, theta-palindromic")
# per shape, what codes c, 16 + c and 32 + f expand to: the separator or the row's head
# with c's token, and the tail of flags f = 2 * palindromic + theta-palindromic with the glue
_TEXT_ROWS = {shape: [", " + r_token(c) for c in ELEMENTS] + ["[" + r_token(c) for c in ELEMENTS]
              + [f"]  ({shape})  {tag}\n" for tag in _TAGS] for shape in _SHAPES["any"]}
_JSON_ROWS = {shape: [f",{_KEY}  " + json.dumps(r_token(c)) for c in ELEMENTS]
              + [f'{{{_KEY}"coeffs": [{_KEY}  ' + json.dumps(r_token(c)) for c in ELEMENTS]
              + [f'{_KEY}],{_KEY}"leading": "{shape}",{_KEY}"palindromic": {pal},'
                 f'{_KEY}"theta_palindromic": {tpal}{_ROW}}},{_ROW}'
                 for pal in ("false", "true") for tpal in ("false", "true")]
              for shape in _SHAPES["any"]}  # the row objects of a JSON list, keys sorted
_FIRST = bytes(range(16, 256)) + bytes(16)  # c -> 16 + c, the code of a first coefficient
_FLAGS = bytes(32 + 2 * (b < 16) + (b % 16 == 0) for b in range(256))  # 16 d + e -> 32 + f


def _divisor_rows(found, tables: dict, glue: str):
    """The rows of found, (shape, divisors) pairs, up to _LINES_PER_WRITE
    at a time, joined by glue.  Column j of a block holds coefficient j of
    each row, a byte per row.  A row is palindromic when columns j and
    w - 1 - j agree in it, theta-palindromic when column j agrees with theta
    of column w - 1 - j, for each j <= (w - 1)/2 (theta is an involution):
    as integers, when the OR d resp. e of those XORs is 0 in its byte.  The
    columns, the first as codes 16 + c, and 16 d + e (d, e < 16) as codes
    32 + f are interleaved into one byte string, one join expanding it."""
    for shape, gs in ((shape, rows[i:i + _LINES_PER_WRITE]) for shape, rows in found
                      for i in range(0, len(rows), _LINES_PER_WRITE)):
        w, m = len(gs[0]), len(gs)
        flat = bytes(chain.from_iterable(gs))
        cols = [flat[j::w] for j in range(w)]
        pal = tpal = 0
        for j in range((w + 1) // 2):
            low, high = int.from_bytes(cols[j], "big"), cols[w - 1 - j]
            pal |= low ^ int.from_bytes(high, "big")
            tpal |= low ^ int.from_bytes(high.translate(_THETA_BYTES), "big")
        cols[0] = cols[0].translate(_FIRST)
        out = bytearray(m * (w + 1))
        for j, col in enumerate([*cols, (pal << 4 | tpal).to_bytes(m, "big").translate(_FLAGS)]):
            out[j::w + 1] = col
        yield "".join(map(tables[shape].__getitem__, out))[:-len(glue)]


def _cmd_divisors(args) -> tuple[int, dict, Iterable[str]]:
    found = [(shape, cd.enumerate_right_divisors(args.n, args.degree,
                                                 leading=shape, budget=args.cap))
             for shape in _SHAPES[args.leading]]
    count = sum(len(gs) for _, gs in found)
    rows = _divisor_rows(found, _JSON_ROWS, "," + _ROW)
    divisors = chain(chain.from_iterable(zip(chain(["[" + _ROW], repeat("," + _ROW)), rows)),
                     [_TOP + "]" if count else "[]"])
    text = chain([f"{count} right divisors of x^{args.n} - 1, degree {args.degree}, "
                  f"leading {args.leading}"],
                 _divisor_rows(found, _TEXT_ROWS, "\n"))
    doc = {"command": "divisors", "n": args.n, "degree": args.degree,
           "leading": args.leading, "divisors": divisors}
    return 0, doc, text


def _cmd_build(args) -> tuple[int, dict, list[str]]:
    code = cd.code_from_generator(args.n, sp.parse_poly(args.gen))
    g = code.generators[0]  # reduced mod x^n - 1: the polynomial the flags describe
    basis = cd.span_basis(args.n, code.generator_words())  # no word is enumerated
    k = len(basis)  # F2 dimension
    info = dna.classify(code, basis)
    doc = {
        "command": "build",
        "n": args.n,
        "generator": list(map(r_token, g)),
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
             else cd.span_basis(args.n, code.generator_words()))
    prop = args.property
    holds = {
        "reversible": dna.reversible_on_basis, "complement": dna.complement_on_basis,
        "reverse-complement": dna.reverse_complement_on_basis,
        "quasi-cyclic": an.image_closed_on_basis,
    }[prop](code, basis)
    doc = {"command": "check", "n": args.n, "generator": list(map(r_token, g)),
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


def _cmd_dna(args) -> tuple[int, dict, Iterable[str]]:
    g, cs = _enumerable(args)
    # set up before anything is written, so running out of memory writes nothing
    sep = '",' + _ROW + '"' if args.format == "structured" else "\n"
    chunks = dna.encoded_chunks(cs, sep)
    headers = map(">w{}".format, count())  # --fasta: each chunk's lines with their headers
    text = (("\n".join(chain.from_iterable(zip(islice(headers, len(lines)), lines)))
             for lines in (chunk.split("\n") for chunk in chunks)) if args.fasta else chunks)
    strings = chain(chain.from_iterable(zip(chain(["[" + _ROW + '"'], repeat(sep)), chunks)),
                    ['"' + _TOP + "]"])  # the JSON list, sep between chunks as within them
    doc = {"command": "dna", "n": args.n, "generator": list(map(r_token, g)),
           "size": cs.size, "strings": strings}
    return 0, doc, text


def _cmd_distance(args) -> tuple[int, dict, list[str]]:
    g, cs = _enumerable(args)
    d = an.min_distance(cs)
    doc = {"command": "distance", "n": args.n, "generator": list(map(r_token, g)),
           "metric": args.metric, "min_distance": d, "size": cs.size}
    if args.metric == "lee":
        note = "equals Hamming distance on the DNA strings"
    else:
        note = "over the 16-element alphabet"
    text = [f"minimum {args.metric} distance: {d} ({note}; {cs.size} codewords)"]
    return 0, doc, text


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    from . import verify  # only this command loads the suite

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_all(seed=seed)
    rows = []
    text = []
    for r in results:
        rows.append(r._asdict())
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
    doc = {"command": "verify-paper", "seed": seed, "passed": passed,
           "total": len(results), "all_passed": not failing, "results": rows}
    return (1 if failing else 0), doc, text


# ---------------------------------------------------------------------------
# parser


def code_length(text: str) -> int:
    n = int(text)
    if not 1 <= n <= sp.MAX_PARSE_DEGREE:
        raise argparse.ArgumentTypeError(f"length {n} is outside 1..{sp.MAX_PARSE_DEGREE}")
    return n


def size_cap(text: str) -> int:
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"cap {cap} is below 0")
    return cap


def _add_code_args(p: argparse.ArgumentParser, cap: bool = True) -> None:
    p.add_argument("--n", type=code_length, required=True, help="code length")
    p.add_argument("--gen", required=True,
                   help="generator polynomial text or ascending coefficient list")
    if cap:
        p.add_argument("--cap", type=size_cap, default=cd.DEFAULT_CAP,
                       help="largest code size to enumerate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewdna",
        description="skew cyclic DNA codes over the 16-element ring F4 + vF4",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, run, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="output format (structured = JSON)")
        return p

    add("table1", _cmd_table1, "print the 16-row element / Gray pair / DNA 2-base table")

    p = add("divisors", _cmd_divisors, "list right divisors of x^n - 1 of a given degree")
    p.add_argument("--n", type=code_length, required=True, help="code length")
    p.add_argument("--degree", type=int, required=True, help="divisor degree")
    p.add_argument("--leading", choices=("unit", "v", "v1", "any"), default="unit",
                   help="leading coefficient shape")
    p.add_argument("--cap", type=size_cap, default=cd.DEFAULT_CAP,
                   help="largest search size: q^min(t, n-t), at least the candidates "
                        "tried; q = 16 for unit divisors at even n, else 4")

    p = add("build", _cmd_build, "construct a code and report its shape, its size and what "
                     "the paper's rules predict; the predictions include the two "
                     "refuted rules, and check decides each property exactly")
    _add_code_args(p, cap=False)

    p = add("check", _cmd_check, "decide a DNA property of a code on its GF(2) basis, "
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

    p = add("dna", _cmd_dna, "print the code as DNA strings, one per line")
    _add_code_args(p)
    p.add_argument("--fasta", action="store_true", help="FASTA headers >w<index>")

    p = add("distance", _cmd_distance, "minimum distance of the code")
    _add_code_args(p)
    p.add_argument("--metric", choices=("hamming", "lee"), default="lee")

    p = add("verify-paper", _cmd_verify, "run the built-in reproduction and verification suite")
    p.add_argument("--seed", type=int, help="seed for the randomized sweeps")

    return parser


_parser = functools.cache(build_parser)  # built by main's first call, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, doc, text = args.run(args)
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
