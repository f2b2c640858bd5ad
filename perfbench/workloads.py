"""Workload definitions: operation lists, generator pools and answer fields.

Every workload is a list of ``skewdna`` command lines.  A slot that takes a
generator names a pool; the workload seed picks one entry per slot.  The
entries of one pool share n, degree and leading shape, and for ``check``
slots also the answer, so every pick costs the same: the closure checks stop
at the first counterexample, and a pool mixing true and false answers would
mix full and truncated scans.  Pools used by more than one slot of a
workload are split so that no two slots ever build the same code.

Nothing here imports ``skewdna``; ``run.py`` reads this module too.
"""

from __future__ import annotations

import hashlib
import json
import random
import shlex

WORKLOADS = ("verify-paper", "cli-medium", "cli-large")

# Every entry right-divides x^n - 1 for the slot's n.
POOLS = {
    # cli-medium: n = 8..12, codes of 2^16 or 2^20 words
    "n10-unit-deg5": (  # 2^20 words
        "x^5 + 1",
        "x^5 + x^4 + v*x^3 + 1",
        "x^5 + x^4 + w*x^3 + w*x^2 + x + 1",
        "x^5 + (w+v)*x^4 + (w+v)*x^3 + x^2 + 1",
    ),
    "n12-unit-deg8": (  # 2^16 words
        "x^8 + x^4 + 1",
        "x^8 + x^6 + x^2 + 1",
        "x^8 + v*x^6 + (1+v)*x^4 + v*x^2 + 1",
        "x^8 + x^7 + x^6 + x^2 + x + 1",
    ),
    "n8-unit-deg4": (  # 2^16 words
        "x^4 + 1",
        "x^4 + x^3 + v*x^2 + x + 1",
        "x^4 + w*x^3 + (w2*v)*x^2 + w*x + 1",
        "x^4 + v*x + 1",
    ),
    "n10-unit-deg6-rev": (  # 2^16 words, reversible
        "x^6 + w*x^4 + w*x^2 + 1",
        "x^6 + x^5 + x + 1",
        "x^6 + v*x^5 + (w+v)*x^4 + (w+v)*x^2 + v*x + 1",
        "x^6 + (w+v)*x^5 + (w+v)*x + 1",
    ),
    "n10-unit-deg6-comp": (  # 2^16 words, complement-closed
        "x^6 + w*x^5 + w2*x^4 + w2*x^3 + w2*x^2 + w*x + 1",
        "x^6 + (1+w*v)*x^5 + w2*x^4 + (w+w2*v)*x^3 + w2*x^2 + (1+w*v)*x + 1",
        "x^6 + (1+w2*v)*x^5 + w*x^4 + (w2+w*v)*x^3 + w*x^2 + (1+w2*v)*x + 1",
    ),
    "n10-unit-deg6-rc": (  # 2^16 words, reverse-complement closed
        "x^6 + w2*x^5 + w*x^4 + w*x^3 + w*x^2 + w2*x + 1",
        "x^6 + (w2+w*v)*x^5 + w2*x^4 + (1+w2*v)*x^3 + w2*x^2 + (w2+w*v)*x + 1",
        "x^6 + (w+w2*v)*x^5 + w*x^4 + (1+w*v)*x^3 + w*x^2 + (w+w2*v)*x + 1",
    ),
    "n10-unit-deg6-dna": (  # 2^16 words
        "x^6 + v*x^5 + (w+v)*x^4 + v*x^3 + (w+v)*x^2 + 1",
        "x^6 + (1+v)*x^5 + (w+v)*x^4 + (1+v)*x^3 + (w+v)*x^2 + 1",
        "x^6 + (w*v)*x^5 + (w2+v)*x^4 + (w*v)*x^3 + (w2+v)*x^2 + 1",
        "x^6 + (w2+v)*x^5 + x^4 + (w+v)*x^3 + x^2 + x + 1",
    ),
    # v and v+1 shapes at n = 12, degree 4: 2^16 words, no collapse.  The
    # complement and reverse-complement entries fail on the first word.
    "n12-v-deg4-rev": ("v*x^4 + v", "v*x^4 + v*x^2 + v"),
    "n12-v-deg4-comp": ("v*x^4 + w*v", "v*x^4 + (w2*v)*x^2 + w*v"),
    "n12-v-deg4-rc": ("v*x^4 + w2*v", "v*x^4 + (w*v)*x^2 + w2*v"),
    "n12-v1-deg4-rev": ("(1+v)*x^4 + 1+v", "(1+v)*x^4 + (1+v)*x^2 + 1+v"),
    "n12-v1-deg4-comp": ("(1+v)*x^4 + w+w*v", "(1+v)*x^4 + (w2+w2*v)*x^2 + w+w*v"),
    "n12-v1-deg4-rc": ("(1+v)*x^4 + w2+w2*v", "(1+v)*x^4 + (w+w*v)*x^2 + w2+w2*v"),
    # cli-large: divisors of x^10 - 1, x^12 - 1 and x^6 - 1 lifted to
    # lengths that are multiples of 10, 12 and 6.  The first entry of the
    # 400-length build pool and of the 408-length build pool are the paper's
    # examples; the first of the 402-length pool is v(x^4 + x^2 + 1).
    "x10-unit-deg4-build400": (
        "x^4 + (w+v)*x^2 + 1",
        "x^4 + (w2+v)*x^2 + 1",
        "x^4 + w*x^2 + 1",
    ),
    "x10-unit-deg4-rev400": (  # palindromic, so reversible at every even n
        "x^4 + x^3 + x^2 + x + 1",
        "x^4 + w*x^3 + w*x + 1",
        "x^4 + w2*x^3 + w2*x + 1",
    ),
    "x10-unit-deg4-comp400": (
        "x^4 + v*x^3 + (w+v)*x^2 + v*x + 1",
        "x^4 + (1+v)*x^3 + (w+v)*x^2 + (1+v)*x + 1",
        "x^4 + (1+v)*x^3 + (w2+v)*x^2 + (1+v)*x + 1",
    ),
    "x10-unit-deg4-build800": (
        "x^4 + v*x^3 + (w2+v)*x^2 + v*x + 1",
        "x^4 + (w+v)*x^3 + x^2 + (w+v)*x + 1",
        "x^4 + w2*x^2 + 1",
    ),
    "x12-unit-deg3-build408": ("x^3 + (w2+v)*x^2 + (w+v)*x + 1", "x^3 + 1"),
    "x12-unit-deg3-rc408": (  # theta-palindromic, so reversible
        "x^3 + x^2 + x + 1",
        "x^3 + (w+v)*x^2 + (w2+v)*x + 1",
    ),
    "x6-v-deg4-build402": (
        "v*x^4 + v*x^2 + v",
        "v*x^4 + (w2*v)*x^2 + w*v",
        "v*x^4 + (w*v)*x^2 + w2*v",
    ),
}

_S = ("--format", "structured")

# (command line without --gen, pool name or None)
SLOTS = {
    "verify-paper": [(("verify-paper",) + _S, None)],
    "cli-medium": [
        (("divisors", "--n", "10", "--degree", "5") + _S, None),
        (("divisors", "--n", "12", "--degree", "4", "--leading", "any") + _S, None),
        (("distance", "--n", "10", "--metric", "lee") + _S, "n10-unit-deg5"),
        (("distance", "--n", "12", "--metric", "hamming") + _S, "n12-unit-deg8"),
        (("check", "--n", "10", "--property", "reversible") + _S, "n10-unit-deg6-rev"),
        (("check", "--n", "10", "--property", "complement") + _S, "n10-unit-deg6-comp"),
        (("check", "--n", "10", "--property", "reverse-complement") + _S, "n10-unit-deg6-rc"),
        (("check", "--n", "12", "--property", "reversible") + _S, "n12-v-deg4-rev"),
        (("check", "--n", "12", "--property", "complement") + _S, "n12-v-deg4-comp"),
        (("check", "--n", "12", "--property", "reverse-complement") + _S, "n12-v-deg4-rc"),
        (("check", "--n", "12", "--property", "reversible") + _S, "n12-v1-deg4-rev"),
        (("check", "--n", "12", "--property", "complement") + _S, "n12-v1-deg4-comp"),
        (("check", "--n", "12", "--property", "reverse-complement") + _S, "n12-v1-deg4-rc"),
        (("check", "--n", "8", "--property", "quasi-cyclic") + _S, "n8-unit-deg4"),
        (("dna", "--n", "10") + _S, "n10-unit-deg6-dna"),
    ],
    "cli-large": [
        (("build", "--n", "400") + _S, "x10-unit-deg4-build400"),
        (("check", "--n", "400", "--property", "reversible") + _S, "x10-unit-deg4-rev400"),
        (("check", "--n", "400", "--property", "complement") + _S, "x10-unit-deg4-comp400"),
        (("build", "--n", "408") + _S, "x12-unit-deg3-build408"),
        (("check", "--n", "408", "--property", "reverse-complement") + _S,
         "x12-unit-deg3-rc408"),
        (("build", "--n", "402") + _S, "x6-v-deg4-build402"),
        (("build", "--n", "800") + _S, "x10-unit-deg4-build800"),
    ],
}


def operations(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's command lines, generators picked by the seed."""
    rng = random.Random(seed)
    ops = []
    for argv, pool in SLOTS[workload]:
        if pool is not None:
            argv = argv + ("--gen", rng.choice(POOLS[pool]))
        if argv[0] == "verify-paper":
            argv = argv + ("--seed", str(seed))
        ops.append(argv)
    return ops


def all_operations(workload: str) -> list[tuple[str, ...]]:
    """Every command line any seed can produce, for recording answers."""
    ops = []
    for argv, pool in SLOTS[workload]:
        for gen in POOLS[pool] if pool is not None else (None,):
            ops.append(argv if gen is None else argv + ("--gen", gen))
    return ops


def answer_key(argv) -> str:
    """Key of a command line in the expected answers; the seed is not part
    of it because no recorded answer depends on it."""
    argv = list(argv)
    if "--seed" in argv:
        i = argv.index("--seed")
        del argv[i : i + 2]
    return shlex.join(argv)


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_BUILD_FIELDS = ("log2_size", "leading_form", "palindromic", "theta_palindromic",
                 "predicted_reversible", "predicted_reverse_complement")


def answer(argv, exit_code, stdout: str) -> dict:
    """The fields of a command's output that are its answer.

    Incidental fields (``via``, ``seconds``, ``seed``, echoed inputs, field
    order and formatting) are left out, so refactors that keep the answers
    keep passing.
    """
    ans = {"exit": exit_code}
    if exit_code not in (0, 1):
        return ans
    doc = json.loads(stdout)
    sub = argv[0]
    if sub == "divisors":
        rows = [json.dumps([r["coeffs"], r["leading"], r["palindromic"],
                            r["theta_palindromic"]]) for r in doc["divisors"]]
        ans["count"] = len(rows)
        ans["divisors_sha256"] = _sha256(sorted(rows))
    elif sub == "build":
        ans.update({f: doc[f] for f in _BUILD_FIELDS})
    elif sub == "check":
        ans["holds"] = doc["holds"]
    elif sub == "distance":
        ans["min_distance"] = doc["min_distance"]
        ans["size"] = doc["size"]
    elif sub == "dna":
        ans["size"] = doc["size"]
        ans["strings_sha256"] = _sha256(sorted(doc["strings"]))
    elif sub == "verify-paper":
        ans["results"] = [[r["name"], r["passed"], r["summary"], r["details"]]
                          for r in doc["results"]]
    else:
        raise ValueError(f"no answer fields defined for {sub!r}")
    return ans
