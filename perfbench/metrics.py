"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics (plus the end-to-end bounds);
``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

# Reported by runs with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),      # import skewdna.cli + skewdna.verify
    ("wall_s", "s", "lower"),       # the workload's operation list, untraced
    ("peak_rss_mb", "MB", "lower"),  # ru_maxrss of the worker process
)

# The verify-paper check names, in suite order.
VERIFY_CHECKS = (
    "element-dna-table",
    "unit-inverse-formula",
    "palindromic-divisor-length-10",
    "theta-palindromic-divisor-length-12",
    "sixteen-codeword-table",
    "even-length-even-degree-rule",
    "even-length-odd-degree-rule",
    "odd-length-cyclic-and-impossibility",
    "reverse-complement-rules",
    "image-rotation-identity",
    "distance-preservation",
    "minimal-degree-forms",
)

# Subcommands that some workload runs.
SUBCOMMANDS = ("build", "check", "distance", "divisors", "dna", "verify-paper")

# Modules whose wrapped functions report self time (cli.self_s is the cli one).
MODULES = ("skewpoly", "codes", "dna", "analysis", "verify")

_C = ("count", "lower")
_S = ("s", "lower")
_R = ("ratio", "lower")

# Per traced group: (group, ((quantity, unit, better), ...)).
GROUP_METRICS = (
    ("skewpoly.right_divmod", (("calls",) + _C, ("self_s",) + _S, ("coeff_ops",) + _C)),
    ("skewpoly.mul", (("calls",) + _C, ("self_s",) + _S)),
    ("codes.enumerate_right_divisors", (
        ("calls",) + _C, ("self_s",) + _S, ("candidates",) + _C,
        ("found", "count", "higher"), ("repeat_frac",) + _R)),
    ("codes.span_basis", (("calls",) + _C, ("self_s",) + _S, ("basis_vectors",) + _C)),
    ("codes.materialize", (
        ("calls",) + _C, ("self_s",) + _S, ("words",) + _C, ("cap_exceeded",) + _C,
        ("repeat_frac",) + _R)),
    ("codes.minimal_degree_scan", (("calls",) + _C, ("self_s",) + _S, ("words",) + _C)),
    ("dna.closure", (("calls",) + _C, ("self_s",) + _S, ("words",) + _C)),
    ("dna.reversible_by_remainder", (("calls",) + _C, ("self_s",) + _S)),
    ("dna.classify", (("calls",) + _C, ("self_s",) + _S)),
    ("dna.encode_codeset", (("self_s",) + _S, ("strings",) + _C)),
    ("analysis.min_distance", (("calls",) + _C, ("self_s",) + _S, ("words",) + _C)),
    ("analysis.gray_image_report", (("self_s",) + _S,)),
)

# Reported by runs with --trace 1.
PER_LAYER = (
    tuple((f"{group}.{q}", unit, better)
          for group, quantities in GROUP_METRICS for q, unit, better in quantities)
    + tuple((f"verify.{name}.s",) + _S for name in VERIFY_CHECKS)
    + tuple((f"cli.{sub}.s",) + _S for sub in SUBCOMMANDS)
    + (("cli.self_s",) + _S, ("cli.out_bytes", "bytes", "lower"))
    + tuple((f"{mod}.self_s",) + _S for mod in MODULES)
    + (("trace.overhead_s",) + _S,)
)
