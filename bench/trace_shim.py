"""Run the planechow CLI with timing spans around each module's functions.

Usage: ``python bench/trace_shim.py <planechow arguments>``, with the
``src`` directory of the checkout on ``PYTHONPATH``.

The shim imports the program, replaces each function named in ``SPANS``
with a wrapper in every ``planechow`` module namespace that holds it (the
modules import one another's functions by name), runs ``cli.main`` and
then writes one line ``<MARKER> <json>`` to standard error.  The program
itself is not edited.

Self time is a span's duration minus the time its child spans cover.
Only this process is traced: worker processes of a pool inherit the
wrappers, but their spans are never written out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MARKER = "planechow-trace:"

#: (module, function) pairs wrapped in spans; names are "<module>.<function>".
SPANS = (
    ("symmetric", "chern_roots_product"),
    ("symmetric", "sym_to_chern"),
    ("symmetric", "decompose_weight3"),
    ("mpoly", "MPoly.mul_truncated"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "ideal_equal"),
    ("groebner", "verify_presentation"),
    ("groebner", "graded_dimensions"),
    ("chow", "euler_twist"),
    ("chow", "reduce_class"),
    ("chow", "integrate"),
    ("moduli", "lambda_classes"),
    ("moduli", "hodge_product"),
    ("moduli", "coherence_check"),
    ("moduli", "syzygy_holds"),
    ("moduli", "smooth_presentation"),
    ("moduli", "nodal_presentation"),
    ("moduli", "smooth_relation"),
    ("moduli", "nodal_relation"),
    ("moduli", "hodge_table"),
    ("calc", "parse"),
    ("calc", "evaluate"),
    ("cli", "main"),
    ("cli", "_fan_out"),
    ("cli", "verify_record"),
    ("cli", "present_record"),
    ("cli", "table_row"),
    ("cli", "_json_dump"),
)

#: lru_cache'd functions whose hit ratio is read from cache_info().
CACHES = (
    ("moduli", "generic_smooth_relations"),
    ("moduli", "generic_nodal_relations"),
    ("moduli", "smooth_groebner"),
    ("moduli", "nodal_groebner"),
    ("calc", "_preset_groebner"),
)


def _count_factors(args, result):
    return len(args[0])


def _count_out_terms(args, result):
    return len(result.terms)


def _count_basis(args, result):
    return len(result)


def _count_zero(args, result):
    return int(not result)


#: Work counters beside the spans: name -> (span, counter of one call).
COUNTERS = {
    "symmetric.chern_roots_product.factors": (
        "symmetric.chern_roots_product", _count_factors,
    ),
    "mpoly.MPoly.mul_truncated.out_terms": (
        "mpoly.MPoly.mul_truncated", _count_out_terms,
    ),
    "groebner.buchberger.basis_size": ("groebner.buchberger", _count_basis),
    "groebner.normal_form.zeros": ("groebner.normal_form", _count_zero),
}


class Tracer:
    """Per-name call counts, total and self times, kept in memory."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._children: list[list[float]] = []

    def wrap(self, name: str, fn, counters=()):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        children = self._children
        totals = self.counters
        for counter, _ in counters:
            totals.setdefault(counter, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered = [0.0]
            children.append(covered)
            stats[3] += 1  # active depth, so recursion is not double counted
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children.pop()
                stats[3] -= 1
                stats[0] += 1
                if not stats[3]:
                    stats[1] += elapsed
                stats[2] += elapsed - covered[0]
                if children:
                    children[-1][0] += elapsed
            for counter, count in counters:
                totals[counter] += count(args, result)
            return result

        return wrapper

    def report(self, caches) -> dict:
        return {
            "spans": {n: s[:3] for n, s in self.spans.items()},
            "counters": self.counters,
            "caches": caches,
        }


def _modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "planechow" or name.startswith("planechow."))
    ]


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS wherever a planechow module holds it.

    A function the program no longer defines is skipped; its span then
    reports zero calls.
    """
    importlib.import_module("planechow.cli")
    for module, attr in SPANS:
        name = f"{module}.{attr}"
        owner = importlib.import_module(f"planechow.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            continue
        counters = [(c, f) for c, (span, f) in COUNTERS.items() if span == name]
        wrapper = tracer.wrap(name, original, counters)
        setattr(owner, leaf, wrapper)
        for mod in _modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def cache_stats() -> dict:
    out = {}
    for module, attr in CACHES:
        fn = getattr(importlib.import_module(f"planechow.{module}"), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{module}.{attr}"] = [info.hits, info.misses] if info else [0, 0]
    return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("planechow.cli")
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        sys.stderr.write(
            f"\n{MARKER} {json.dumps(tracer.report(cache_stats()))}\n"
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
