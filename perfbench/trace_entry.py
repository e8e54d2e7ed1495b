"""Run one benchmark job with a span around every call into a layer.

Usage: python3 perfbench/trace_entry.py SPANS_FILE JOB_ID (cli|series) ARGS...

Wraps the public functions of each ``stirlingsym`` module from outside,
rebinding every module-level name that refers to them (``cli``,
``identities``, ``posets`` and ``moduli`` import them by name) and patching
the methods of ``TruncatedSeries``, ``Interval`` and ``VerificationReport``.
Then it runs ``stirlingsym.cli.main`` or the series job exactly as the
untraced job would, so stdout is unchanged.  Spans are kept in memory and
written to SPANS_FILE as JSON when the job ends.

Per-element helpers (``type_of``, ``stats``, ``lyndon_type``,
``partitions_of``, ``character`` ...) are deliberately not wrapped: they run
millions of times, so wrapping them would measure the wrapper.  Their time
lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

from oracles import word_count

# (module, attribute) of every wrapped function, by layer.  A name with a
# dot is a method: "Class.method".
WRAPPED = {
    "stirling": ["stirling_symfunc", "eulerian_polynomial", "enumerate_stirling",
                 "eulerian_brute_force", "enumerate_stirling_backtrack"],
    "symfunc": ["convert", "multiply", "specialize_E", "evaluate_h", "omega"],
    "series": ["TruncatedSeries.inv", "TruncatedSeries.comp_inverse",
               "TruncatedSeries.compose", "TruncatedSeries.mul", "symfunc_egf"],
    "trees": ["enumerate_normalized", "colored_generating_function",
              "enumerate_colored", "type_generating_function", "forbidden_trees",
              "forbidden_tree_egf"],
    "posets": ["interval", "mobius_invariant", "Interval.mobius_invariant"],
    "moduli": ["wp_volume"],
    "report": ["series_report", "VerificationReport.render",
               "VerificationReport.to_json"],
    "identities": ["invert_egf_numeric"],
    "cli": ["main"],
}


# stirling functions that enumerate on every call; the others share the
# lru_cache of _all_stirling, so they enumerate Q(n, r) once per process
UNCACHED = {"stirling.eulerian_brute_force", "stirling.enumerate_stirling_backtrack"}


def _series_order(args, kwargs):
    return args[0].order


class Tracer:
    """Spans of one job: [name index, start, end, parent index, job id, extra].

    ``extra`` is work data computed from the arguments before the call and
    from the result after it, outside the span's own interval.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.converted: set = set()
        self.enumerated: set = set()

    def _words_before(self, name: str):
        """|Q(n, r)| for a call that enumerates Q(n, r), 0 for one answered
        from the cache of an earlier call in this process."""
        def words(args, kwargs):
            n = args[0] if args else kwargs["n"]
            r = args[1] if len(args) > 1 else kwargs["r"]
            if name not in UNCACHED:
                if (n, r) in self.enumerated:
                    return 0
                self.enumerated.add((n, r))
            return word_count(n, r)
        return words

    def _convert_before(self, args, kwargs):
        """Input degree, and whether this call is the first in the process to
        touch one of its (source, target, degree) transitions, which is the
        call that builds the transition matrix."""
        f = args[0]
        target = args[1] if len(args) > 1 else kwargs["target"]
        keys = ({(f.basis, target, sum(lam)) for lam in f.terms}
                if f.basis != target else set())
        cold = not keys <= self.converted
        self.converted |= keys
        return [f.degree(), cold]

    def _extras(self, name: str):
        if name.startswith("stirling."):
            return self._words_before(name), None
        if name.startswith("series.TruncatedSeries."):
            return _series_order, None
        return {
            "symfunc.convert": (self._convert_before,
                                lambda extra, result: extra + [len(result.terms)]),
            "trees.enumerate_normalized": (None, lambda extra, result: len(result)),
            "posets.interval": (None, lambda extra, result: len(result.elements)),
        }.get(name, (None, None))

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        before, after = self._extras(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.job_id, extra]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                span[5] = after(extra, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function and rebind every name that refers to it."""
        import stirlingsym.cli  # noqa: F401  (imports every layer)
        from stirlingsym.identities import registry

        replaced = {}
        for layer, attrs in WRAPPED.items():
            module = importlib.import_module(f"stirlingsym.{layer}")
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = owner.__dict__[fn_name]
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                setattr(owner, fn_name, wrapper)
                if not owner_name:
                    replaced[id(fn)] = wrapper
        # the 18 registry checks, named by registry key; each counts in the
        # layer of the module that defines it
        for key, fn in registry().items():
            layer = fn.__module__.rpartition(".")[2]
            replaced[id(fn)] = self.wrap(f"{layer}.check.{key}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "stirlingsym" or mod_name.startswith("stirlingsym."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced:
                        setattr(module, attr, replaced[id(value)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        import stirlingsym.cli

        return stirlingsym.cli.main(args)
    if kind == "series":
        import series_job

        return series_job.main(args)
    raise ValueError(f"unknown job kind {kind!r}")


def main(argv: list[str]) -> int:
    spans_file, job_id, kind, args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(job_id)
    tracer.install()
    try:
        code = run(kind, args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
