"""In-memory span tracing of the library's public functions.

The tracer wraps each target function (and the ``__init__`` of each target
class) from outside the library. A wrapped call records a span with a name,
start, end and parent span, and counts the exceptions that leave the
function's module; :func:`aggregate` derives calls, self time and inclusive
time per span name from the recorded spans. Names bound by ``from ...
import`` in other coherework modules are replaced as well, so a call through
``cli.transition_table`` is seen just like one through
``fluctuation.transition_table``. :meth:`Tracer.uninstall`
restores every original object, so untraced passes run unmodified code.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

# module -> public names whose calls and self time are reported;
# "Class" wraps Class.__init__, "Class.method" wraps a classmethod
TARGETS = {
    "cli": ("validate_scenario", "run_scenario_obj", "dumps_stable"),
    "linalg": ("hermitian_eig", "is_unitary", "hs_norm"),
    "states": ("DensityMatrix", "Hamiltonian", "von_neumann_entropy",
               "gibbs_state", "partial_trace", "purify"),
    "sampling": ("random_density_matrix", "random_hamiltonian", "random_unitary"),
    "projection": ("ProjectorSet", "ProjectorSet.from_basis", "energy_projectors",
                   "project", "entropy_change_bound", "optimal_projection_work",
                   "max_work_fixed_energy"),
    "protocol": ("build_plan", "exact_step_works", "simulate"),
    "fluctuation": ("transition_table", "sample_trajectories", "projection_heat"),
    "singleshot": ("iid_rate", "consistency_work", "d_min_eps", "d_max_eps"),
    "correlations": ("local_project", "delta_correlation", "global_optimal_work",
                     "verify_lemma1"),
}

# wrapped only so exceptions leaving the acceptance module are counted
ERROR_ONLY_TARGETS = {"acceptance": ("run_all",)}

ERROR_MODULES = tuple(TARGETS) + tuple(ERROR_ONLY_TARGETS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (counter name, work done by one call, read from its inputs or
# its result rather than from anything the library counts itself)
COUNTERS = {
    "cli.dumps_stable": ("bytes", lambda a, kw, out: len(out)),
    "protocol.simulate": (
        "substeps", lambda a, kw, out: int(_arg(a, kw, 1, "quasi_static_steps"))),
    "fluctuation.sample_trajectories": (
        "samples", lambda a, kw, out: int(_arg(a, kw, 1, "n_samples"))),
    "singleshot.iid_rate": (
        "classes", lambda a, kw, out: math.comb(
            int(_arg(a, kw, 3, "n_copies")) + len(_arg(a, kw, 0, "p")) - 1,
            len(_arg(a, kw, 0, "p")) - 1)),
}


class Tracer:
    """Records spans, per-span-name work counters and module errors."""

    def __init__(self, typed_errors: tuple[type, ...]):
        self.typed_errors = typed_errors
        self._patches = []
        self.missing = []
        self.reset()

    def reset(self):
        self.spans = []        # (name, parent index or None, start, end), by index
        self._stack = []       # (index, module) of each open span
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)  # (module, "typed" | "untyped") -> count

    def _wrap(self, fn, module: str, name: str):
        span = f"{module}.{name}"
        counter = COUNTERS.get(span)
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent, parent_module = stack[-1] if stack else (None, None)
            index = len(spans)
            spans.append(None)
            stack.append((index, module))
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if parent_module != module:
                    kind = "typed" if isinstance(exc, tracer.typed_errors) else "untyped"
                    tracer.errors[module, kind] += 1
                raise
            finally:
                spans[index] = (span, parent, start, perf_counter())
                stack.pop()
            if counter is not None:
                tracer.counts[f"{span}.{counter[0]}"] += counter[1](args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every loaded coherework module."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "coherework" or n.startswith("coherework."))]
        for module, names in {**TARGETS, **ERROR_ONLY_TARGETS}.items():
            mod = sys.modules.get(f"coherework.{module}")
            if mod is None:  # not imported by this workload, so never called
                continue
            for name in names:
                owner_name, _, method = name.partition(".")
                obj = getattr(mod, owner_name, None)
                if obj is None or (method and method not in vars(obj)):
                    self.missing.append(f"{module}.{name}")
                elif method:
                    original = vars(obj)[method]
                    self._patch(obj, method, original, classmethod(
                        self._wrap(original.__func__, module, name)))
                elif isinstance(obj, type):
                    original = vars(obj)["__init__"]
                    self._patch(obj, "__init__", original,
                                self._wrap(original, module, name))
                else:
                    traced = self._wrap(obj, module, name)
                    for m in modules:
                        for attr in [a for a, v in vars(m).items() if v is obj]:
                            self._patch(m, attr, obj, traced)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def aggregate(spans) -> tuple[dict, dict, dict]:
    """Calls, self seconds and inclusive seconds per span name.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.
    """
    calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for name, parent, start, end in spans:
        duration = end - start
        calls[name] += 1
        self_s[name] += duration
        incl_s[name] += duration
        if parent is not None:
            self_s[spans[parent][0]] -= duration
    return dict(calls), dict(self_s), dict(incl_s)
