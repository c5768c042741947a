"""Span tracing of kamcrit's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper on every
``kamcrit`` module attribute that holds it, since modules that did
``from .x import f`` resolve their own binding at call time (for example
``find_destabilization`` in ``stability``, ``criteria`` and ``scan``).
:meth:`Tracer.uninstall` puts the originals back, so untraced operations in
the same process run the unmodified code.

A span is ``[name, start, end, parent, failed, amount]``; ``parent`` is the
index of the enclosing span (-1 for a root) and ``amount`` is a count the
wrapper computes from the arguments (map steps for kernels, bytes for
``write_atomic``).  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# module -> traced attributes, in report order.  Span and metric names are
# "<layer>.<attribute>" with the layer named after the module without its
# leading underscore (metric names must start with a letter or digit).
TARGETS = {
    "cli": ("main",),
    "_kernels": ("final_state", "batch_final_state", "trajectory",
                 "monodromy_product", "max_p_deviation", "batch_trajectory"),
    "orbits": ("find_periodic_orbit", "brentq", "refine_newton",
               "refine_multishoot", "continue_in_K", "OrbitBranch.orbit_at"),
    "stability": ("monodromy", "find_destabilization"),
    "criteria": ("greene_kcrit", "nch_distance_curve", "match_elliptic_points",
                 "island_half_width"),
    "scan": ("run_scan", "merge_results", "write_atomic"),
}


def _batch_steps(args):
    return len(args[0]) * int(args[3])


# map steps computed from the arguments: nsteps x batch size
_AMOUNT = {
    "kernels.final_state": lambda args: int(args[3]),
    "kernels.trajectory": lambda args: int(args[3]),
    "kernels.max_p_deviation": lambda args: int(args[3]),
    "kernels.batch_final_state": _batch_steps,
    "kernels.batch_trajectory": _batch_steps,
    "kernels.monodromy_product": lambda args: len(args[0]),
    "scan.write_atomic": lambda args: len(args[1].encode()),
}

# a return value that counts as a failed call
_FAILED_RESULT = {"cli.main": lambda result: result != 0}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        amount_of = _AMOUNT.get(name)
        failed_if = _FAILED_RESULT.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False,
                   amount_of(args) if amount_of else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:  # argparse --version / usage errors
                rec[4] = exc.code not in (0, None)
                raise
            except BaseException:
                rec[4] = True
                raise
            else:
                if failed_if is not None and failed_if(result):
                    rec[4] = True
                return result
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target on every kamcrit module (and class) binding it."""
        if self._patched:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kamcrit" or n.startswith("kamcrit."))]
        for module, attrs in TARGETS.items():
            home = sys.modules.get("kamcrit." + module)
            if home is None:
                continue
            for attr in attrs:
                name = f"{module.lstrip('_')}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, original, self.wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` inside a root span; returns its result."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        return self.wrap(name, fn)(*args)

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations.
    """
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def first_duration(spans, name):
    """Wall time of the first ``name`` span (0.0 when there is none)."""
    return next((rec[2] - rec[1] for rec in spans if rec[0] == name), 0.0)


def totals(spans, start=0, into=None):
    """Add calls, self time, failures and amounts per span name over
    ``spans[start:]`` to ``into`` (a fresh dict by default)."""
    into = {} if into is None else into
    selfs = self_times(spans)
    for i in range(start, len(spans)):
        name, _, _, _, failed, amount = spans[i]
        t = into.setdefault(name, {"calls": 0, "self_s": 0.0, "fails": 0, "amount": 0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        t["fails"] += int(failed)
        t["amount"] += amount
    return into


def layer_metrics(tot, n_ops, first_multishoot_s):
    """Per-layer metrics, averaged per traced operation.

    Every name is always present, so a layer a workload never calls reads 0.
    """
    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    zero = {"calls": 0, "self_s": 0.0, "fails": 0, "amount": 0}
    steps = kernel_s = 0.0
    for module, attrs in TARGETS.items():
        for attr in attrs:
            name = f"{module.lstrip('_')}.{attr}"
            t = tot.get(name, zero)
            put(name + ".calls", t["calls"] / n_ops, "count/op")
            put(name + ".self_s", t["self_s"] / n_ops, "s/op")
            if module == "_kernels":
                steps += t["amount"]
                kernel_s += t["self_s"]
            else:
                put(name + ".fails", t["fails"] / n_ops, "count/op")
    put("kernels.map_steps", steps / n_ops, "steps/op")
    put("kernels.map_steps_per_s", steps / kernel_s if kernel_s > 0 else 0.0, "steps/s")
    for name in ("orbits.find_periodic_orbit", "orbits.refine_newton"):
        t = tot.get(name, zero)
        put(name + ".ok_ratio", (t["calls"] - t["fails"]) / t["calls"] if t["calls"] else 0.0,
            "ratio")
    put("orbits.refine_multishoot.first_s", first_multishoot_s, "s")
    put("scan.write_atomic.bytes", tot.get("scan.write_atomic", zero)["amount"] / n_ops,
        "bytes/op")
    return out
