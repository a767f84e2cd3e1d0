"""Outside-in layer trace of canoninv.

The tracer wraps the public functions of each canoninv module from outside,
without touching the package's source.  Modules bind names with
``from .polys import apply_diff`` and the like, so every canoninv module that
holds a reference to a wrapped function gets the wrapper rebound; patching
``canoninv.polys.apply_diff`` alone would miss every call made from
``canonical``.  ``Polynomial.__mul__`` and ``ReflectionGroup.enumerate`` are
wrapped on their classes.

Spans are kept in memory in one flat integer array, ``FIELDS`` values per
span, and written out when the run ends.  A span's parent is the span that
was open when it started; spans of one request share its request id.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

FIELDS = ("name", "parent", "request", "start_ns", "end_ns", "work_a", "work_b")
_NAME, _PARENT, _REQUEST, _START, _END, _WORK_A, _WORK_B = range(len(FIELDS))
_STRIDE = len(FIELDS)

REQUEST_SPAN = "cli.main"


def _pair_work(args, result):
    f, g = args[0], args[1]
    return len(f) * len(g), len(result)


def _mul_work(args, result):
    other = args[1]
    # A scalar right operand is a plain scale: no term pairs are visited.
    pairs = len(args[0]) * len(other) if type(other) is type(args[0]) else 0
    return pairs, len(result)


def _rref_work(args, result):
    rows = result[0]
    return (len(rows) * len(rows[0]) if rows else 0), 0


# (span name, module, attribute, class or None, work measure or None).
# The work measure maps (args, result) to the span's (work_a, work_b).
WRAPPED = (
    ("groups.build_root_system", "groups", "build_root_system", None, None),
    ("groups.enumerate", "groups", "enumerate", "ReflectionGroup", None),
    ("groups.antiinvariant", "groups", "antiinvariant", None,
     lambda args, result: (len(result), 0)),
    ("groups.reynolds", "groups", "reynolds", None, None),
    ("groups.reynolds_linear_power", "groups", "reynolds_linear_power", None, None),
    ("seeds.seed_invariants", "seeds", "seed_invariants", None,
     lambda args, result: (len(result.polynomials), 0)),
    ("seeds.jacobian_certificate", "seeds", "jacobian_certificate", None, None),
    ("canonical.canonical_system", "canonical", "canonical_system", None, None),
    ("canonical.transfer", "canonical", "transfer", None, None),
    ("canonical.orthogonalize_graded", "canonical", "orthogonalize_graded", None, None),
    ("canonical.verify_canonical", "canonical", "verify_canonical", None, None),
    ("polys.apply_diff", "polys", "apply_diff", None, _pair_work),
    ("polys.mul", "polys", "__mul__", "Polynomial", _mul_work),
    ("polys.substitute_linear", "polys", "substitute_linear", None,
     lambda args, result: (len(args[0]), 0)),
    ("linalg.rref", "linalg", "rref", None, _rref_work),
    ("oracle.pde_solve", "oracle", "pde_solve", None, None),
    ("oracle.invariant_basis", "oracle", "invariant_basis", None, None),
    ("oracle.spans_agree", "oracle", "spans_agree", None, None),
)

SPAN_NAMES = (REQUEST_SPAN,) + tuple(w[0] for w in WRAPPED)

# Figures of one layer measured inside another: (inner span names, outer span name).
INSIDE = {
    "apply_diff_in_verify_ns": (("polys.apply_diff",), "canonical.verify_canonical"),
    "substitute_in_verify_ns": (("polys.substitute_linear",), "canonical.verify_canonical"),
    "averages_in_seeds": (("groups.reynolds", "groups.reynolds_linear_power"),
                          "seeds.seed_invariants"),
}


class Tracer:
    """Span recorder; ``install`` wraps canoninv while the context is open."""

    def __init__(self):
        self.spans = array("q")
        self._stack = []
        self.request = -1

    def __len__(self):
        return len(self.spans) // _STRIDE

    def _open(self, name_id):
        stack = self._stack
        index = len(self.spans) // _STRIDE
        self.spans.extend((name_id, stack[-1] if stack else -1, self.request,
                           time.perf_counter_ns(), 0, 0, 0))
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index * _STRIDE + _END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, work):
        name_id = SPAN_NAMES.index(name)
        spans, opener, closer = self.spans, self._open, self._close

        def traced(*args, **kwargs):
            index = opener(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(index)
            if work is not None:
                base = index * _STRIDE
                spans[base + _WORK_A], spans[base + _WORK_B] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def request_span(self, request_id):
        """One request: a root span that every wrapped call inside it descends from."""
        self.request = request_id
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)
            self.request = -1

    @contextmanager
    def install(self):
        """Rebind every wrapped name in every loaded canoninv module; undo on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "canoninv" or name.startswith("canoninv."))]
        undo = []
        try:
            for name, module, attr, cls, work in WRAPPED:
                home = sys.modules[f"canoninv.{module}"]
                if cls is not None:
                    owner = getattr(home, cls)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(name, original, work))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, work)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        setattr(m, attr, wrapper)
                        undo.append((m, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def records(self, first=0):
        """Yield each span from index ``first`` on as a tuple in ``FIELDS`` order."""
        spans = self.spans
        for base in range(first * _STRIDE, len(spans), _STRIDE):
            yield tuple(spans[base:base + _STRIDE])

    def write_tsv(self, path):
        """Write every span, one line each, with the name spelled out."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\t" + "\t".join(FIELDS) + "\n")
            for i, rec in enumerate(self.records()):
                fh.write(f"{i}\t{SPAN_NAMES[rec[0]]}\t" + "\t".join(map(str, rec[1:])) + "\n")


def summarize(tracer: Tracer, first=0):
    """Per-name totals of the spans recorded from index ``first`` on.

    Returns ``(totals, inside)``.  ``totals`` maps each span name to its
    ``calls``, ``incl_ns``, ``self_ns``, ``work_a`` and ``work_b``.
    ``incl_ns`` counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice; self time is a span's duration minus
    the durations of its direct children.  ``inside`` maps each key of
    ``INSIDE`` to the time (or, for ``averages_in_seeds``, the count) of its
    inner spans that have the outer name among their ancestors.
    """
    names = SPAN_NAMES
    bit = {name: 1 << i for i, name in enumerate(names)}
    totals = {name: {"calls": 0, "incl_ns": 0, "self_ns": 0, "work_a": 0, "work_b": 0}
              for name in names}
    inside_masks = {key: (sum(bit[n] for n in inner), bit[outer])
                    for key, (inner, outer) in INSIDE.items()}
    inside = dict.fromkeys(INSIDE, 0)
    count = len(tracer) - first
    # Spans are stored in the order they opened, so a parent precedes its
    # children: one forward pass sees every ancestor before its descendants.
    ancestors = array("q", bytes(8 * count))
    name_of = array("q", bytes(8 * count))
    for k, (name_id, parent, _req, start, end, work_a, work_b) in enumerate(
            tracer.records(first)):
        dur = end - start
        name_of[k] = name_id
        own = 1 << name_id
        up = 0
        p = parent - first
        if p >= 0:
            up = ancestors[p] | (1 << name_of[p])
            totals[names[name_of[p]]]["self_ns"] -= dur
        ancestors[k] = up
        t = totals[names[name_id]]
        t["calls"] += 1
        t["self_ns"] += dur
        t["work_a"] += work_a
        t["work_b"] += work_b
        if not up & own:
            t["incl_ns"] += dur
        for key, (inner, outer) in inside_masks.items():
            if own & inner and up & outer:
                inside[key] += 1 if key == "averages_in_seeds" else dur
    return totals, inside
