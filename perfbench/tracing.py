"""Per-layer tracing of sosfield from outside the package.

The tracer wraps every public function of the traced modules and rebinds
the wrapper in each sosfield module that imported the function by name, so
calls between modules go through it.  ``Poly.__mul__`` (with its alias
``__rmul__``) and ``Poly.__divmod__`` are wrapped as well, which puts the
``FqElem`` arithmetic beneath them into the ``poly`` layer.  Nothing under
``src/`` changes; ``uninstall`` restores every original binding.

Each wrapped call is a span: request id, span id, parent span id, name,
start and end.  Spans stay in memory while ``recording`` is set and are
written out by ``write_spans``.
A span's self time is its duration minus the durations of its direct
children, and it is credited to the span's module.  ``cli.main`` is the root
span of every request, so ``cli.self_s`` is request time that no other span
covers and the module self times add up to the request time.
"""

import inspect
import json
import sys
import time
from array import array

# The layers, named after the sosfield modules they wrap.
MODULES = (
    "numtheory",
    "poly",
    "extension",
    "factor",
    "local",
    "split",
    "witness",
    "certs",
    "orderings",
    "ratlocal",
    "parsing",
    "cli",
)

# Named layer metrics: metric name -> (span name, what to report).  "s" is
# the inclusive time of the outermost active call, "calls" the call count.
NAMED = {
    "poly.pow_mod.s": ("poly.poly_pow_mod", "s"),
    "poly.mul.calls": ("poly.Poly.__mul__", "calls"),
    "poly.divmod.calls": ("poly.Poly.__divmod__", "calls"),
    "split.analyze_place.calls": ("split.analyze_place", "calls"),
    "split.nf_roots.s": ("split.number_field_roots", "s"),
    "extension.irreducible.s": ("extension.verify_irreducible", "s"),
    "extension.irreducible.calls": ("extension.verify_irreducible", "calls"),
    "factor.fq_roots.s": ("factor.fq_roots", "s"),
    "factor.is_irreducible_fq.calls": ("factor.is_irreducible_fq", "calls"),
    "factor.factor_q.calls": ("factor.factor_q", "calls"),
    "local.hensel.s": ("local.hensel_lift_root", "s"),
    "local.hensel.calls": ("local.hensel_lift_root", "calls"),
    "local.valuation.s": ("local.ext_valuation", "s"),
    "local.valuation.calls": ("local.ext_valuation", "calls"),
    "local.weak_approx.s": ("local.weak_approx", "s"),
    "witness.construct.s": ("witness.nonpyth_witness", "s"),
    "witness.verify.s": ("witness.verify_certificate", "s"),
    "certs.serialize.s": ("certs.serialize", "s"),
    "certs.deserialize.s": ("certs.deserialize", "s"),
    "orderings.indefinite.s": ("orderings.indefinite_witness", "s"),
    "orderings.sign_at.calls": ("orderings.sign_at", "calls"),
    "numtheory.is_prime.calls": ("numtheory.is_prime", "calls"),
    "numtheory.factor_int.s": ("numtheory.factor_int", "s"),
    "ratlocal.two_squares.s": ("ratlocal.two_square_test", "s"),
}


# Layers that every workload enters, and the named timings that are never 0.
ALWAYS_ENTERED = ("numtheory", "poly", "extension", "factor", "certs", "parsing", "cli")
ALWAYS_TIMED = ("poly.pow_mod.s", "extension.irreducible.s")


class SpanError(Exception):
    """The recorded spans do not add up; the per-layer numbers are unusable."""


class Tracer:
    """Wraps sosfield's public functions and aggregates spans per layer."""

    def __init__(self):
        self.names = []
        self._index = {}
        self._module_of = []
        self._restore = []
        self.recording = True  # whether spans are kept for write_spans
        self.rid = 0
        self._next_sid = 1
        self._stack = []
        self._depth = {}
        self.rids = array("q")
        self.sids = array("q")
        self.parents = array("q")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.self_s = {m: 0.0 for m in MODULES}
        self.calls = {m: 0 for m in MODULES}
        self.incl_s = {}
        self.name_calls = {}
        self.root_s = 0.0
        self.candidates = 0
        self.places_found = 0
        self.max_precision = 0
        self.abandoned = 0

    def _name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self._module_of.append(name.split(".", 1)[0])
            self.incl_s[name] = 0.0
            self.name_calls[name] = 0
        return self._index[name]

    def _wrap(self, name, fn, record=True):
        nid = self._name_id(name)
        module = self._module_of[nid]
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        tracer = self

        def wrapper(*args, **kwargs):
            if not stack:
                tracer.rid += 1
            parent = stack[-1][0] if stack else 0
            if record:
                sid = tracer._next_sid
                tracer._next_sid = sid + 1
            else:  # children of an unrecorded span hang off its parent
                sid = parent
            frame = [sid, 0.0]
            stack.append(frame)
            depth[nid] = depth.get(nid, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[module] += dur - frame[1]
                tracer.calls[module] += 1
                tracer.name_calls[name] += 1
                depth[nid] -= 1
                if not depth[nid]:
                    tracer.incl_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_s += dur
                if record and tracer.recording:
                    tracer.rids.append(tracer.rid)
                    tracer.sids.append(sid)
                    tracer.parents.append(parent)
                    tracer.name_ids.append(nid)
                    tracer.starts.append(t0)
                    tracer.ends.append(t1)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap the traced modules' public functions and the Poly operators."""
        package = {
            k: m
            for k, m in sys.modules.items()
            if k == "sosfield" or k.startswith("sosfield.")
        }
        for short in MODULES:
            mod = sys.modules[f"sosfield.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for other in package.values():
                    if vars(other).get(attr) is obj:
                        self._restore.append((other, attr, obj))
                        setattr(other, attr, wrapped)
        poly_cls = sys.modules["sosfield.poly"].Poly
        # Poly operator calls run to hundreds of thousands per pass: they are
        # counted and timed but not written out as spans.
        mul = self._wrap("poly.Poly.__mul__", poly_cls.__mul__, record=False)
        for attr, wrapped in (
            ("__mul__", mul),
            ("__rmul__", mul),
            ("__divmod__", self._wrap("poly.Poly.__divmod__", poly_cls.__divmod__, record=False)),
        ):
            self._restore.append((poly_cls, attr, vars(poly_cls)[attr]))
            setattr(poly_cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def abandon_open_spans(self):
        """Forget spans left open by a request cut off by its time limit."""
        self.abandoned += len(self._stack)
        self._stack.clear()
        self._depth.clear()

    def check_sums(self):
        """Module self times must add up to the time of the root spans."""
        total = sum(self.self_s.values())
        if self.abandoned:  # a time-out cut spans short; the sums need not match
            return total
        if abs(total - self.root_s) > 1e-6 * max(1.0, self.root_s):
            raise SpanError(
                f"module self times add up to {total:.6f} s, root spans to {self.root_s:.6f} s"
            )
        return total

    def layer_metrics(self, passes):
        """(all per-layer metrics for the report, metrics of the result line).

        Values are per pass of the request pool.  The result line gives a
        time in seconds only for layers that every workload enters
        (``ALWAYS_ENTERED``) and otherwise as a share of the traced request
        time, since a layer a workload never enters reads exactly 0 s on
        every run of it.
        """
        report, result = {}, {}
        total = self.root_s or 1.0
        for m in MODULES:
            report[f"{m}.self_s"] = (self.self_s[m] / passes, "s")
            report[f"{m}.self_share"] = (self.self_s[m] / total, "ratio")
            report[f"{m}.calls"] = (self.calls[m] / passes, "count")
            if m in ALWAYS_ENTERED:
                result[f"{m}.self_s"] = report[f"{m}.self_s"]
            result[f"{m}.self_share"] = report[f"{m}.self_share"]
            result[f"{m}.calls"] = report[f"{m}.calls"]
        for metric, (span, kind) in NAMED.items():
            if kind == "calls":
                report[metric] = result[metric] = (self.name_calls[span] / passes, "count")
                continue
            report[metric] = (self.incl_s[span] / passes, "s")
            share = metric[: -len(".s")] + ".share"
            report[share] = (self.incl_s[span] / total, "ratio")
            if metric in ALWAYS_TIMED:
                result[metric] = report[metric]
            else:
                result[share] = report[share]
        report["split.candidates"] = result["split.candidates"] = (self.candidates / passes, "count")
        report["split.hit_ratio"] = result["split.hit_ratio"] = (
            self.places_found / self.candidates if self.candidates else 0.0,
            "ratio",
        )
        report["local.hensel.max_precision"] = result["local.hensel.max_precision"] = (
            self.max_precision,
            "count",
        )
        return report, result

    def write_spans(self, path, meta):
        """Write the spans as JSON lines: a header, then one line per span."""
        t_base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(
                meta,
                names=self.names,
                fields=["request", "span", "parent", "name", "start_s", "end_s"],
            )
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.sids)):
                fh.write(
                    "[%d,%d,%d,%d,%.9f,%.9f]\n"
                    % (
                        self.rids[i],
                        self.sids[i],
                        self.parents[i],
                        self.name_ids[i],
                        self.starts[i] - t_base,
                        self.ends[i] - t_base,
                    )
                )


def _observe_search(tracer, args, kwargs, result):
    tracer.candidates += result.candidates_tried
    tracer.places_found += len(result.records)


def _observe_hensel(tracer, args, kwargs, result):
    tracer.max_precision = max(tracer.max_precision, result.precision)


_OBSERVERS = {
    "split.find_split_places": _observe_search,
    "local.hensel_lift_root": _observe_hensel,
}
