"""Spans and counters around walshmeans' public entry points.

`Tracer.install()` replaces each traced function with a timing wrapper
wherever the package binds it: in its own module and in every consumer
module that imported the name (`from .transform import forward_array`),
and on the class for methods.  `uninstall()` puts the originals back, so
untraced passes run the unmodified program.  A span's self time is its
duration minus the time covered by the spans it caused; the op root
span's self time is CLI time outside every library span.

This lives in the benchmark, not under `src/`: the in-program trace of
the roadmap is a later change.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

SHORT_ROW = 1 << 10     # transforms with N <= 2^10 count as short rows

KINDS = ("maximal", "llogl-experiment", "tensor", "mt2-experiment", "wlp",
         "upsilon", "c2-check", "example1", "kernel", "mean")

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"cli.{k}.s", "s", "lower") for k in KINDS]
    + [
        ("cli.self_s", "s", "lower"),
        ("csv.load.self_s", "s", "lower"),
        ("csv.save.self_s", "s", "lower"),
        ("csv.values", "count", "lower"),
        ("transform.calls", "count", "lower"),
        ("transform.rows", "count", "lower"),
        ("transform.short.self_s", "s", "lower"),
        ("transform.long.self_s", "s", "lower"),
        ("transform.elem_stages", "count", "lower"),
        ("transform.bytes_computed", "bytes", "lower"),
        ("transform.max_batch_bytes", "bytes", "lower"),
        ("summability.row.calls", "count", "lower"),
        ("summability.row.misses", "count", "lower"),
        ("summability.row.hit_ratio", "ratio", "higher"),
        ("summability.row.self_s", "s", "lower"),
        ("summability.weights.calls", "count", "lower"),
        ("summability.weights.self_s", "s", "lower"),
        ("summability.upsilon.calls", "count", "lower"),
        ("summability.upsilon.self_s", "s", "lower"),
        ("summability.tau.calls", "count", "lower"),
        ("summability.decomposition.self_s", "s", "lower"),
        ("summability.mean.self_s", "s", "lower"),
        ("maximal.bank.self_s", "s", "lower"),
        ("maximal.bank_bytes_max", "bytes", "lower"),
        ("maximal.experiment.self_s", "s", "lower"),
        ("maximal.trials", "count", "lower"),
        ("maximal.quasinorm.calls", "count", "lower"),
        ("maximal.quasinorm.values", "count", "lower"),
        ("maximal.quasinorm.self_s", "s", "lower"),
        ("maximal.llogl.self_s", "s", "lower"),
        ("maximal.dyadic.self_s", "s", "lower"),
        ("tensor.maximal.calls", "count", "lower"),
        ("tensor.maximal.self_s", "s", "lower"),
        ("tensor.apply_axis.self_s", "s", "lower"),
        ("tensor.experiment.self_s", "s", "lower"),
        ("lebesgue.classify.calls", "count", "lower"),
        ("lebesgue.classify.self_s", "s", "lower"),
        ("lebesgue.mt2.self_s", "s", "lower"),
        ("exact.divergence.self_s", "s", "lower"),
        ("exact.avg_sweep.self_s", "s", "lower"),
        ("exact.integral_over.calls", "count", "lower"),
        ("dyadic.rational_ops", "count", "lower"),
        ("dyadic.self_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
)

_MODULES = ("dyadic", "transform", "summability", "maximal", "tensor",
            "lebesgue", "exact", "cli")

_RATIONAL_OPS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__neg__", "__abs__", "times_pow2",
                 "__eq__", "__lt__")


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []        # child time of each open span
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _close(self, name: str, dt: float) -> None:
        child = self._stack.pop()
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def timed(self, name: str, fn, before=None, after=None):
        """`fn` wrapped in a span; `before(args, kwargs)` may return a
        different span name, `after(result, args, kwargs)` records counts."""
        stack, clock, close = self._stack, time.perf_counter, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = (before(args, kwargs) if before else None) or name
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(label, clock() - t0)
            if after:
                after(result, args, kwargs)
            return result
        return wrapper

    def counted(self, name: str, fn):
        """`fn` wrapped to count calls only; its time stays with the caller."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def root(self, name: str, fn, *args):
        """Run `fn(*args)` as an op root span."""
        return self.timed(name, fn)(*args)

    # -- patching ----------------------------------------------------------

    def _patch_function(self, modules, owner, attr, wrap):
        original = getattr(owner, attr)
        wrapper = wrap(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def _patch_method(self, cls, attr, wrap):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def install(self) -> None:
        m = {name: importlib.import_module(f"walshmeans.{name}") for name in _MODULES}
        mods = list(m.values())

        def fn(module, attr, name, before=None, after=None):
            self._patch_function(mods, m[module], attr,
                                 lambda f: self.timed(name, f, before, after))

        def transform_before(args, kwargs):
            shape = getattr(args[0], "shape", None) or (len(args[0]),)
            n = shape[-1]
            rows = 1
            for d in shape[:-1]:
                rows *= d
            K = n.bit_length() - 1
            self.add("transform.calls")
            self.add("transform.rows", rows)
            self.add("transform.elem_stages", rows * n * K)
            self.add("transform.bytes_computed", 16 * rows * n)
            self.peak("transform.max_batch_bytes", 8 * rows * n)
            return "transform.short" if n <= SHORT_ROW else "transform.long"

        fn("transform", "forward_array", "transform", transform_before)
        fn("transform", "inverse_array", "transform", transform_before)

        def loaded(result, args, kwargs):
            self.add("csv.values", result.samples.size)

        def saving(args, kwargs):
            self.add("csv.values", args[0].samples.size)

        fn("transform", "load_grid1d", "csv.load", after=loaded)
        fn("tensor", "load_grid2d", "csv.load", after=loaded)
        fn("transform", "save_grid1d", "csv.save", saving)
        fn("tensor", "save_grid2d", "csv.save", saving)

        TM = m["summability"].TransformationMatrix
        self._patch_method(TM, "row", lambda f: self.timed("summability.row", f))
        self._patch_method(TM, "_validate",
                           lambda f: self.counted("summability.row.misses", f))
        self._patch_method(TM, "tau", lambda f: self.counted("summability.tau.calls", f))
        fn("summability", "mean_coefficient_weights", "summability.weights")
        fn("summability", "upsilon", "summability.upsilon")
        fn("summability", "kernel_decomposition", "summability.decomposition")
        fn("summability", "apply_mean", "summability.mean")
        fn("summability", "kernel_V", "summability.kernel")
        fn("summability", "c2_quantity", "summability.c2")
        fn("summability", "matrix_from_spec", "summability.spec")

        def bank_size(result, args, kwargs):
            self.peak("maximal.bank_bytes_max", result.nbytes)

        trials_of = inspect.signature(m["maximal"].weak_type_experiment)

        def count_trials(args, kwargs):
            self.add("maximal.trials", trials_of.bind(*args, **kwargs).arguments["trials"])

        def count_values(args, kwargs):
            self.add("maximal.quasinorm.values", args[0].size)

        fn("maximal", "_mean_weight_matrix", "maximal.bank", after=bank_size)
        fn("maximal", "abs_kernel_spectra", "maximal.bank", after=bank_size)
        fn("maximal", "weak_type_experiment", "maximal.experiment", count_trials)
        fn("maximal", "_weak_quasinorm_values", "maximal.quasinorm", count_values)
        fn("maximal", "_llogl_values", "maximal.llogl")
        fn("maximal", "dyadic_maximal", "maximal.dyadic")
        fn("maximal", "subsequence_from_spec", "maximal.subsequence")

        fn("tensor", "tensor_maximal", "tensor.maximal")
        fn("tensor", "apply_axis", "tensor.apply_axis")
        fn("tensor", "llogl_weak_type_experiment", "tensor.experiment")
        fn("tensor", "tensor_mean", "tensor.mean")

        fn("lebesgue", "classify_wlp", "lebesgue.classify")
        fn("lebesgue", "mt2_convergence_experiment", "lebesgue.mt2")

        fn("exact", "divergence_report", "exact.divergence")
        fn("exact", "avg_sweep_at_zero", "exact.avg_sweep")
        fn("exact", "build_example1", "exact.build")
        fn("exact", "validate_nseq", "exact.validate")
        self._patch_method(m["exact"].SparseStepFunction, "integral_over",
                           lambda f: self.timed("exact.integral_over", f))
        DR = m["dyadic"].DyadicRational
        for attr in _RATIONAL_OPS:
            self._patch_method(DR, attr, lambda f: self.timed("dyadic", f))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- metrics -------------------------------------------------------------

    def metrics(self, op_seconds: dict[str, float], untraced_wall: float,
                traced_wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass.

        `op_seconds` maps each subcommand to its summed time in the paired
        untraced pass, whose wall time is `untraced_wall`.
        """
        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[2]

        roots = [rec for name, rec in self.spans.items() if name.startswith("cli.")]
        op_total = sum(rec[1] for rec in roots)
        cli_self = sum(rec[2] for rec in roots)
        row_calls = calls("summability.row")
        misses = self.counts.get("summability.row.misses", 0)
        values = {f"cli.{k}.s": op_seconds.get(k, 0.0) for k in KINDS}
        values.update({
            "cli.self_s": cli_self,
            "csv.load.self_s": self_s("csv.load"),
            "csv.save.self_s": self_s("csv.save"),
            "transform.short.self_s": self_s("transform.short"),
            "transform.long.self_s": self_s("transform.long"),
            "summability.row.calls": row_calls,
            "summability.row.hit_ratio": 1.0 - misses / row_calls if row_calls else 0.0,
            "summability.row.self_s": self_s("summability.row"),
            "summability.weights.calls": calls("summability.weights"),
            "summability.weights.self_s": self_s("summability.weights"),
            "summability.upsilon.calls": calls("summability.upsilon"),
            "summability.upsilon.self_s": self_s("summability.upsilon"),
            "summability.decomposition.self_s": self_s("summability.decomposition"),
            "summability.mean.self_s": self_s("summability.mean"),
            "maximal.bank.self_s": self_s("maximal.bank"),
            "maximal.experiment.self_s": self_s("maximal.experiment"),
            "maximal.quasinorm.calls": calls("maximal.quasinorm"),
            "maximal.quasinorm.self_s": self_s("maximal.quasinorm"),
            "maximal.llogl.self_s": self_s("maximal.llogl"),
            "maximal.dyadic.self_s": self_s("maximal.dyadic"),
            "tensor.maximal.calls": calls("tensor.maximal"),
            "tensor.maximal.self_s": self_s("tensor.maximal"),
            "tensor.apply_axis.self_s": self_s("tensor.apply_axis"),
            "tensor.experiment.self_s": self_s("tensor.experiment"),
            "lebesgue.classify.calls": calls("lebesgue.classify"),
            "lebesgue.classify.self_s": self_s("lebesgue.classify"),
            "lebesgue.mt2.self_s": self_s("lebesgue.mt2"),
            "exact.divergence.self_s": self_s("exact.divergence"),
            "exact.avg_sweep.self_s": self_s("exact.avg_sweep"),
            "exact.integral_over.calls": calls("exact.integral_over"),
            "dyadic.rational_ops": calls("dyadic"),
            "dyadic.self_s": self_s("dyadic"),
            "trace.coverage": 1.0 - cli_self / op_total if op_total else 0.0,
            "trace.overhead": traced_wall / untraced_wall - 1.0,
        })
        for name, _, _ in METRICS:
            if name not in values:
                values[name] = self.counts.get(name, 0)
        return {name: values[name] for name, _, _ in METRICS}
