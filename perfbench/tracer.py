"""Span tracing of the package's layers, recorded from outside the package.

A :class:`Tracer` replaces layer entry points (module functions, class
methods, backend methods) with thin wrappers that record one span per
call -- name, start, end, parent span -- in memory, then puts the
originals back.  Nothing inside ``src/`` is changed or asked to
cooperate: the wrappers sit exactly at the boundaries where one layer
calls the next, so a span's *self time* (its duration minus the time its
children cover) is the time spent in that layer's own code.

Spans nest per thread (serving executes batches on a worker thread), so
each thread keeps its own stack and span list.
"""

from __future__ import annotations

import functools
import threading
import time

ROOT_LAYER = "engine.self"


class Tracer:
    """Records spans around patched entry points until :meth:`restore`."""

    def __init__(self):
        self._local = threading.local()
        self._lists: list = []
        self._lists_lock = threading.Lock()
        self._patches: list = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``owner`` is a module, a class or an instance.  ``note(args)``,
        when given, computes a value stored on the span from the call's
        positional arguments (used to tell serving batches apart).
        """
        self.patch(owner, attr, lambda original: self._wrapper(original, name, note))

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Put every wrapped entry point back as it was."""
        for owner, attr, own in reversed(self._patches):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    def _wrapper(self, fn, name: str, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._thread_state()
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, time.perf_counter(), None, parent, note(args) if note else None]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lists_lock:
                self._lists.append(state[0])
        return state

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every recorded span (patches stay in place)."""
        with self._lists_lock:
            for spans in self._lists:
                spans.clear()

    def roots(self) -> list:
        """One entry per outermost span, in start order.

        Each entry is a dict with the root's ``name``, ``start``, ``end``,
        ``note`` and ``self``: layer name -> summed self seconds over the
        root's whole span tree.  The root's own self time is reported
        under :data:`ROOT_LAYER`.
        """
        out = []
        with self._lists_lock:
            lists = [list(spans) for spans in self._lists]
        for spans in lists:
            child_time = [0.0] * len(spans)
            root_of = [0] * len(spans)
            for i, (_name, start, end, parent, _note) in enumerate(spans):
                if end is None:
                    continue
                if parent >= 0:
                    child_time[parent] += end - start
                    root_of[i] = root_of[parent]
                else:
                    root_of[i] = i
            by_root: dict = {}
            for i, (name, start, end, parent, _note) in enumerate(spans):
                if end is None:
                    continue
                layer = ROOT_LAYER if parent < 0 else name
                selfs = by_root.setdefault(root_of[i], {})
                selfs[layer] = selfs.get(layer, 0.0) + (end - start - child_time[i])
            for i, (name, start, end, parent, note) in enumerate(spans):
                if parent < 0 and end is not None:
                    out.append(
                        {"name": name, "start": start, "end": end, "note": note,
                         "self": by_root[i]}
                    )
        out.sort(key=lambda root: root["start"])
        return out

    def dump(self) -> list:
        """Every finished span as ``[thread, name, start, end, parent]``."""
        with self._lists_lock:
            return [
                [t, name, start, end, parent]
                for t, spans in enumerate(self._lists)
                for name, start, end, parent, _note in spans
                if end is not None
            ]


def install_engine_spans(tracer: Tracer, backend, batch_note=None) -> None:
    """Wrap the engine's layer entry points.

    ``backend`` is the engine's execution backend instance (its class is
    wrapped); ``batch_note`` becomes the ``note`` of ``engine.run_many``
    spans.

    Layers and the calls that bound them:

    * ``engine.run`` / ``engine.run_many`` / ``engine.spgemm`` -- the
      :class:`~repro.core.twostep.TwoStepEngine` operations (root spans;
      their self time is telemetry publish, report assembly and glue);
    * ``validation`` -- ``repro.faults.validation`` as the engine calls it;
    * ``plan.lookup`` -- ``TwoStepEngine.plan`` and the plan's cached
      ``step2_symbolic`` / ``spgemm_plan`` lookups;
    * ``plan.build`` / ``plan.symbolic`` / ``plan.spgemm`` -- cold builds;
    * ``step1`` -- the backend's ``map_stripe_plans[_batch]``;
    * ``step2`` -- ``repro.merge.prap``'s planned merge drivers, whose
      self time is the dense scatter of the batched path;
    * ``step2.merge`` / ``step2.inject`` / ``step2.scatter`` -- backend
      ``merge_accumulate_plan[_batch]``, ``inject_classes_plan``,
      ``scatter_dense_plan``;
    * ``segsum`` -- ``repro.core.segsum`` batched segment sums;
    * ``spgemm.products`` / ``spgemm.merge`` -- backend SpGEMM kernels.
    """
    from repro.core import plan as plan_mod
    from repro.core import segsum, step2, twostep

    engine_cls = twostep.TwoStepEngine
    tracer.wrap(engine_cls, "run", "engine.run")
    tracer.wrap(engine_cls, "run_many", "engine.run_many", note=batch_note)
    tracer.wrap(engine_cls, "spgemm", "engine.spgemm")
    tracer.wrap(engine_cls, "plan", "plan.lookup")
    tracer.wrap(twostep, "validate_inputs", "validation")
    tracer.wrap(twostep, "validate_matrix", "validation")
    tracer.wrap(twostep, "build_plan", "plan.build")
    tracer.wrap(plan_mod.ExecutionPlan, "step2_symbolic", "plan.lookup")
    tracer.wrap(plan_mod.ExecutionPlan, "spgemm_plan", "plan.lookup")
    tracer.wrap(plan_mod, "build_step2_symbolic", "plan.symbolic")
    tracer.wrap(plan_mod, "build_spgemm_plan", "plan.spgemm")
    tracer.wrap(step2, "prap_merge_dense_plan", "step2")
    tracer.wrap(step2, "prap_merge_dense_plan_batch", "step2")
    tracer.wrap(segsum, "segment_sum_batch", "segsum")
    tracer.wrap(segsum, "mul_segment_sum_batch", "segsum")
    backend_cls = type(backend)
    for attr, name in (
        ("map_stripe_plans", "step1"),
        ("map_stripe_plans_batch", "step1"),
        ("merge_accumulate_plan", "step2.merge"),
        ("merge_accumulate_plan_batch", "step2.merge"),
        ("inject_classes_plan", "step2.inject"),
        ("scatter_dense_plan", "step2.scatter"),
        ("spgemm_products", "spgemm.products"),
        ("spgemm_merge", "spgemm.merge"),
    ):
        tracer.wrap(backend_cls, attr, name)
