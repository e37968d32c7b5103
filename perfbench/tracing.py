"""The traced run's recorder: spans and counts taken from outside the library.

:class:`Recorder` wraps public functions and methods of ``repro`` for the
duration of a ``with`` block and restores them on exit.  Each call becomes a
span — name, start and end in ns, parent span index and op id — kept in
memory in one array per field; a span's self time is its duration minus the
time of its child spans.  A
wrapped function is patched in every ``repro`` module that holds it, so
calls through ``from ... import`` bindings are seen too.  A target that no
longer exists is listed in :attr:`Recorder.missing` and its metrics read
zero.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro import Tuple

#: ``(module, attribute, span name)`` of each wrapped function.  The module
#: is where the function is defined; every ``repro`` module that imported it
#: is patched as well.
FUNCTIONS = (
    ("repro.live", "open_relation", "repro.open"),
    ("repro.codegen.compiler", "compile_relation", "codegen.compile"),
    ("repro.decomposition.plan", "plan_query", "decomposition.plan"),
    ("repro.autotuner.trace", "replay_trace", "decomposition.replay"),
    ("repro.autotuner.tuner", "autotune", "autotuner.autotune"),
    ("repro.autotuner.enumerator", "enumerate_decompositions", "autotuner.enumerate"),
    ("repro.autotuner.scorer", "static_cost", "autotuner.static"),
    ("repro.autotuner.scorer", "exact_accesses", "autotuner.exact"),
)
#: The live relation's re-tune, spanned as ``live.retune`` and counted.
RETUNE = ("repro.live", "LiveRelation", "retune")
#: Methods of every generated relation class, wrapped when
#: ``compile_relation`` returns the class.
GENERATED_METHODS = ("insert", "remove", "update", "query", "query_range")


def _resolve(module_name: str, attr: str):
    """``module.attr``, or ``None`` when either no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


class Recorder:
    """Spans and counts of one traced run (see the module docstring)."""

    def __init__(self) -> None:
        #: Span ``i`` is ``names[name_ids[i]]``, ``starts[i]``..``ends[i]``
        #: (ns), child of span ``parents[i]`` (-1: none), during op ``ops[i]``.
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: List[int] = []
        #: Index of the op being served; -1 outside the serve loop.
        self.op_id = -1
        #: ``Tuple`` constructions seen so far.
        self.tuples = 0
        #: ``LiveRelation.retune`` calls seen so far.
        self.retunes = 0
        #: Every ``TuningResult`` returned by ``autotune``.
        self.tunings: list = []
        #: Source lines of every class ``compile_relation`` generated.
        self.source_lines = 0
        self.missing: List[str] = []
        self._undo: List[tuple] = []
        self._wrapped_classes: set = set()

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """*fn* recording a span named *name* per call; ``after(result)``
        runs on each successful return."""
        nid = self.name_id(name)
        add_name = self.name_ids.append
        add_start = self.starts.append
        add_end = self.ends.append
        add_parent = self.parents.append
        add_op = self.ops.append
        ends = self.ends
        stack = self._stack
        rec = self

        def traced(*args, **kwargs):
            index = len(ends)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_op(rec.op_id)
            add_end(0)
            stack.append(index)
            add_start(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _after_autotune(self, result) -> None:
        self.tunings.append(result)

    def _after_compile(self, cls) -> None:
        if cls in self._wrapped_classes:
            return
        self._wrapped_classes.add(cls)
        self.source_lines += len(getattr(cls, "__repro_source__", "").splitlines())
        for method in GENERATED_METHODS:
            fn = cls.__dict__.get(method)
            if fn is not None:
                self._set(cls, method, self.wrap(f"codegen.{method}", fn))

    def _counted_retune(self, retune: Callable) -> Callable:
        rec = self

        def counted(*args, **kwargs):
            rec.retunes += 1
            return retune(*args, **kwargs)

        return counted

    def __enter__(self) -> "Recorder":
        hooks = {
            "autotuner.autotune": self._after_autotune,
            "codegen.compile": self._after_compile,
        }
        for module_name, attr, name in FUNCTIONS:
            fn = _resolve(module_name, attr)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(name, fn, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for binding in [k for k, v in mod.__dict__.items() if v is fn]:
                    self._set(mod, binding, wrapped)
        module_name, cls_name, attr = RETUNE
        cls = _resolve(module_name, cls_name)
        if cls is None or attr not in cls.__dict__:
            self.missing.append(".".join(RETUNE))
        else:
            self._set(cls, attr, self.wrap("live.retune", self._counted_retune(cls.__dict__[attr])))
        self._patch_tuple()
        return self

    def _patch_tuple(self) -> None:
        rec = self
        init = Tuple.__init__
        from_sorted = Tuple.__dict__["from_sorted_items"].__func__

        def counted_init(tup, *args, **kwargs):
            rec.tuples += 1
            init(tup, *args, **kwargs)

        def counted_from_sorted(cls, items):
            rec.tuples += 1
            return from_sorted(cls, items)

        self._set(Tuple, "__init__", counted_init)
        self._set(Tuple, "from_sorted_items", classmethod(counted_from_sorted))

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived numbers -------------------------------------------------------

    def layer_times(
        self, start: int = 0, stop: Optional[int] = None, in_ops: bool = False
    ) -> Dict[str, list]:
        """``name -> [calls, inclusive ns, self ns]`` over spans ``start:stop``;
        with *in_ops*, only spans recorded while an op was being served."""
        starts, ends, parents, ops = self.starts, self.ends, self.parents, self.ops
        child = array("q", bytes(8 * len(starts)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        totals: Dict[int, list] = {}
        for i in range(start, len(starts) if stop is None else stop):
            if in_ops and ops[i] < 0:
                continue
            agg = totals.get(self.name_ids[i])
            if agg is None:
                agg = totals[self.name_ids[i]] = [0, 0, 0]
            took = ends[i] - starts[i]
            agg[0] += 1
            agg[1] += took
            agg[2] += took - child[i]
        return {self.names[nid]: agg for nid, agg in totals.items()}

    def write(self, path: str, extra: Dict[str, object]) -> None:
        """Write the run's numbers and every span to a gzip file.

        The file holds one JSON line — *extra*, the span names, and the
        typecode and length of each span field — followed by the fields'
        arrays as raw bytes in the machine's byte order.
        """
        fields = (
            ("name", self.name_ids),
            ("start_ns", self.starts),
            ("end_ns", self.ends),
            ("parent", self.parents),
            ("op", self.ops),
        )
        header = dict(extra)
        header.update(
            names=self.names,
            missing=self.missing,
            byteorder=sys.byteorder,
            fields=[[field, arr.typecode, len(arr)] for field, arr in fields],
        )
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _field, arr in fields:
                fh.write(arr.tobytes())
