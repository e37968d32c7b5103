"""The compiled representation tier (the paper's code generator, in Python).

RELC's headline result is that *synthesized* representations are compiled —
the C++ generator emits specialised member functions for each decomposition.
This package is the reproduction's equivalent on top of the Python stack:

* :func:`generate_source` — emit the source of a standalone relation class
  specialised to one ``(RelationSpec, Decomposition)`` pair: unrolled
  insert/remove paths over plain dicts/lists, and per-pattern query methods
  generated from query plans behind a compile-time dispatch table;
* :func:`compile_relation` — generate, ``exec`` and return the class, ready
  to instantiate and use interchangeably with
  :class:`~repro.core.reference.ReferenceRelation`.

The two tiers trade generality for speed:

=============  ==================================  =========================
Tier           Implementation                      Cost per operation
=============  ==================================  =========================
reference      set of tuples, defining equations   O(n) scans everywhere
compiled       ``compile_relation(spec, d)()``     straight-line specialised
=============  ==================================  =========================

The compiled class is also what the autotuner scores: every candidate
layout is compiled and replayed, so a layout is judged by the code it
generates.  ``benchmarks/`` drives both tiers through identical traces and
records the resulting throughput and operation counts.
"""

from .compiler import (
    MAX_ENUMERATED_COLUMNS,
    clear_codegen_cache,
    codegen_cache_stats,
    compile_relation,
    generate_source,
    generate_source_and_meta,
)

__all__ = [
    "MAX_ENUMERATED_COLUMNS",
    "clear_codegen_cache",
    "codegen_cache_stats",
    "compile_relation",
    "generate_source",
    "generate_source_and_meta",
]
