"""Seeded workload generators with a plain-dict oracle.

Every generator takes its seed as an argument.  The defaults are the
``0x5EED*`` constants of ``benchmarks/workloads.py``, and at the default seed
each generator draws from its RNG in the same order as the generator of the
same name there, so it emits the identical operation sequence
(``perfbench/tests/test_oracle.py`` pins this).

While a generator emits operations it also applies them to a :class:`Model`
— a dict keyed by the spec's key, with no code from ``repro`` behind it —
and records the expected answer of every query and the expected final state.
Answers are compared as fingerprints ``(row count, sum of row hashes mod
2**64)``, so a 1,000-row scan costs one hash per row to check.  Row hashes
are the hashes of the equal :class:`repro.Tuple` values, because the
relation returns ``Tuple`` objects and ``Tuple`` equality is what "same
answer" means.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from repro import RelationSpec, Tuple

MASK = (1 << 64) - 1

#: Operation classes, decided by a property of the input: a query whose
#: bound columns contain a minimal key is a lookup; every other query and
#: every range query is a scan; insert, remove and update are writes.
LOOKUP, SCAN, WRITE = 0, 1, 2
CLASSES = ("lookup", "scan", "write")

#: ``(class, kind, a, b, expected)``: ``kind`` is insert/remove/update/query/
#: range; ``a``/``b`` are the call's arguments (``b`` is ``(lo, hi)`` for a
#: range); ``expected`` is the answer fingerprint of a read, ``None`` for a
#: write.
Op = PyTuple


class Model:
    """The relation as a plain dict ``key values -> row values``.

    Scans are answered from per-``(pattern columns, output columns)``
    aggregates that are built on first use and then kept up to date by every
    write, so recording the answer of a scan over thousands of rows is O(1).
    """

    def __init__(self, columns: Sequence[str], key: Sequence[str]):
        self.columns = tuple(sorted(columns))
        self.key = tuple(sorted(key))
        self._index = {c: i for i, c in enumerate(self.columns)}
        self._kidx = tuple(self._index[c] for c in self.key)
        self.rows: Dict[tuple, tuple] = {}
        self._state = [0, 0]
        # (pattern idxs, output cols) -> {pattern values: [{output values: multiplicity}, n, s]}
        self._aggs: Dict[tuple, Dict[tuple, list]] = {}
        self._hashes: Dict[tuple, int] = {}

    def _h(self, cols: tuple, vals: tuple) -> int:
        memo_key = (cols, vals)
        h = self._hashes.get(memo_key)
        if h is None:
            h = self._hashes[memo_key] = hash(Tuple(dict(zip(cols, vals))))
        return h

    def _agg_add(self, agg_key: tuple, agg: Dict[tuple, list], row: tuple, sign: int) -> None:
        pidx, out_cols = agg_key
        pv = tuple(row[i] for i in pidx)
        ov = tuple(row[self._index[c]] for c in out_cols)
        entry = agg.get(pv)
        if entry is None:
            entry = agg[pv] = [{}, 0, 0]
        seen = entry[0]
        count = seen.get(ov, 0) + sign
        if count == 0:
            del seen[ov]
        else:
            seen[ov] = count
        if (sign > 0 and count == 1) or count == 0:
            entry[1] += sign
            entry[2] = (entry[2] + sign * self._h(out_cols, ov)) & MASK

    def _add(self, row: tuple) -> None:
        self.rows[tuple(row[i] for i in self._kidx)] = row
        self._state[0] += 1
        self._state[1] = (self._state[1] + self._h(self.columns, row)) & MASK
        for agg_key, agg in self._aggs.items():
            self._agg_add(agg_key, agg, row, 1)

    def _drop(self, row: tuple) -> None:
        del self.rows[tuple(row[i] for i in self._kidx)]
        self._state[0] -= 1
        self._state[1] = (self._state[1] - self._h(self.columns, row)) & MASK
        for agg_key, agg in self._aggs.items():
            self._agg_add(agg_key, agg, row, -1)

    def _row(self, values: Dict[str, object]) -> tuple:
        if set(values) != set(self.columns):
            raise ValueError(f"row {values!r} is not over columns {self.columns}")
        return tuple(values[c] for c in self.columns)

    def _victims(self, pattern: Dict[str, object]) -> List[tuple]:
        idx = self._index
        if set(self.key) <= set(pattern):
            row = self.rows.get(tuple(pattern[c] for c in self.key))
            candidates = [] if row is None else [row]
        else:
            candidates = list(self.rows.values())
        return [r for r in candidates if all(r[idx[c]] == v for c, v in pattern.items())]

    # -- the five operations -------------------------------------------------

    def insert(self, values: Dict[str, object]) -> None:
        row = self._row(values)
        old = self.rows.get(tuple(row[i] for i in self._kidx))
        if old is None:
            self._add(row)
        elif old != row:
            raise ValueError(f"generator bug: insert {values!r} conflicts with {old!r}")

    def remove(self, pattern: Dict[str, object]) -> None:
        for row in self._victims(pattern):
            self._drop(row)

    def update(self, pattern: Dict[str, object], changes: Dict[str, object]) -> None:
        victims = self._victims(pattern)
        for row in victims:
            self._drop(row)
        for row in victims:
            merged = list(row)
            for c, v in changes.items():
                merged[self._index[c]] = v
            self.insert(dict(zip(self.columns, merged)))

    def query(self, pattern: Dict[str, object], output: Optional[str]) -> PyTuple[int, int]:
        out_cols = self.columns if output is None else tuple(
            sorted(c.strip() for c in output.split(","))
        )
        if set(self.key) <= set(pattern):
            found = self._victims(pattern)
            if not found:
                return (0, 0)
            row = found[0]
            return (1, self._h(out_cols, tuple(row[self._index[c]] for c in out_cols)) & MASK)
        pcols = tuple(sorted(pattern))
        agg_key = (tuple(self._index[c] for c in pcols), out_cols)
        agg = self._aggs.get(agg_key)
        if agg is None:
            agg = self._aggs[agg_key] = {}
            for row in self.rows.values():
                self._agg_add(agg_key, agg, row, 1)
        entry = agg.get(tuple(pattern[c] for c in pcols))
        return (0, 0) if entry is None else (entry[1], entry[2])

    def range(self, column: str, lo, hi) -> PyTuple[int, int]:
        i = self._index[column]
        n = s = 0
        for row in self.rows.values():
            if (lo is None or row[i] >= lo) and (hi is None or row[i] <= hi):
                n += 1
                s += self._h(self.columns, row)
        return (n, s & MASK)

    def state(self) -> PyTuple[int, int]:
        """Fingerprint of the whole relation (all columns)."""
        return (self._state[0], self._state[1])


def fingerprint(rows) -> PyTuple[int, int]:
    """The fingerprint of a query result, comparable with :class:`Model` answers."""
    return (len(rows), sum(map(hash, rows)) & MASK)


class Generated:
    """A generated workload: spec, hand layout, ops and the oracle's answers.

    ``ops[:load]`` are the initial inserts.  ``final`` is the fingerprint of
    the relation after every op ran.
    """

    def __init__(self, name: str, spec: RelationSpec, layout: str, key: Sequence[str]):
        self.name = name
        self.spec = spec
        self.layout = layout
        self.key = frozenset(key)
        self.model = Model(spec.columns, key)
        self.ops: List[Op] = []
        self.load = 0
        self.final: PyTuple[int, int] = (0, 0)

    # -- emitters: build the op, apply it to the model, record the answer ----

    def insert(self, **row) -> None:
        self.model.insert(row)
        self.ops.append((WRITE, "insert", Tuple(row), None, None))

    def remove(self, pattern: Optional[Dict[str, object]]) -> None:
        self.model.remove(pattern or {})
        self.ops.append((WRITE, "remove", None if pattern is None else Tuple(pattern), None, None))

    def update(self, pattern: Dict[str, object], changes: Dict[str, object]) -> None:
        self.model.update(pattern, changes)
        self.ops.append((WRITE, "update", Tuple(pattern), Tuple(changes), None))

    def query(self, pattern: Dict[str, object], output: Optional[str]) -> None:
        cls = LOOKUP if self.key <= set(pattern) else SCAN
        self.ops.append((cls, "query", Tuple(pattern), output, self.model.query(pattern, output)))

    def range(self, column: str, lo, hi) -> None:
        self.ops.append((SCAN, "range", column, (lo, hi), self.model.range(column, lo, hi)))

    def mark_load(self) -> None:
        self.load = len(self.ops)

    def done(self) -> "Generated":
        self.final = self.model.state()
        self.model = None  # The aggregates are only needed while generating.
        return self

    def trace_operations(self) -> List[tuple]:
        """The ops in the ``(kind, *args)`` format of :class:`repro.autotuner.Trace`."""
        out = []
        for _cls, kind, a, b, _expected in self.ops:
            if kind in ("insert", "remove"):
                out.append((kind, a))
            elif kind == "range":
                out.append((kind, a, b[0], b[1]))
            else:
                out.append((kind, a, b))
        return out


SCHEDULER_SPEC = ("ns, pid, state, cpu", ["ns, pid -> state, cpu"], "process")
SCHEDULER_LAYOUT = (
    "[ns -> htable pid -> btree {state, cpu}"
    " ; state -> htable (ns, pid -> dlist {cpu})]"
)
#: The §3 shared-record layout: one record reached from the key index and the
#: per-state lists, unlinked in O(1) from the intrusive list.
SHARED_SCHEDULER_LAYOUT = (
    "[ns, pid -> htable (state -> htable @rec)"
    " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
)
EDGE_SPEC = ("src, dst, weight", ["src, dst -> weight"], "edge")
SPLIT_GRAPH_LAYOUT = (
    "[src -> htable (dst -> htable {weight})"
    " ; dst -> htable (src -> htable {})]"
)
FORWARD_GRAPH_LAYOUT = "src -> htable (dst -> htable {weight})"
STATES = ["running", "sleeping", "waiting"]


def _spec(text: str, fds: List[str], name: str) -> RelationSpec:
    return RelationSpec(text, fds=fds, name=name)


def scheduler(scale: int, seed: int = 0x5EED0, steps: Optional[int] = None) -> Generated:
    """The paper's process scheduler: key lookups, per-state scans, updates, respawns.

    ``(scale // 50) * 50`` processes; ``steps`` (default ``scale * 10``) draws
    of the operation mix.
    """
    g = Generated("scheduler", _spec(*SCHEDULER_SPEC), SCHEDULER_LAYOUT, ["ns", "pid"])
    rng = random.Random(seed)
    processes = [(ns, pid) for ns in range(max(2, scale // 50)) for pid in range(50)]
    for ns, pid in processes:
        g.insert(ns=ns, pid=pid, state=rng.choice(STATES), cpu=rng.randrange(4))
    g.mark_load()
    for _ in range(scale * 10 if steps is None else steps):
        ns, pid = rng.choice(processes)
        roll = rng.random()
        if roll < 0.35:
            g.query({"ns": ns, "pid": pid}, "state, cpu")
        elif roll < 0.55:
            g.query({"state": rng.choice(STATES)}, "ns, pid")
        elif roll < 0.85:
            g.update({"ns": ns, "pid": pid}, {"state": rng.choice(STATES), "cpu": rng.randrange(4)})
        else:  # Process exit and re-spawn.
            g.remove({"ns": ns, "pid": pid})
            g.insert(ns=ns, pid=pid, state="running", cpu=rng.randrange(4))
    return g.done()


def context_switch(
    processes: int, steps: int, seed: int = 0x5EED8, cpus: int = 1
) -> Generated:
    """Write-heavy scheduler churn on the shared-record layout.

    At most ``cpus`` processes are running; the rest wait in the run queue or
    sleep.  Context switches, wake-ups, blocks and exit/respawn are writes
    (about 7 in 8 ops); the reads are single-process lookups and
    "who is running" scans that return at most ``cpus`` rows.

    One CPU is the default because a scan's chance of triggering a garbage
    collection grows with the rows it builds: with one row it is about
    0.5%, clear of the 1% that a p99 resolves, while at 4 CPUs it sat near
    1% and the scan p99 jumped between 35 and 300 µs from seed to seed.
    """
    g = Generated(
        "context_switch", _spec(*SCHEDULER_SPEC), SHARED_SCHEDULER_LAYOUT, ["ns", "pid"]
    )
    rng = random.Random(seed)
    procs = [(ns, pid) for ns in range(max(1, processes // 50)) for pid in range(50)]
    # state -> list of processes, with O(1) random pick and swap-remove.
    members: Dict[str, List[tuple]] = {s: [] for s in STATES}
    where: Dict[tuple, int] = {}
    cpu_of: Dict[tuple, int] = {}

    def place(p: tuple, state: str) -> None:
        where[p] = len(members[state])
        members[state].append(p)

    def unplace(p: tuple, state: str) -> None:
        lst = members[state]
        i = where.pop(p)
        last = lst.pop()
        if last != p:
            lst[i] = last
            where[last] = i

    state_of: Dict[tuple, str] = {}
    for i, p in enumerate(procs):
        state = "running" if i < cpus else ("waiting" if rng.random() < 0.05 else "sleeping")
        cpu = i if i < cpus else rng.randrange(cpus)
        state_of[p] = state
        cpu_of[p] = cpu
        place(p, state)
        g.insert(ns=p[0], pid=p[1], state=state, cpu=cpu)
    g.mark_load()

    def move(p: tuple, state: str, cpu: Optional[int] = None) -> None:
        unplace(p, state_of[p])
        state_of[p] = state
        place(p, state)
        changes: Dict[str, object] = {"state": state}
        if cpu is not None:
            cpu_of[p] = cpu
            changes["cpu"] = cpu
        g.update({"ns": p[0], "pid": p[1]}, changes)

    for _ in range(steps):
        roll = rng.random()
        if roll < 0.40:  # Context switch: a running process yields its CPU.
            if members["running"] and members["waiting"]:
                out = rng.choice(members["running"])
                into = rng.choice(members["waiting"])
                move(out, "waiting")
                move(into, "running", cpu_of[out])
        elif roll < 0.60:  # Exit and respawn of a process that is off-CPU.
            pool = members["sleeping"] if rng.random() < 0.8 else members["waiting"]
            if pool:
                p = rng.choice(pool)
                unplace(p, state_of[p])
                g.remove({"ns": p[0], "pid": p[1]})
                state_of[p] = "sleeping"
                cpu_of[p] = rng.randrange(cpus)
                place(p, "sleeping")
                g.insert(ns=p[0], pid=p[1], state="sleeping", cpu=cpu_of[p])
        elif roll < 0.75:  # Wake-up.
            if members["sleeping"]:
                move(rng.choice(members["sleeping"]), "waiting")
        elif roll < 0.80:  # Block.
            if len(members["waiting"]) > 1:
                move(rng.choice(members["waiting"]), "sleeping")
        elif roll < 0.92:
            p = rng.choice(procs)
            g.query({"ns": p[0], "pid": p[1]}, "state, cpu")
        else:
            g.query({"state": "running"}, None)
    return g.done()


def _edges(rng: random.Random, scale: int) -> Dict[PyTuple[int, int], int]:
    nodes = max(16, scale // 2)
    edges: Dict[PyTuple[int, int], int] = {}
    while len(edges) < max(32, scale * 2):
        edges.setdefault((rng.randrange(nodes), rng.randrange(nodes)), rng.randrange(100))
    return edges


def _graph_churn(g: Generated, rng: random.Random, edge_list: list, hot: str) -> None:
    """One draw of the graph mix; ``hot`` is the column the hot query binds."""
    roll = rng.random()
    src, dst = rng.choice(edge_list)
    if roll < 0.6:
        if hot == "src":
            g.query({"src": src}, "dst, weight")
        else:
            g.query({"dst": dst}, "src, weight")
    elif roll < 0.75:
        g.query({"src": src, "dst": dst}, "weight")
    elif roll < 0.9:
        g.update({"src": src, "dst": dst}, {"weight": rng.randrange(100)})
    else:
        g.remove({"src": src, "dst": dst})
        g.insert(src=src, dst=dst, weight=rng.randrange(100))


def graph_reverse(scale: int, seed: int = 0x5EED5, steps: Optional[int] = None) -> Generated:
    """Reverse-neighbour-heavy graph: the hot query binds ``dst`` and wants weights.

    ``steps`` (default ``scale * 8``) draws of the mix.
    """
    g = Generated("graph_reverse", _spec(*EDGE_SPEC), SPLIT_GRAPH_LAYOUT, ["src", "dst"])
    rng = random.Random(seed)
    edges = _edges(rng, scale)
    for (s, d), w in sorted(edges.items()):
        g.insert(src=s, dst=d, weight=w)
    g.mark_load()
    edge_list = sorted(edges)
    for _ in range(scale * 8 if steps is None else steps):
        _graph_churn(g, rng, edge_list, "dst")
    return g.done()


def graph_drift(scale: int, seed: int = 0x5EED6, tail_steps: Optional[int] = None) -> Generated:
    """A graph whose hot query flips from ``{src}`` to ``{dst}``.

    ``scale * 4`` draws of the forward mix, then ``tail_steps`` (default
    ``scale * 4``) draws of the reverse mix.
    """
    g = Generated("graph_drift", _spec(*EDGE_SPEC), FORWARD_GRAPH_LAYOUT, ["src", "dst"])
    rng = random.Random(seed)
    edges = _edges(rng, scale)
    for (s, d), w in sorted(edges.items()):
        g.insert(src=s, dst=d, weight=w)
    g.mark_load()
    edge_list = sorted(edges)
    for _ in range(scale * 4):
        _graph_churn(g, rng, edge_list, "src")
    for _ in range(scale * 4 if tail_steps is None else tail_steps):
        _graph_churn(g, rng, edge_list, "dst")
    return g.done()


def ordered_scan(scale: int, seed: int = 0x5EED7, steps: Optional[int] = None) -> Generated:
    """A time-series event log scanned by timestamp windows.

    ``steps`` (default ``scale * 6``) draws of the mix.
    """
    g = Generated(
        "ordered_scan",
        _spec("ts, sensor, reading", ["ts -> sensor, reading"], "event"),
        "ts -> btree {sensor, reading}",
        ["ts"],
    )
    rng = random.Random(seed)
    span = max(64, scale * 4)
    stamps = list(range(span))
    rng.shuffle(stamps)
    sensors = ["temp", "flow", "volt"]
    for ts in stamps:
        g.insert(ts=ts, sensor=rng.choice(sensors), reading=rng.randrange(1000))
    g.mark_load()
    for _ in range(scale * 6 if steps is None else steps):
        roll = rng.random()
        ts = rng.randrange(span)
        if roll < 0.4:
            width = rng.randrange(1, max(2, span // 8))
            g.range("ts", ts, min(span - 1, ts + width))
        elif roll < 0.6:
            g.query({"ts": ts}, "sensor, reading")
        elif roll < 0.85:
            g.update({"ts": ts}, {"reading": rng.randrange(1000)})
        else:
            g.remove({"ts": ts})
            g.insert(ts=ts, sensor=rng.choice(sensors), reading=rng.randrange(1000))
    return g.done()


def spanning(scale: int, seed: int = 0x5EED2, steps: Optional[int] = None) -> Generated:
    """Spanning-forest components: union by one bulk pattern update.

    ``steps`` (default ``scale * 4``) draws of the mix.
    """
    g = Generated(
        "spanning",
        _spec("node, comp", ["node -> comp"], "component"),
        "[node -> htable {comp} ; comp -> htable (node -> dlist {})]",
        ["node"],
    )
    rng = random.Random(seed)
    nodes = max(16, scale)
    for n in range(nodes):
        g.insert(node=n, comp=n)
    g.mark_load()
    live = list(range(nodes))
    for _ in range(scale * 4 if steps is None else steps):
        roll = rng.random()
        if roll < 0.35 and len(live) > 1:
            a, b = rng.sample(live, 2)
            g.update({"comp": a}, {"comp": b})
            live.remove(a)
        elif roll < 0.7:
            g.query({"node": rng.randrange(nodes)}, "comp")
        else:
            g.query({"comp": rng.choice(live)}, "node")
        if len(live) <= max(2, nodes // 8):
            g.remove(None)
            for n in range(nodes):
                g.insert(node=n, comp=n)
            live = list(range(nodes))
    return g.done()


def derive_seed(base: int, seed: int, stream: int = 0) -> int:
    """The generator seed for benchmark seed *seed*: distinct per generator
    (*base*) and per use (*stream*: 0 tunes, 1 serves held-out traffic)."""
    return (base << 40) ^ (stream << 32) ^ (seed & 0xFFFFFFFF)
