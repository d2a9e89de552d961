"""Finite metric spaces: construction, validation, generation, and file I/O.

Two arithmetic modes are supported.  Integer mode keeps every distance
exact, in the narrowest of uint8, int16, int32 and int64 that holds the
table; a caller widens before any arithmetic that could leave that type.
Ties compare the stored entries exactly in both modes, and floating mode's
slack `eps` serves only validation and the bounds that lean on the
triangle inequality.  One O(n^3) triangle loop serves both modes;
`load_instance` runs it on integer matrices only.

Every file is parsed by `_read_json`, which reads it through a window of
`_CHUNK` characters and decodes a top-level "matrix" and a graph's "edges"
a window of rows at a time into their tables, so a load holds its tables
and one window's text and rows, never the file's whole text or its
nested lists, and otherwise gives what `json.loads` gives, errors
included.
Every table enters `MetricSpace` by `np.asarray` and one scan of the entry
types given; the read-only tables built here are adopted as they are.
"""

from __future__ import annotations

import heapq
import json
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import ClassVar

import numpy as np

# Floating mode's slack for validation and for the bounds that lean on the
# triangle inequality; no tie or argmin reads it.
FLOAT_EPS = 1e-9


class DisconnectedGraphError(ValueError):
    """Raised when a graph has no path between some pair of vertices."""


def is_int(x) -> bool:
    """An integer that is not a bool (JSON true/false load as bool, an int)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _edge_fault(i: int, edge, n: int) -> str | None:
    """The first fault of edge i, which should be [u, v, weight], in the
    order arity, range or type, self-loop, weight; None for a good edge."""
    if len(edge) != 3:
        return f"edge {i} {list(edge)} must be [u, v, weight]"
    u, v, w = edge
    if not (is_int(u) and is_int(v) and 0 <= u < n and 0 <= v < n):
        return f"edge ({u},{v}) out of range or not integers"
    if u == v:
        return f"self-loop at vertex {u}"
    if not is_int(w) or w < 1:
        return f"edge ({u},{v}) weight {w} must be an integer >= 1"
    return None


def _edge_array(edges, n: int) -> np.ndarray:
    """The edges as a new m x 3 int64 array, weights clamped to 2**62.

    Checks all edges at once and raises ValueError with the first fault of
    the first faulty edge.  An m x 3 int64 array, such as the edge table
    read_document decodes, is checked as it is.  When an edge of any other
    input cannot enter the array (wrong arity, an entry that is not an
    integer), one scan in edge order finds that first fault instead.
    """
    a = edges
    if not (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.shape[1:] == (3,)):
        edges = list(edges)  # any iterable: read more than once below
        flat = list(chain.from_iterable(edges))
        if set(map(len, edges)) - {3} or not all(
                t is not bool and issubclass(t, (int, np.integer))
                for t in set(map(type, flat))):
            raise ValueError(next(filter(None, (_edge_fault(i, e, n)
                                                for i, e in enumerate(edges)))))
        # A vertex clamped to -1 or 2**62 stays out of range.  A weight
        # clamped to 2**62 puts every path through it past the largest
        # eccentricity metric_from_graph accepts, 2**61 - 1, so neither this
        # clamp nor the one below changes a result.
        try:
            a = np.fromiter(flat, np.int64, len(flat))
        except OverflowError:
            a = np.fromiter((min(max(x, -1), 2**62) for x in flat), np.int64, len(flat))
        a = a.reshape(-1, 3)
    u, v, w = a.T
    bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v) | (w < 1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(_edge_fault(i, edges[i], n))
    return np.minimum(a, 2**62)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive integer edge weights, given as
    [u, v, weight] edges and kept as _edge_array's table.
    Graphs compare by identity: an array has no single truth value."""

    vertex_count: int
    edges: np.ndarray

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        object.__setattr__(self, "edges", _edge_array(self.edges, self.vertex_count))


@dataclass(frozen=True)
class MetricSpace:
    """Finite point set with a materialized pairwise distance matrix.

    Points are the indices 0..n-1; every point is both a client and a
    candidate facility.  `mode` is "int" (exact arithmetic) or "float"
    (validated within `eps`).  `dist` is read-only, float64 or, in
    integer mode, `_narrowest(max, min)`; callers widen before arithmetic.
    """

    eps: ClassVar[float] = FLOAT_EPS
    dist: np.ndarray
    mode: str = "int"
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        try:
            d = np.asarray(self.dist)
        except ValueError:
            # numpy's text for rows of unequal lengths, a number among the
            # rows, or a list among the entries.
            raise ValueError("distance matrix must be square") from None
        # An array built here from a list or tuple, or by a conversion
        # below, is held by nothing else, so it is adopted without a copy.
        fresh = isinstance(self.dist, (list, tuple))
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if self.mode not in ("int", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # np.asarray reads booleans among numbers as 0 and 1, so the entries
        # are scanned as given: those of a list or tuple's rows, or of an
        # array that does not hold numbers.
        numeric = d.dtype.kind in "biuf"
        given = chain.from_iterable(self.dist) if fresh else () if numeric else d.flat
        kinds = set(map(type, given))
        if d.dtype.kind == "b" or bool in kinds:
            raise ValueError("distances must be numbers, not booleans")
        if not numeric:
            if not all(issubclass(t, (int, np.integer, float)) for t in kinds):
                raise ValueError("distances must be numbers")
            # Python ints outside int64 (JSON numbers have no size limit);
            # one beyond the float range is no finite distance either.
            try:
                d, fresh = d.astype(np.float64), True
            except OverflowError:
                raise ValueError("distances must be finite (no NaN or inf)") from None
        if np.issubdtype(d.dtype, np.floating) and not np.isfinite(d).all():
            raise ValueError("distances must be finite (no NaN or inf)")
        kind = np.float64
        if self.mode == "int":
            kind = _narrowest(int(d.max(initial=0)), int(d.min(initial=0)))
            if kind is None:
                raise ValueError("integer mode needs distances within the "
                                 "int64 range")
            if d.dtype.kind == "f" and not np.array_equal(d, np.round(d)):
                raise ValueError("integer mode needs integer distances")
        # A read-only table that owns its memory cannot change under the
        # metric, so it is shared; a writable or borrowed one is copied.
        if not (d.dtype == kind
                and (fresh or d.flags.owndata and not d.flags.writeable)):
            d = d.astype(kind)
        # -0.0 equals 0.0 but prints apart, and which of two tied zeros a
        # maximum returns is the reduction's choice: zeros are stored as 0.0.
        if kind is np.float64 and np.signbit(d).any():
            d = d + 0.0
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if self.labels is not None and len(self.labels) != d.shape[0]:
            raise ValueError("labels length must equal point count")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def tol(self) -> float:
        """Validation slack: 0 in integer mode, eps in floating mode."""
        return 0 if self.mode == "int" else self.eps


@dataclass
class MetricValidationReport:
    """Outcome of checking the metric axioms, with one witness per violation."""

    violations: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{axiom} violation at {witness}" for axiom, witness in self.violations)


_INT_RANGES = [(t, np.iinfo(t).min, np.iinfo(t).max)
               for t in (np.uint8, np.int16, np.int32, np.int64)]


def _narrowest(hi: int, lo: int = 0):
    """The first of uint8, int16, int32 and int64 that holds lo..hi, or None."""
    return next((t for t, least, most in _INT_RANGES if least <= lo and hi <= most),
                None)


def _distances_from_0(n: int, ends: np.ndarray, weights: np.ndarray) -> list:
    """Dijkstra from vertex 0: each vertex's distance, None if unreachable.

    ends holds the edges' endpoints interleaved (u0, v0, u1, v1, ...), so
    half-edge i belongs to edge i // 2 and leads to ends[i ^ 1].  Arrays, not
    per-vertex lists of tuples: on a dense graph those cost more memory than
    the n x n result.  Each half-edge array is held in the narrowest type
    that holds its vertices, weights or positions, and argsort's int64
    order is gone before the next of them is made.
    """
    weights = weights.astype(_narrowest(int(weights.max(initial=0))))
    order = np.argsort(ends, kind="stable")
    order = order.astype(_narrowest(order.size - 1))
    start = np.concatenate(([0], np.bincount(ends, minlength=n).cumsum())).tolist()
    order ^= 1
    other = ends[order]
    order >>= 1
    length = weights[order]
    reach = [None] * n
    reach[0] = 0
    heap = [(0, 0)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > reach[u]:
            continue
        lo, hi = start[u], start[u + 1]
        for v, w in zip(other[lo:hi].tolist(), length[lo:hi].tolist()):
            if reach[v] is None or du + w < reach[v]:
                reach[v] = du + w
                heapq.heappush(heap, (du + w, v))
    return reach


# metric_from_graph updates only the block a pivot reaches when the graph
# has at least _BLOCK_MIN_N vertices and the pivot reaches fewer than
# 1 / _BLOCK_SHARE of them.  On graphs of up to about 220 vertices the
# checks cost as much as the blocks save or more (the family at k=10,
# n=154: 1.3 ms with every pivot over the whole table, 1.6 ms checked).
_BLOCK_MIN_N = 256
_BLOCK_SHARE = 8


def metric_from_graph(g: WeightedGraph) -> MetricSpace:
    """All-pairs shortest-path completion of a weighted graph, in integer mode.

    One Dijkstra pass from vertex 0 finds its eccentricity ecc.  Every
    distance is at most 2*ecc (go through vertex 0), so S = 2*ecc + 1 serves
    as "no path yet", and Floyd-Warshall runs in the first of uint8, int16,
    int32 and int64 that holds 2*S, the largest sum it forms.  Every entry
    and sum is non-negative, so the unsigned byte never wraps.  The metric
    keeps that table, or its copy in a narrower type that holds the result.

    The pivots go in ascending order of degree (ties by index), which keeps
    the vertices an early pivot reaches few on a sparse graph; the result
    of Floyd-Warshall does not depend on the order.  No entry exceeds S, so
    a pivot k with d[i, k] = S gives d[i, k] + d[k, j] >= S >= d[i, j] and
    changes nothing in row i; the table stays symmetric, so nothing in
    column i either.  A pivot therefore changes only the block near x near,
    near being the vertices with d[k, near] < S.  At n >= _BLOCK_MIN_N a
    pivot whose near holds fewer than n / _BLOCK_SHARE vertices updates
    that block alone, and every other pivot the whole table; once a pivot
    reaches half the vertices the rest take the whole table unchecked.
    Both updates give the same entries, so the table is the same bit for
    bit whichever runs.

    Before any n x n table is allocated, raises DisconnectedGraphError
    naming the pair (0, x) for the smallest x unreachable from vertex 0, and
    ValueError if 2*S is too large for int64.
    """
    n = g.vertex_count
    ends, weights = g.edges[:, :2].astype(_narrowest(n - 1)).reshape(-1), g.edges[:, 2]
    reach = _distances_from_0(n, ends, weights)
    if None in reach:
        raise DisconnectedGraphError(
            f"no path between vertices 0 and {reach.index(None)}")
    ecc = max(reach)
    sentinel = 2 * ecc + 1
    narrow = _narrowest(2 * sentinel)
    if narrow is None:
        raise ValueError(f"path lengths too large for int64: vertex "
                         f"{reach.index(ecc)} lies at least {ecc} from vertex 0")

    d = np.full((n, n), sentinel, narrow)
    flat, tmp = d.reshape(-1), np.empty_like(d)
    np.fill_diagonal(d, 0)
    weights = np.minimum(weights, sentinel).astype(narrow)
    np.minimum.at(d, (ends[0::2], ends[1::2]), weights)
    np.minimum.at(d, (ends[1::2], ends[0::2]), weights)
    # Floyd-Warshall, vectorized one pivot at a time.  A block is addressed
    # by flat indices into d, which numpy gathers and scatters faster than
    # an open mesh of rows and columns.
    check = n >= _BLOCK_MIN_N
    for k in np.argsort(np.bincount(ends, minlength=n), kind="stable").tolist():
        if check:
            near = np.flatnonzero(d[k] < sentinel)
            if _BLOCK_SHARE * near.size < n:
                block, via = np.add.outer(near * n, near), d[k, near]
                flat[block] = np.minimum(flat[block], np.add.outer(via, via))
                continue
            check = 2 * near.size < n
        np.add(d[:, k : k + 1], d[k : k + 1, :], out=tmp)
        np.minimum(d, tmp, out=d)
    del tmp  # freed before MetricSpace copies d into a narrower type
    d.setflags(write=False)
    return MetricSpace(dist=d, mode="int")


def _pairwise_axioms(m: MetricSpace) -> MetricValidationReport:
    """Check identity, symmetry and positivity: the O(n^2) axioms.  Identity
    and symmetry hold exactly in both modes; positivity, with the mode's
    slack."""
    d = m.dist
    report = MetricValidationReport()

    diag = np.flatnonzero(np.diagonal(d) != 0)
    if diag.size:
        a = int(diag[0])
        report.violations.append(("identity", (a, a)))

    asym = np.argwhere(d != d.T)
    if asym.size:
        report.violations.append(("symmetry", tuple(sorted(asym[0].tolist()))))

    offdiag = d <= m.tol()
    np.fill_diagonal(offdiag, False)
    nonpos = np.argwhere(offdiag)
    if nonpos.size:
        a, b = (int(x) for x in nonpos[0])
        report.violations.append(("positivity", (a, b)))
    return report


def _triangle(m: MetricSpace) -> tuple[int, int, int] | None:
    """The first (a, b, c) with d[a, c] > d[a, b] + d[b, c] + tol, at the
    smallest b, then the smallest (a, c); None if there is none.

    An integer table runs in the narrowest type that holds every sum of two
    entries, a float table in float64 with the mode's slack.
    """
    d, tol = m.dist, m.tol()
    if m.mode == "int":
        d = d.astype(_narrowest(2 * int(d.max(initial=0)), 2 * int(d.min(initial=0)))
                     or np.int64, copy=False)
    s, over = np.empty_like(d), np.empty(d.shape, bool)
    for b in range(m.n):
        ab, bc = d[:, b : b + 1], d[b : b + 1, :]
        np.add(ab, bc, out=s)
        if tol:
            s += tol
        np.greater(d, s, out=over)
        if d.dtype == np.int64:
            # An int64 sum wraps exactly when its sign differs from that of
            # two like-signed terms; the true sum then lies beyond every
            # entry, above them all for non-negative terms, below otherwise.
            wrapped = ((ab < 0) == (bc < 0)) & ((s < 0) != (ab < 0))
            over = np.where(wrapped, ab < 0, over)
        if over.any():
            a, c = (int(x) for x in np.argwhere(over)[0])
            return a, b, c
    return None


def validate_metric(m: MetricSpace) -> MetricValidationReport:
    """Check identity, symmetry, positivity, and the triangle inequality.

    Violations are report content, never exceptions; each violated axiom is
    listed with one witness.  The triangle check is _triangle's one loop.
    """
    report = _pairwise_axioms(m)
    if witness := _triangle(m):
        report.violations.append(("triangle", witness))
    return report


def euclidean_metric(coords: np.ndarray) -> MetricSpace:
    """Pairwise Euclidean distances of the rows of coords, floating mode."""
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    d.setflags(write=False)
    return MetricSpace(dist=d, mode="float")


class _RawDraws:
    """`np.random.default_rng(seed)`'s `random()` and `integers(0, span)`,
    replayed by the stream rules in `random_metric` from its PCG64 bit
    generator's raw words, drawn `block` at a time as they run out."""

    def __init__(self, seed: int, block: int):
        bits = np.random.PCG64(seed)
        self.words = chain.from_iterable(iter(lambda: bits.random_raw(block).tolist(), None))
        self.waiting = None  # the high half of the last word split, if unused

    def random(self) -> float:
        return (next(self.words) >> 11) * 2.0**-53

    def _half(self) -> int:
        if self.waiting is None:
            word = next(self.words)
            self.waiting = word >> 32
            return word & 0xFFFFFFFF
        half, self.waiting = self.waiting, None
        return half

    def integer(self, span: int) -> int:
        """integers(0, span), for 1 <= span <= 2**63."""
        if span == 1:
            return 0
        if span == 1 << 32:
            return self._half()
        draw, width = (self._half, 32) if span < 1 << 32 else (self.words.__next__, 64)
        low = (1 << width) - 1
        m = draw() * span
        if m & low < span:
            threshold = (low + 1 - span) % span
            while m & low < threshold:
                m = draw() * span
        return m >> width


def random_metric(kind: str, n: int, seed: int, *, dim: int = 2,
                  edge_prob: float = 0.3, max_weight: int = 9) -> MetricSpace:
    """Deterministic random metric: "euclidean" points or a "random-graph".

    Euclidean instances are floating mode, `np.random.default_rng(seed)`'s
    points.  Random graphs are integer mode: a random spanning tree plus
    extra edges, so always connected.  Each vertex v >= 1 draws its tree
    neighbour `integers(0, v)` and a weight `integers(1, max_weight + 1)`;
    then each pair u < v draws `random() < edge_prob` and, for an edge, a
    weight.  These draws of `default_rng(seed)` are replayed from its raw
    PCG64 words (which numpy keeps stable across versions), by its stream
    rules for 64-bit results:
    - `random()` takes one word w and gives (w >> 11) * 2**-53;
    - a span of 1 draws nothing;
    - a span below 2**32 takes a 32-bit half, low half of a word first, the
      high half kept for the next half drawn (a `random()` between leaves
      it kept), by Lemire's multiply-shift with rejection;
    - a span of exactly 2**32 is one half as drawn;
    - a larger span takes whole words, by Lemire's rejection in 64 bits.
    Euclidean points need dim >= 1, a random graph 0 <= edge_prob <= 1, and
    a graph with an edge 1 <= max_weight < 2**63.
    """
    if n < 1:
        raise ValueError("random_metric requires n >= 1")
    if kind == "euclidean":
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        return euclidean_metric(np.random.default_rng(seed).random((n, dim)))
    if kind == "random-graph":
        return metric_from_graph(WeightedGraph(n, _random_edges(n, seed, edge_prob,
                                                                max_weight)))
    raise ValueError(f"unknown kind {kind!r}")


def _random_edges(n: int, seed: int, edge_prob: float, max_weight: int) -> tuple:
    """The edges of random_metric's random graph, in the order drawn."""
    if not 0 <= edge_prob <= 1:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    if n > 1 and not 1 <= max_weight < 2**63:
        raise ValueError(f"max_weight must lie in 1..2**63 - 1, got {max_weight}")
    span, draws = int(max_weight), _RawDraws(seed, n * n)
    edges = [(draws.integer(v), v, 1 + draws.integer(span)) for v in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draws.random() < edge_prob:
                edges.append((u, v, 1 + draws.integer(span)))
    return tuple(edges)


def save_instance(path, m: MetricSpace, k: int | None = None,
                  graph: WeightedGraph | None = None) -> None:
    """Write the instance JSON file.

    The file carries either the generating graph (integer mode) or the full
    matrix.  Layout: {"version": 1, "mode", "n", "graph"|"matrix", "k",
    "labels"}.
    """
    doc: dict = {"version": 1, "mode": m.mode, "n": m.n, "k": k}
    if graph is not None:
        doc["graph"] = {"edges": graph.edges.tolist()}
    else:
        doc["matrix"] = m.dist.tolist()
    if m.labels is not None:
        doc["labels"] = list(m.labels)
    write_document(path, doc)


def check_object(obj, what: str, fields: dict) -> None:
    """Raise ValueError unless obj is a JSON object carrying every field,
    each of the given type (or tuple of types)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must hold a JSON object")
    missing = [key for key in fields if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    for key, kind in fields.items():
        # No field is a boolean, and bool subclasses int.
        if isinstance(obj[key], bool) or not isinstance(obj[key], kind):
            raise ValueError(f"{what} has {key}={obj[key]!r} of the wrong type")


def read_document(path, what: str, fields: dict) -> dict:
    """Parse a version-1 JSON file by _read_json, one window of text at a
    time; its top level must pass check_object."""
    doc = _read_json(path)
    check_object(doc, f"{what} file", {"version": int, **fields})
    if doc["version"] != 1:
        raise ValueError(f"unsupported {what} file version")
    return doc


def write_document(path, doc: dict) -> None:
    """Write a JSON document the way every file and report is written:
    one-space indent, sorted keys, a final newline."""
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# The json module's own parts, with which _Window walks a document.
_DECODE = json.JSONDecoder().raw_decode
_SPACE = json.decoder.WHITESPACE.match
# Characters read at a time.  `run` on a 560-point Euclidean matrix file
# (6 MB) peaks at 20.8 MB RSS with a 64 KiB window and at 28.5 MB with a
# 1 MiB one, as high as reading the whole text (2 vCPUs): the window's
# text, its bracketed copy and its rows as Python floats add up.
_CHUNK = 1 << 16
# The lists of rows that _read_json decodes into tables, by key: a
# top-level "matrix" (width 0: square) and the "edges" of a top-level
# "graph" object (width 3).
_TABLES = {"matrix": 0, "graph": {"edges": 3}}


class _Window:
    """An open text file, read _CHUNK characters at a time: text[i:] is
    what has been read and not yet walked."""

    def __init__(self, file):
        self.file, self.text, self.i = file, "", 0

    def more(self) -> bool:
        """Read as much again as is pending, at least _CHUNK characters;
        False at the end of the file."""
        rest = self.text[self.i :]
        read = self.file.read(max(len(rest), _CHUNK))
        self.text, self.i = rest + read, 0
        return bool(read)

    def peek(self) -> str:
        """The next character that is not JSON whitespace, "" at the end of
        the file; i is left on it."""
        while (i := _SPACE(self.text, self.i).end()) == len(self.text) and self.more():
            pass
        self.i = i
        return self.text[i : i + 1]

    def mark(self, marks: str) -> str:
        """The next character, which must be one of marks, walked past."""
        mark = self.peek()
        if not (mark and mark in marks):
            raise ValueError(f"expected one of {marks!r}")
        self.i += 1
        return mark

    def value(self):
        """The next JSON value, by raw_decode.  A value that fails, or ends
        at the window's end (a number could go on), is decoded again with
        more text."""
        self.peek()
        while True:
            try:
                value, end = _DECODE(self.text, self.i)
            except ValueError:
                if self.more():
                    continue
                raise
            if end < len(self.text) or not self.more():
                self.i = end
                return value

    def rows(self) -> tuple[list, bool]:
        """The complete rows the window holds of a list of rows, none where
        a "]" stands in a row's place, and whether the list goes on after
        them.

        The text from a row's "[" to the last "]" in the window, put in
        brackets, decodes to those rows; where the list's own "]" comes
        first, raw_decode stops at it.
        """
        self.peek()
        while not (j := self.text.rfind("]", self.i) + 1):
            if not self.more():
                raise ValueError("unterminated list")
        block, end = _DECODE("[" + self.text[self.i : j] + "]")
        if end < j - self.i + 2:
            self.i += end - 1
            return block, False
        self.i = j
        return block, self.mark(",]") == ","


def _rows_table(src: _Window, width: int) -> np.ndarray:
    """The list of rows whose "[" src has just passed, decoded a window of
    rows at a time into a read-only table, one numpy assignment per window.

    Width 0 asks for a square matrix sized from its first row, int64 while
    every entry is an int and float64 from the first float on, the type
    np.asarray picks for the whole list; a width, for rows of that many
    ints, int64.  Raises ValueError or OverflowError where the list is not
    that, or an int does not fit the table.
    """
    table, count, more = None, 0, True
    numbers = {int} if width else {int, float}
    while more:
        block, more = src.rows()
        if set(map(type, block)) != {list} or not (
                kinds := set(map(type, chain.from_iterable(block)))) <= numbers:
            raise ValueError("a row is not a list of numbers")
        if table is None:
            size = width or len(block[0])
            # n rows of n entries take more than n**2 bytes.
            if not width and size**2 > os.fstat(src.file.fileno()).st_size:
                raise ValueError("the matrix is not square")
            table = np.empty((len(block) if width else size, size),
                             np.float64 if float in kinds else np.int64)
        if set(map(len, block)) != {table.shape[1]}:
            raise ValueError("a row has the wrong length")
        if count + len(block) > len(table):
            if not width:
                raise ValueError("the matrix is not square")
            table.resize((2 * (count + len(block)), width), refcheck=False)
        if float in kinds and table.dtype == np.int64:
            table = table.astype(np.float64)
        table[count : count + len(block)] = block
        count += len(block)
    if width:
        table.resize((count, width), refcheck=False)
    elif count != len(table):
        raise ValueError("the matrix is not square")
    table.setflags(write=False)
    return table


def _object(src: _Window, tables: dict) -> dict:
    """The JSON object src holds next, walked as json.loads walks it (the
    last of duplicate keys kept); where tables names a key, its list of
    rows is _rows_table's table, or its object is walked in turn."""
    doc = {}
    src.mark("{")
    while True:
        key = src.value()
        if type(key) is not str:
            raise ValueError("expected a key")
        src.mark(":")
        part, opens = tables.get(key), src.peek()
        if isinstance(part, dict) and opens == "{":
            doc[key] = _object(src, part)
        elif isinstance(part, int) and opens == "[":
            src.i += 1
            doc[key] = _rows_table(src, part)
        else:
            doc[key] = src.value()
        if src.mark(",}") == "}":
            return doc


def _read_json(path):
    """json.loads(Path(path).read_text()), read through a window of _CHUNK
    characters, with the lists of rows that _TABLES names as tables; where
    the window's walk does not apply, or the file is a pipe, which cannot be
    read twice, json.loads itself.  Every document is parsed here:
    instances, traces and schedules."""
    with Path(path).open() as file:
        if file.seekable():
            try:
                src = _Window(file)
                doc = _object(src, _TABLES)
                if not src.peek():
                    return doc
            except (ValueError, OverflowError):
                pass  # half-built tables go with the exception
            file.seek(0)
        return json.loads(file.read())


def load_instance(path) -> tuple[MetricSpace, int | None]:
    """Read an instance JSON file; returns (metric, k or None).

    A matrix arrives as _read_json's table, which MetricSpace adopts, and
    a graph's edges as its m x 3 table, which is dropped once the graph
    holds its checked copy; either arrives as nested lists where that
    reader does not take it.  The same checks follow either way: finite
    numbers, a square matrix of `n` rows, edge faults, labels, the
    pairwise axioms and, in integer mode, the triangle inequality.
    """
    doc = read_document(path, "instance", {"mode": str, "n": int})
    if "graph" in doc and "matrix" in doc:
        raise ValueError("instance file must not carry both a graph and a matrix")
    if not (doc.get("k") is None or is_int(doc["k"])):
        raise ValueError(f"instance file has k={doc['k']!r}, not an integer")
    mode = doc["mode"]
    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ValueError("instance labels must be a list of strings")
        labels = tuple(labels)
    if "graph" in doc:
        check_object(doc["graph"], "instance graph", {"edges": (list, np.ndarray)})
        edges = doc.pop("graph")["edges"]
        if not (isinstance(edges, np.ndarray) or all(isinstance(e, list) for e in edges)):
            raise ValueError("instance graph edges must be [u, v, weight] lists")
        # Checked before the n x n shortest-path table is allocated.
        if mode != "int":
            raise ValueError("graph instances must be integer mode")
        if len(edges) < doc["n"] - 1:
            raise DisconnectedGraphError(f"{len(edges)} edges cannot connect "
                                         f"{doc['n']} vertices")
        g = WeightedGraph(doc["n"], edges)
        del edges  # the parsed table goes before the shortest-path tables come
        m = metric_from_graph(g)
        m = MetricSpace(dist=m.dist, mode="int", labels=labels)
    elif "matrix" in doc:
        m = MetricSpace(dist=doc["matrix"], mode=mode, labels=labels)
        if m.n != doc["n"]:
            raise ValueError("matrix size does not match declared n")
        # Once the pairwise axioms hold, an integer matrix also gets the
        # triangle check; for a float matrix it would cost as much as a run.
        broken = _pairwise_axioms(m)
        if broken.ok and m.mode == "int" and (witness := _triangle(m)):
            broken.violations.append(("triangle", witness))
        if not broken.ok:
            raise ValueError(f"matrix is not a metric: {broken}")
    else:
        raise ValueError("instance file needs a graph or a matrix")
    return m, doc.get("k")
