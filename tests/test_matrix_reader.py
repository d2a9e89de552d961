"""The windowed instance reader, which decodes a matrix or a graph's edges
a window of rows at a time, against json.loads.

`load_instance` must give what the same function gives with the document
parsed by `json.loads` and the matrix or edges read from its nested lists:
the same table, dtype, labels and k, or the same exception with the same
text, whatever the window's size.  A load from a file must also peak well
below the file's text and nested lists.
"""

import json
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import load_outcome, reference_load_instance
from hypothesis import HealthCheck, given, settings, strategies as st

from revgreedy import metric
from revgreedy.metric import load_instance, random_metric

# Values written over entries: non-finite literals, bools, ints beyond
# int64, ints past float64's exact range, a float among ints, a list, a
# string and null.
ENTRY_EDITS = [float("nan"), float("inf"), -float("inf"), True, False, 2**63,
               -2**63 - 1, 10**400, 2**53 + 1, 2**62 + 1, 2.5, [1], "1", None]
# Values written over rows, and three edits of the list of rows: "shorten"
# drops a row's last entry, "remove" the row, "repeat" writes it twice.
ROW_EDITS = [5, [], "row", [[0]], "shorten", "remove", "repeat"]
DECOYS = [[[0]], [[0, 1], [1, 0]], 5, [[0.0, True], [1, 0]]]
BOOL_DECOY = 3
# What goes before and after the object: whitespace, or (one draw in
# five) a byte-order mark, another value or stray text.
FRAMES = [("", ""), ("", "\n"), (" \n", " \t\r\n")]
BAD_FRAMES = [("\ufeff", ""), ("[", ""), ("x", ""), ("", " x"), ("", "{}"), ("", "]")]


def _text(pairs, layout: str) -> str:
    """The JSON object of the (key, value) pairs, duplicates kept: in
    save_instance's layout (sorted keys, one-space indent) or compact, in
    the order given."""
    if layout == "compact":
        return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    pairs = sorted(pairs, key=lambda kv: kv[0])
    return "{\n" + ",\n".join(
        f" {json.dumps(k)}: " + json.dumps(v, indent=1).replace("\n", "\n ")
        for k, v in pairs) + "\n}"


@st.composite
def instance_texts(draw):
    """(text, clean): an instance document's text, and whether it holds a
    square matrix of ints and floats that the window reader should take."""
    n = draw(st.integers(1, 12))
    kind, mode = draw(st.sampled_from(["int", "float"])), draw(st.sampled_from(["int", "float"]))
    scale = draw(st.sampled_from([1, 100, 40000, 2**40, 2**60]))
    steps = draw(st.lists(st.integers(2, 4), min_size=n * n, max_size=n * n))
    # Off-diagonal entries in [2, 4] * scale satisfy the triangle
    # inequality.  The float kind writes the entries of its first `lead`
    # rows and columns as ints and halves the others, so that a float first
    # appears after int rows, and rows mix ints and floats.
    lead = draw(st.integers(0, n)) if kind == "float" else n

    def entry(a, b):
        x = steps[min(a, b) * n + max(a, b)] * scale
        return (0 if a < lead else 0.0) if a == b else x if min(a, b) < lead else x / 2

    rows = [[entry(a, b) for b in range(n)] for a in range(n)]
    clean = True
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        clean = False
        if a >= len(rows) or not isinstance(rows[a], list):
            continue
        if draw(st.booleans()):
            edit = draw(st.sampled_from(ENTRY_EDITS))
            for p, q in {(a, b), (b, a)} if draw(st.booleans()) else {(a, b)}:
                if p < len(rows) and isinstance(rows[p], list) and q < len(rows[p]):
                    rows[p][q] = edit
            continue
        edit = draw(st.sampled_from(ROW_EDITS))
        if edit == "shorten":
            rows[a] = rows[a][:-1]
        elif edit == "remove":
            del rows[a]
        elif edit == "repeat":
            rows.insert(a, rows[a])
        else:
            rows[a] = edit
    pairs = [("version", 1), ("mode", mode), ("n", n), ("k", draw(st.integers(1, 3))),
             ("matrix", rows)]
    if draw(st.booleans()):
        size = draw(st.sampled_from([n, n, n + 1]))
        pairs.append(("labels", [f"p{i}" for i in range(size)]))
    if draw(st.booleans()):
        # A second matrix key, before the one above (which then wins) or after.
        decoy = draw(st.sampled_from(range(len(DECOYS))))
        at = draw(st.sampled_from([0, len(pairs)]))
        pairs.insert(at, ("matrix", DECOYS[decoy]))
        clean = clean and at == 0 and decoy != BOOL_DECOY
    bad = draw(st.sampled_from([False] * 4 + [True]))
    prefix, trailer = draw(st.sampled_from(BAD_FRAMES if bad else FRAMES))
    clean = clean and not bad
    return prefix + _text(pairs, draw(st.sampled_from(["compact", "saved"]))) + trailer, clean


# Values written over an entry of an edge: bools, floats, an int beyond
# int64, a string, null and a list.  Edits of a whole edge: arity 2 and 4,
# a vertex out of range, a self-loop, weight 0, and a string, null or
# nested list in its place.
EDGE_ENTRY_EDITS = [True, False, 1.5, 2.0, 2**63, "1", None, [1]]
EDGE_EDITS = ["arity 2", "arity 4", "outside", "loop", "weight 0", "edge", None,
              [[0, 1, 1]]]


@st.composite
def graph_texts(draw):
    """(text, clean): a graph instance document's text, and whether its
    edges are all lists of three ints, which the window reader should take."""
    n = draw(st.integers(2, 12))
    scale = draw(st.sampled_from([1, 100, 2**40, 2**59]))
    weight = st.integers(1, 9).map(lambda w: w * scale)
    edges = [[draw(st.integers(0, v - 1)), v, draw(weight)] for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
                           .filter(lambda e: e[0] != e[1]).map(list), max_size=2 * n))
    clean = True
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(edges) - 1))
        edge = edges[at]
        if not isinstance(edge, list) or len(edge) != 3:
            continue
        if draw(st.booleans()):
            edge[draw(st.integers(0, 2))] = draw(st.sampled_from(EDGE_ENTRY_EDITS))
            clean = False
            continue
        edit = draw(st.sampled_from(EDGE_EDITS))
        if edit == "arity 2" or edit == "arity 4":
            edges[at] = edge[:2] if edit == "arity 2" else edge + [1]
        elif edit == "outside":
            edge[draw(st.integers(0, 1))] = draw(st.sampled_from([-1, n, 2**62]))
        elif edit == "loop":
            edge[1] = edge[0]
        elif edit == "weight 0":
            edge[2] = 0
        else:
            edges[at] = edit
        clean = clean and edit in ("outside", "loop", "weight 0")
    mode = draw(st.sampled_from(["int", "int", "float"]))
    pairs = [("version", 1), ("mode", mode), ("n", n), ("k", draw(st.integers(1, 3))),
             ("graph", {"edges": edges})]
    if draw(st.booleans()):
        pairs.append(("labels", [f"p{i}" for i in range(draw(st.sampled_from([n, n + 1])))]))
    if draw(st.booleans()):
        # A second graph key, before the one above (which then wins) or after.
        at = draw(st.sampled_from([0, len(pairs)]))
        pairs.insert(at, ("graph", {"edges": [[0, 1, 1]]}))
        clean = clean and at == 0
    bad = draw(st.sampled_from([False] * 4 + [True]))
    prefix, trailer = draw(st.sampled_from(BAD_FRAMES if bad else FRAMES))
    clean = clean and not bad
    return prefix + _text(pairs, draw(st.sampled_from(["compact", "saved"]))) + trailer, clean


def _matches_json_loads(tmp_path, drawn):
    text, clean = drawn
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert load_outcome(load_instance, path) == load_outcome(reference_load_instance, path)
    if clean:
        # The window reader took the matrix or the edges, not json.loads.
        doc = metric._read_json(path)
        table = doc["matrix"] if "matrix" in doc else doc["graph"]["edges"]
        assert isinstance(table, np.ndarray)


documents = st.one_of(instance_texts(), graph_texts())


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=documents)
def test_reader_matches_json_loads(tmp_path, drawn):
    _matches_json_loads(tmp_path, drawn)


# Every drawn document fits one window of the default size; windows this
# small refill within every value, row and run of whitespace.
@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=documents)
def test_reader_matches_json_loads_in_small_windows(tmp_path, chunk, drawn):
    with mock.patch.object(metric, "_CHUNK", chunk):
        _matches_json_loads(tmp_path, drawn)


def _peak(path) -> int:
    tracemalloc.start()
    try:
        load_instance(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_a_matrix_file_peaks_near_its_table(tmp_path):
    # A 300-point float matrix: the table (0.72 MB), a window of text and
    # one window of rows as Python floats, and the pairwise checks'
    # booleans.  The file's whole text and json.loads's nested lists came
    # to about 5x the table.
    n = 300
    table = random_metric("euclidean", n, 0).dist
    path = tmp_path / "euclid300.json"
    path.write_text(json.dumps({"version": 1, "mode": "float", "n": n, "k": 5,
                                "matrix": table.tolist()}))
    assert _peak(path) <= 2.5 * table.nbytes
    m, _ = load_instance(path)
    assert np.array_equal(m.dist, table) and m.dist.dtype == np.float64


def test_loading_a_dense_graph_file_peaks_below_its_edge_lists(tmp_path):
    # A 400-vertex graph with 24,424 edges: at most two edge tables
    # (0.59 MB each) and the shortest-path build, about 2.3 MB.  The
    # file's whole text and the edges as Python lists came to about 5 MB.
    rng = np.random.default_rng(11)
    n = 400
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 0.3
    w = rng.integers(1, 10, int(keep.sum()))
    edges = [[0, v, 9] for v in range(1, n)] + np.column_stack(
        [iu[keep], ju[keep], w]).tolist()
    path = tmp_path / "dense400.json"
    path.write_text(json.dumps({"version": 1, "mode": "int", "n": n, "k": 5,
                                "graph": {"edges": edges}}))
    assert _peak(path) <= 3_000_000
    assert load_outcome(load_instance, path) == load_outcome(reference_load_instance, path)


def test_reader_reads_a_pipe_once(tmp_path):
    # A pipe cannot be read again after the window walk, so json.loads
    # reads it; the load is the regular file's.
    table = random_metric("euclidean", 20, 3).dist
    text = json.dumps({"version": 1, "mode": "float", "n": 20, "k": 2,
                       "matrix": table.tolist()})
    path, pipe = tmp_path / "instance.json", tmp_path / "pipe"
    path.write_text(text)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    outcome = load_outcome(load_instance, pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert outcome == load_outcome(load_instance, path)


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_undecodable_bytes_fail_as_read_text_fails(tmp_path, chunk):
    # With 7 characters at a time the bad byte is met after the walk has
    # begun, and json.loads reads the file again from its start.
    text = json.dumps({"version": 1, "mode": "int", "n": 2, "k": 1,
                       "labels": ["a" * 100, "b"], "matrix": [[0, 1], [1, 0]]})
    path = tmp_path / "instance.json"
    path.write_bytes(text.encode().replace(b'"b"', b'"\xff"'))
    with mock.patch.object(metric, "_CHUNK", chunk):
        outcome = load_outcome(load_instance, path)
    assert outcome[0] is UnicodeDecodeError
    assert outcome == load_outcome(reference_load_instance, path)
