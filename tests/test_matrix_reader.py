"""The instance reader that decodes a matrix row by row, against json.loads.

`load_instance` must give what the same function gives with the document
parsed by `json.loads` and the matrix read from its nested lists: the same
table, dtype, labels and k, or the same exception with the same text.
"""

import json
import tracemalloc

import numpy as np
from conftest import load_outcome, reference_load_instance
from hypothesis import HealthCheck, given, settings, strategies as st

from revgreedy import metric
from revgreedy.metric import MetricSpace, load_instance, random_metric

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
    square matrix of ints and floats that the row reader should take."""
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


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=instance_texts())
def test_reader_matches_json_loads(tmp_path, drawn):
    text, clean = drawn
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert load_outcome(load_instance, path) == load_outcome(reference_load_instance, path)
    if clean:
        # The row reader took the matrix, not json.loads.
        assert isinstance(metric._matrix_object(text)["matrix"], np.ndarray)


def test_reader_peaks_at_one_table():
    # Measured once the text is in memory: one float64 table, one row of
    # Python floats and the finiteness check's booleans.  The nested lists
    # of json.loads and the table built from them come to about 5x.
    n = 300
    table = random_metric("euclidean", n, 0).dist
    text = json.dumps({"version": 1, "mode": "float", "n": n, "k": 5,
                       "matrix": table.tolist()})
    tracemalloc.start()
    try:
        doc = metric._instance_json(text)
        m = MetricSpace(dist=doc["matrix"], mode=doc["mode"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dist is doc["matrix"] and np.array_equal(m.dist, table)
    assert peak <= 1.5 * table.nbytes
