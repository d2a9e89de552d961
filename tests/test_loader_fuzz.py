"""Fuzzing of the three JSON file loaders.

Each case takes a valid document, replaces one value anywhere in it (a
top-level field, a list entry or a nested field) with an arbitrary JSON
value, and loads the result.  A loader must return or raise ValueError,
which the CLI reports with exit code 2; any other exception would escape
that boundary as a traceback.  No field of any document is a boolean, so
a value holding one must be rejected, except inside a trace's policy,
which is carried without being read.  An instance document must also
load as it loads with json.loads and the nested lists it gives: the same
table, or the same exception with the same text, whatever the size of
the reader's window.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from conftest import load_outcome, reference_load_instance
from hypothesis import HealthCheck, given, settings, strategies as st

from revgreedy import metric
from revgreedy.kcenter import TiePolicy, load_trace, reverse_greedy, save_trace
from revgreedy.lowerbound import (build_lower_bound_instance, load_schedule,
                                  save_schedule, scripted_schedule)
from revgreedy.metric import MetricSpace, load_instance, random_metric, save_instance

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([2**63, -2**63 - 1, 10**400, "nan", "1e400"]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)


def _documents():
    """(name, loader, valid document) for every document shape."""
    lb = build_lower_bound_instance(2)
    euclid = random_metric("euclidean", 3, 1)
    labelled = MetricSpace(dist=random_metric("random-graph", 3, 2).dist,
                           labels=("a", "b", "c"))
    trace = lambda m: reverse_greedy(m, 2, TiePolicy.lowest_index())
    writers = [
        ("graph", load_instance, lambda p: save_instance(p, lb.metric, k=2, graph=lb.graph)),
        ("float", load_instance, lambda p: save_instance(p, euclid, k=2)),
        ("labelled", load_instance, lambda p: save_instance(p, labelled, k=2)),
        ("schedule", load_schedule, lambda p: save_schedule(p, scripted_schedule(lb))),
        ("int-trace", load_trace, lambda p: save_trace(p, trace(lb.metric))),
        ("float-trace", load_trace, lambda p: save_trace(p, trace(euclid))),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        out = []
        for name, loader, write in writers:
            write(path)
            out.append((name, loader, json.loads(path.read_text())))
        return out


DOCUMENTS = _documents()
FIELDS = [(name, loader, doc, key) for name, loader, doc in DOCUMENTS for key in doc]


def _paths(node, prefix):
    """Every position at or below prefix, as tuples of keys and indices."""
    yield prefix
    keys = (node.keys() if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    for key in keys:
        yield from _paths(node[key], prefix + (key,))


def _holds_bool(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_holds_bool(x) for x in value)
    return isinstance(value, bool)


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _fuzzed(tmp_path, doc, key, data, value):
    """The document written with value over a position drawn at or below key."""
    path = data.draw(st.sampled_from(list(_paths(doc[key], (key,)))))
    fuzzed = tmp_path / "fuzz.json"
    fuzzed.write_text(json.dumps(_replaced(doc, path, value)))
    return path, fuzzed


@pytest.mark.parametrize("name, loader, doc, key", FIELDS,
                         ids=[f"{f[0]}-{f[3]}" for f in FIELDS])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=json_values)
def test_loaders_return_or_raise_value_error(tmp_path, name, loader, doc, key,
                                             data, value):
    path, fuzzed = _fuzzed(tmp_path, doc, key, data, value)
    if loader is load_instance:
        assert load_outcome(loader, fuzzed) == load_outcome(reference_load_instance, fuzzed)
    try:
        loader(fuzzed)
    except ValueError:
        return
    assert not _holds_bool(value) or path[0] == "policy"


INSTANCE_FIELDS = [(name, doc, key) for name, loader, doc, key in FIELDS
                   if loader is load_instance]


# The instance cases again, read through windows small enough that every
# value, row and run of whitespace is refilled.
@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@pytest.mark.parametrize("name, doc, key", INSTANCE_FIELDS,
                         ids=[f"{f[0]}-{f[2]}" for f in INSTANCE_FIELDS])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=json_values)
def test_instance_loads_like_json_loads_in_small_windows(tmp_path, name, doc, key,
                                                         chunk, data, value):
    _, fuzzed = _fuzzed(tmp_path, doc, key, data, value)
    with mock.patch.object(metric, "_CHUNK", chunk):
        assert load_outcome(load_instance, fuzzed) == load_outcome(reference_load_instance,
                                                                   fuzzed)
