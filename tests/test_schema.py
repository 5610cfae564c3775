"""Property tests of the document parsers: any mutation of a valid config or
report either parses or is refused with ConfigError/InvalidParameterError.
The parsers are called directly, so no solve runs."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquard import ConfigError, InvalidParameterError, Params, build_grid, sample
from choquard.cli import load_config, load_report, sweep_plan
from choquard.grid import write_profile_csv

PARAMS = {"N": 3, "alpha": 2.0, "p": 2.0, "q": 3.0, "mu": 1.0, "lambda": 1.0}
CONFIG = {
    "params": PARAMS,
    "grid": {"rmax": 30.0, "M": 512, "scheme": "graded", "gamma": 2.0},
    "solve": {"tol_residual": 1e-6, "max_iter": 500},
    "output_dir": "runs/x",
    "seed": 7,
    "sweep": {"p": [2.0, 2.2], "q": [3.0], "lambda": [0.5, 1.0], "parallelism": 1},
}
REPORT = {
    "params": PARAMS,
    "grid": {"rmax": 15.0, "M": 16},
    "profile_csv_path": "profile.csv",
    "residual_norm": 1e-7,
    "iterations": 3,
    "status": "converged",
}
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, valid: dict):
    """valid with one to three of its entries replaced, deleted or added to."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(json_values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.text(max_size=4))] = draw(json_values)
        elif isinstance(parent[path[-1]], list):
            parent[path[-1]].append(draw(json_values))
    return doc


def test_params_schema_round_trip():
    params = Params(N=4, alpha=1.0, p=2.5, q=3.0, mu=2.0, lam=0.0)
    assert params.to_dict()["lambda"] == 0.0
    assert Params.from_dict(params.to_dict()) == params


def test_unmutated_documents_parse(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    cells, workers = sweep_plan(load_config(tmp_path / "config.json"))
    assert (len(cells), workers) == (4, 1)
    grid = build_grid(3, 15.0, 16)
    write_profile_csv(sample(grid, lambda r: np.exp(-(r**2))), tmp_path / "profile.csv")
    (tmp_path / "report.json").write_text(json.dumps(REPORT))
    assert load_report(tmp_path / "report.json").params == Params.from_dict(PARAMS)


def test_gamma_only_with_graded_scheme(tmp_path):
    path = tmp_path / "config.json"
    exponential = {**CONFIG, "grid": {"rmax": 30.0, "M": 512, "scheme": "exponential"}}
    path.write_text(json.dumps(exponential))
    assert load_config(path).grid_spec["scheme"] == "exponential"
    exponential["grid"]["gamma"] = 2.0
    path.write_text(json.dumps(exponential))
    with pytest.raises(ConfigError, match="gamma"):
        load_config(path)


@SETTINGS
@given(doc=mutated(CONFIG))
def test_config_parses_or_is_refused(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        try:
            sweep_plan(load_config(path))
        except (ConfigError, InvalidParameterError):
            pass


@SETTINGS
@given(doc=mutated(REPORT))
def test_report_parses_or_is_refused(doc):
    with tempfile.TemporaryDirectory() as tmp:
        grid = build_grid(3, 15.0, 16)
        write_profile_csv(sample(grid, lambda r: np.exp(-(r**2))), Path(tmp) / "profile.csv")
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(doc))
        try:
            load_report(path)
        except (ConfigError, InvalidParameterError):
            pass
        except OSError:
            # a profile path that names no readable file is an I/O failure (exit 4)
            assert doc["profile_csv_path"] != "profile.csv"
