"""The benchmark's traced run (perfbench/layers.py) wraps lpann functions
under the names their callers look them up by. These tests fail when such a
name is renamed or stops being looked up at call time, instead of letting
the benchmark break."""

import math
import sys
from pathlib import Path

import numpy as np

import lpann

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402

PROBES = layers.BUILD_PROBES + layers.LOAD_PROBES + layers.QUERY_PROBES + layers.SCAN_PROBES


def test_probe_targets_resolve():
    for owner, attr, _, _ in PROBES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_backend_is_a_string():
    assert isinstance(lpann.BACKEND, str)


def _record_calls(monkeypatch, probes) -> set:
    seen = set()
    for owner, attr, _, _ in probes:
        def wrapper(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            seen.add(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
    return seen


def test_probes_see_calls(tmp_path, monkeypatch):
    # four far-apart blobs, so the ladder carves several clusters and maps them
    rng = np.random.default_rng(0)
    centers = np.zeros((4, 32))
    centers[:, 0] = 100.0 * math.sqrt(32) * np.arange(4)
    data = centers[np.arange(40) % 4] + rng.standard_normal((40, 32))
    probes = layers.BUILD_PROBES + layers.QUERY_PROBES
    seen = _record_calls(monkeypatch, probes)
    scheme = lpann.preprocess(lpann.Dataset(data, 4.0), lpann.SchemeConfig(p=4.0, r=0.2))
    lpann.query(scheme, data[5] + 0.01)
    assert seen == {attr for _, attr, _, _ in probes}

    monkeypatch.undo()  # saving tests isinstance against the scheme classes
    path = tmp_path / "x.lpann"
    lpann.save_index(scheme, str(path))
    seen = _record_calls(monkeypatch, layers.LOAD_PROBES)
    lpann.load_index(str(path))
    assert seen == {attr for _, attr, _, _ in layers.LOAD_PROBES}
