"""Fixtures shared by several test modules."""

import pytest

from jm3d import data, encoders
from jm3d.synth import SynthConfig, synth_generate


@pytest.fixture(autouse=True)
def no_load_to_reuse(monkeypatch):
    """Each test starts with no earlier manifest load or constant point
    encode to reuse (see `data.load_manifest` and
    `encoders.encode_point_cloud`), so a load or an encode in one test
    cannot answer for the first of the next."""
    monkeypatch.setattr(data, "_last_load", None)
    monkeypatch.setattr(encoders, "_last_point_encode", None)


@pytest.fixture(scope="session")
def bench_dataset(tmp_path_factory):
    """(directory, dataset) of the seed-0 acceptance bench data: 240
    samples of 256 points and 60 views, dim 32.  Tests must not modify
    either."""
    cfg = SynthConfig(parents=4, subs_per_parent=3, samples_per_sub=20,
                      points=256, dim=32)
    out = tmp_path_factory.mktemp("bench")
    return out, synth_generate(cfg, out, seed=0)
