"""Fixtures shared by several test modules."""

import pytest

from jm3d.synth import SynthConfig, synth_generate


@pytest.fixture(scope="session")
def bench_dataset(tmp_path_factory):
    """(directory, dataset) of the seed-0 acceptance bench data: 240
    samples of 256 points and 60 views, dim 32.  Tests must not modify
    either."""
    cfg = SynthConfig(parents=4, subs_per_parent=3, samples_per_sub=20,
                      points=256, dim=32)
    out = tmp_path_factory.mktemp("bench")
    return out, synth_generate(cfg, out, seed=0)
