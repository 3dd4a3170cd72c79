"""Shared fixtures: technology points and small functional machines."""

from __future__ import annotations

import pytest

from repro.devices.parameters import (
    ALL_TECHNOLOGIES,
    MODERN_STT,
    PROJECTED_SHE,
    PROJECTED_STT,
)


@pytest.fixture(params=ALL_TECHNOLOGIES, ids=lambda t: t.name)
def tech(request):
    """Parametrised over the paper's three device configurations."""
    return request.param


@pytest.fixture
def modern():
    return MODERN_STT


@pytest.fixture
def projected():
    return PROJECTED_STT


@pytest.fixture
def she():
    return PROJECTED_SHE


def make_mouse(tech=MODERN_STT, rows=64, cols=8, n_data_tiles=1):
    """A small functional machine for compiler/controller tests."""
    from repro.core.accelerator import Mouse

    return Mouse(tech, n_data_tiles=n_data_tiles, rows=rows, cols=cols)


@pytest.fixture
def small_mouse():
    return make_mouse()


#: The tiny hardening frontier several modules check: one workload, one
#: technology, the two frontier ends.
TINY_FRONTIER = dict(
    workloads=("bnn",),
    technologies=(MODERN_STT,),
    levels=(0.0, 1.0),
    trials=8,
    seed=11,
)


@pytest.fixture(scope="session")
def tiny_frontier():
    """One serial run of :data:`TINY_FRONTIER`, shared by every test
    that only reads it."""
    from repro.harden.frontier import run_frontier

    return run_frontier(**TINY_FRONTIER, jobs=1)
