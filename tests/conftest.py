"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adt import Image, make_standard_registries
from repro.core import open_kernel
from repro.figures import AFRICA, build_figure2, populate_scenes
from repro.gis import SceneGenerator, register_gis_operators
from repro.spatial import Box
from repro.temporal import AbsTime


@pytest.fixture()
def registries():
    """Fresh (TypeRegistry, OperatorRegistry) with standard content."""
    return make_standard_registries()


@pytest.fixture()
def types(registries):
    return registries[0]


@pytest.fixture()
def operators(registries):
    ops = registries[1]
    register_gis_operators(ops)
    return ops


@pytest.fixture()
def kernel():
    """A fresh kernel with GIS operators, universe = Africa."""
    k = open_kernel(universe=AFRICA)
    register_gis_operators(k.operators)
    return k


@pytest.fixture()
def small_image():
    """A deterministic 8x8 float4 image."""
    rng = np.random.default_rng(0)
    return Image.from_array(rng.random((8, 8)), "float4")


@pytest.fixture()
def scene_generator():
    """A small deterministic scene generator."""
    return SceneGenerator(seed=99, nrow=16, ncol=16)


@pytest.fixture()
def figure2_catalog():
    """The Figure-2 catalog with two years of synthetic scenes."""
    catalog = build_figure2()
    populate_scenes(catalog, seed=13, size=16, years=(1988, 1989))
    return catalog


@pytest.fixture()
def africa_box():
    return AFRICA


@pytest.fixture()
def jan_1986():
    return AbsTime.from_ymd(1986, 1, 15)


@pytest.fixture()
def unit_box():
    return Box(0.0, 0.0, 1.0, 1.0)
