"""Shared fixtures: scenario registry access and cached sample points."""

import pytest

import phmorph as pm


@pytest.fixture(scope="session")
def all_scenarios():
    return {name: pm.get_scenario(name) for name in pm.list_scenarios()}


@pytest.fixture(scope="session")
def points_for():
    cache = {}

    def get(scenario, count=20, seed=42):
        key = (scenario.name, count, seed)
        if key not in cache:
            cache[key] = pm.sample_points(scenario, count, seed)
        return cache[key]

    return get
