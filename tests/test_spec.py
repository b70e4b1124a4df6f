"""Family declarations: the derived default_grid and verify_scenario, and
agreement of the declared config schema with the documented one."""

import numpy as np
import pytest

from pseudoexp import dirac, dsi, gnoe, loewner, schrodinger

from test_cli_schema import BUILDERS, FAMILIES

MODULES = (dirac, dsi, gnoe, loewner, schrodinger)


def test_declared_schema_matches_documented_table():
    declared = {}
    for module in MODULES:
        spec = module.SPEC
        names, field = FAMILIES[spec.name]
        assert spec.var_names == module.VAR_NAMES == names
        assert field in spec.fields
        for name, builder in spec.builders.items():
            assert callable(getattr(module, builder.function))
            declared[(spec.name, name)] = builder
    assert sorted(declared) == sorted(BUILDERS)
    for key, builder in declared.items():
        valid, required = BUILDERS[key]
        assert set(builder.required) == set(required), key
        assert set(builder.required) | set(builder.optional) == set(valid), key


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_default_grid_from_declaration(module):
    spec = module.SPEC
    grid = module.default_grid()
    assert [ax.name for ax in grid.axes] == list(spec.var_names)
    for ax in grid.axes:
        count, half_width = spec.grid
        assert (ax.minimum, ax.maximum, ax.count) == (-half_width, half_width, count)
    assert module.default_grid(count=3).size == 3 ** len(spec.var_names)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_verify_scenario_uses_declared_tolerances(module):
    spec = module.SPEC
    sc = module.random_scenario(np.random.default_rng(3))
    report = module.verify_scenario(sc, grid=module.default_grid(count=2))
    assert {c.name: c.tolerance for c in report.channels} == dict(spec.tolerances)
    assert report.meta["family"] == spec.name
    # Every family declares an analytic and an FD channel.
    assert any(name.endswith("_fd") for name in spec.tolerances)
    assert any(not name.endswith("_fd") for name in spec.tolerances)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_tolerance_map_must_name_exactly_the_declared_channels(module):
    sc = module.random_scenario(np.random.default_rng(3))
    grid = module.default_grid(count=2)
    declared = dict(module.SPEC.tolerances)
    for name in declared:
        dropped = {k: v for k, v in declared.items() if k != name}
        with pytest.raises(ValueError, match=name):
            module.verify_scenario(sc, grid=grid, tolerances=dropped)
    with pytest.raises(ValueError, match="typo_fd"):
        module.verify_scenario(sc, grid=grid, tolerances={**declared, "typo_fd": 1e-6})
    with pytest.raises(ValueError, match="tolerances"):
        module.verify_scenario(sc, grid=grid, tolerances={})


def test_dsi_map_without_the_evolution_channel_raises():
    # One FD channel named, with a bound no residual meets, and evolution_fd
    # left out: the sweep must not drop the FD path and pass.
    sc = dsi.random_scenario(np.random.default_rng(3))
    tolerances = {"premise_x": 1e-12, "premise_t": 1e-12, "coupling1_fd": 1e-30}
    with pytest.raises(ValueError, match="evolution_fd"):
        dsi.verify_scenario(sc, grid=dsi.default_grid(count=2), tolerances=tolerances)


def test_each_family_has_its_own_verify_scenario():
    assert len({id(m.verify_scenario) for m in MODULES}) == len(MODULES)
