"""Family declarations: the derived default_grid, evaluator and
verify_scenario, and agreement of the declared config schema with the
documented one."""

import dataclasses
import gc

import numpy as np
import pytest

from pseudoexp import dirac, dsi, gnoe, loewner, schrodinger, verify

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


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_grid_axes_must_be_the_variables_in_order(module):
    # A sweep reads a grid's columns as the variables in order, so axes
    # named otherwise would label the report wrongly.
    sc = module.random_scenario(np.random.default_rng(3))
    names = module.SPEC.var_names
    for wrong in (names[::-1], tuple("abc"[: len(names)])):
        grid = verify.Grid(tuple(verify.Axis(n, -0.5, 0.5, 2) for n in wrong))
        with pytest.raises(ValueError, match="in order"):
            module.verify_scenario(sc, grid=grid)


def test_dsi_map_without_the_evolution_channel_raises():
    # One FD channel named, with a bound no residual meets, and evolution_fd
    # left out: the sweep must not drop the FD path and pass.
    sc = dsi.random_scenario(np.random.default_rng(3))
    tolerances = {"premise_x": 1e-12, "premise_t": 1e-12, "coupling1_fd": 1e-30}
    with pytest.raises(ValueError, match="evolution_fd"):
        dsi.verify_scenario(sc, grid=dsi.default_grid(count=2), tolerances=tolerances)


def test_each_family_has_its_own_verify_scenario():
    assert len({id(m.verify_scenario) for m in MODULES}) == len(MODULES)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_each_equation_has_an_analytic_and_an_fd_channel(module):
    names = list(module.SPEC.tolerances)
    fd = {n[: -len("_fd")] for n in names if n.endswith("_fd")}
    analytic = {n[: -len("_analytic")] for n in names if n.endswith("_analytic")}
    assert fd and fd == analytic


# (field, variable, order) triples the equations read, by variable index.
FD_REQUESTS = {
    "dirac": {("wave", 0, 1), ("wave", 1, 1)},
    "dsi": {("u", 1, 1), ("u", 0, 2), ("u", 2, 2)}
    | {(f, v, 1) for f in ("q1", "q2", "usu", "uus") for v in (0, 2)},
    "gnoe": {("xi", 0, 1), ("xi", 1, 1), ("xi", 2, 1)},
    "loewner": {("solution", 0, 1), ("solution", 1, 1)},
    "schrodinger": {("wave", 1, 1), ("wave", 0, 2), ("Q", 0, 1)},
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_fd_request_is_exactly_what_the_equations_read(module, monkeypatch):
    requests, stacks, centred = [], [], set()
    fd_partial = verify.fd_partial

    def recording(f, points, derivatives, centre, **kwargs):
        def stack(shifted):
            fields, ok = f(shifted)
            stacks.append(set(fields))
            return fields, ok

        def recording_centre(name):
            centred.add(name)
            return centre(name)

        requests.append(list(derivatives))
        return fd_partial(stack, points, derivatives, recording_centre, **kwargs)

    monkeypatch.setattr(verify, "fd_partial", recording)
    sc = module.random_scenario(np.random.default_rng(3))
    assert module.verify_scenario(sc, grid=module.default_grid(count=2)).passed
    [derivatives] = requests
    want = FD_REQUESTS[module.SPEC.name]
    assert len(derivatives) == len(want) and set(derivatives) == want
    # The stack holds the differenced fields and no other; the centre is
    # read only for second derivatives, whose stencils have an offset-0 term.
    assert stacks == [{f for f, _, _ in want}]
    assert centred == {f for f, _, order in want if order == 2}


def test_an_equation_reading_a_mixed_derivative_raises():
    spec = dataclasses.replace(schrodinger.SPEC, equations=lambda sc, d: {"wave": d("wave", 1, 0)})
    sc = schrodinger.random_scenario(np.random.default_rng(3))
    with pytest.raises(ValueError, match="wave_xt"):
        spec.evaluator(sc)(schrodinger.default_grid(count=2).stacked())


@pytest.mark.parametrize(
    "module, name", [(loewner, "coefficient"), (dirac, "potential"), (schrodinger, "potential")]
)
def test_a_value_only_source_raises_for_a_derivative(module, name):
    sc = module.random_scenario(np.random.default_rng(3))
    fields, ok = module.SPEC.sources(sc, module.default_grid(count=2).stacked())
    assert ok.all() and np.isfinite(fields[name](())).all()
    with pytest.raises(ValueError, match="derivative"):
        fields[name]((0,))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_a_sweep_leaves_no_reference_cycles(module):
    # Cyclic garbage waits for the cycle collector, so a sweep that made
    # some would hold its arrays past its end and raise the peak memory.
    sc = module.random_scenario(np.random.default_rng(3))
    grid = module.default_grid(count=3)
    module.verify_scenario(sc, grid=grid)
    gc.collect()
    gc.disable()
    try:
        report = module.verify_scenario(sc, grid=grid)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert report.passed
