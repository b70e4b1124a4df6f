"""The batched grid engine: factored exponentials, one solve per quantity
for a whole grid, stacked and single-point results from one code path, and
construction screens that draw the same scenarios as the per-point ones
they replaced."""

import numpy as np
import pytest

from pseudoexp import dirac, dsi, gnoe, linalg, loewner, schrodinger

MODULES = (dirac, dsi, gnoe, loewner, schrodinger)


def _scenarios():
    """(label, scenario, module) covering every family's recipe shape: the
    imaginary-eigenvalue Jordan block of the singular line, the nilpotent
    DS I, gnoe's Kronecker generators and the Loewner factors."""
    rng = np.random.default_rng(11)
    return [
        ("schrodinger-singular-line", schrodinger.build_singular_line_example()[0], schrodinger),
        ("schrodinger-random", schrodinger.random_scenario(rng), schrodinger),
        ("dirac-random", dirac.random_scenario(rng), dirac),
        ("dsi-rational", dsi.build_rational_dsi(), dsi),
        ("dsi-random", dsi.random_scenario(rng), dsi),
        ("gnoe-random", gnoe.random_scenario(rng), gnoe),
        ("loewner-random", loewner.random_scenario(rng), loewner),
    ]


def _recipes(sc):
    if isinstance(sc, loewner.LoewnerScenario):
        return [sc.lambda1.recipe, sc.lambda2.recipe]
    fam = sc.family
    return list({id(p.recipe): p.recipe for p in fam.pi_blocks + fam.s_terms}.values())


@pytest.mark.parametrize("label, sc, module", _scenarios(), ids=lambda v: v if isinstance(v, str) else "")
def test_factored_exponential_matches_exponential_of_the_sum(label, sc, module):
    rng = np.random.default_rng(12)
    points = np.vstack(
        [module.default_grid().stacked(), rng.uniform(-1.0, 1.0, (20, len(module.VAR_NAMES)))]
    )
    for recipe in _recipes(sc):
        got = recipe.exp_value(points)
        for p, e in zip(points, got):
            want = linalg.mat_exp(recipe.exponent(p))
            assert linalg.fro(e - want) <= 1e-13 * linalg.fro(want), (label, p)


def _counting_solves(monkeypatch):
    solve, calls = linalg.solve_pivoted, []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(linalg, "solve_pivoted", counting)
    return calls


# Solves per sweep with the FD channel on: the analytic channels' solves
# plus one field call per differenced variable (two solves for
# Schrodinger's x call, which differences W and Q).
SOLVES_PER_SWEEP = {"dirac": 6, "dsi": 4, "gnoe": 4, "loewner": 4, "schrodinger": 8}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_solves_per_sweep_do_not_grow_with_the_grid(module, monkeypatch):
    sc = module.random_scenario(np.random.default_rng(5))
    calls = _counting_solves(monkeypatch)
    counts = []
    for count in (3, 5):
        calls.clear()
        report = module.verify_scenario(sc, grid=module.default_grid(count=count))
        assert report.passed and report.masked_count == 0
        assert all(len(s) % count ** len(module.VAR_NAMES) == 0 for s, _ in calls)
        counts.append(len(calls))
    assert counts == [SOLVES_PER_SWEEP[module.SPEC.name]] * 2


@pytest.mark.parametrize("label, sc, module", _scenarios(), ids=lambda v: v if isinstance(v, str) else "")
def test_stack_of_points_matches_each_point(label, sc, module):
    points = module.default_grid(count=3).stacked()
    evaluate = module.evaluator(sc)
    (channels, scales), ok = evaluate(points)
    values, fields_ok = module.SPEC.field_values(sc, points)
    for k in range(len(points)):
        (one, one_scale), one_ok = evaluate(points[k : k + 1])
        assert one_ok[0] == ok[k]
        if one_ok[0]:
            assert one_scale[0] == scales[k]
            for name, value in one.items():
                assert value[0] == pytest.approx(channels[name][k], rel=1e-12, abs=1e-300), name
        one_fields = module.SPEC.field_values(sc, points[k : k + 1])
        assert one_fields[1][0] == fields_ok[k]
        for stacked, single in zip(values, one_fields[0]):
            np.testing.assert_allclose(single[0], stacked[k], rtol=1e-13, atol=1e-300)


def test_singular_points_masked_in_a_stack():
    sc, closed = schrodinger.build_singular_line_example()
    points = np.array([(-0.75, 0.0), (-0.25, -0.25), (0.5, 0.1), (0.25, -0.5)])
    q, ok = schrodinger.potential(sc, points)
    assert ok.tolist() == [False, False, True, False]
    assert np.array_equal(q[~ok], np.zeros((3, 1, 1)))
    assert schrodinger.potential(sc, points[0]) is None
    np.testing.assert_allclose(q[2], closed.potential(tuple(points[2])), rtol=1e-12)


# sum of |entries| of each draw's random data, seeds 0-4, from the
# per-point screens before the batched engine
DRAWS = {
    "dirac": (13.393982553520807, 7.841225579614724, 7.966849752683643, 9.749342924801924, 14.740231265779759),
    "dsi": (5.676548863168129, 6.28543510180215, 8.5995508729037, 6.796864490029488, 6.96624040347735),
    "gnoe": (19.242762738778566, 12.072307572335356, 12.336345925011758, 11.814164664208647, 11.756677406262547),
    "loewner": (39.33214817177069, 36.35121518239313, 46.69322906636295, 45.61641603126119, 42.76612739457821),
    "schrodinger": (14.857656715600434, 7.793714605014524, 18.10170296836283, 16.57124761072448, 16.549023193973337),
}
DRAWN = {
    "dirac": lambda sc: (sc.node.a_mats[0], sc.node.chat, sc.c),
    "schrodinger": lambda sc: (sc.node.a_mats[0], sc.node.chat, sc.c, sc.s0),
    "dsi": lambda sc: (sc.a1, sc.a2, sc.c1, sc.c2, sc.chat1, sc.chat2),
    "gnoe": lambda sc: (sc.a, sc.chat, sc.c, sc.d_diag, sc.dtilde_diag, sc.b_diag),
    "loewner": lambda sc: (
        sc.d_diag,
        sc.lambda1.c,
        sc.lambda1.chat,
        sc.lambda2.c,
        sc.lambda2.chat,
        *sc.lambda1.recipe.generators,
        *sc.lambda2.recipe.generators,
    ),
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_seeded_draws_are_unchanged(module):
    name = module.SPEC.name
    for seed, want in enumerate(DRAWS[name]):
        sc = module.random_scenario(np.random.default_rng(seed))
        got = sum(float(np.abs(m).sum()) for m in DRAWN[name](sc))
        assert got == pytest.approx(want, rel=1e-12), (name, seed)


def test_positivity_samples_s_as_one_stack():
    sc, _ = schrodinger.build_nonsingular_example()
    points = [(x, t) for x in (-1.0, 0.0, 1.0) for t in (-0.5, 0.5)]
    report = schrodinger.check_positivity(sc, points)
    want = min(np.linalg.eigvalsh(sc.family.s(p)).min() for p in points)
    assert report.points_checked == 6
    assert report.min_s_eigenvalue == pytest.approx(want, rel=1e-12)
    assert np.isnan(schrodinger.check_positivity(sc, []).min_s_eigenvalue)
