"""The batched grid engine: factored exponentials, one solve per quantity
for a whole grid, stacked and single-point results from one code path, and
construction screens that draw the same scenarios as the per-point ones
they replaced."""

import numpy as np
import pytest

from pseudoexp import dirac, dsi, family, gnoe, linalg, loewner, schrodinger, verify

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
    return [sc.family.block.recipe]


@pytest.mark.parametrize("label, sc, module", _scenarios(), ids=lambda v: v if isinstance(v, str) else "")
def test_factored_exponential_matches_exponential_of_the_sum(label, sc, module):
    rng = np.random.default_rng(12)
    points = np.vstack(
        [module.default_grid().stacked(), rng.uniform(-1.0, 1.0, (20, len(module.VAR_NAMES)))]
    )
    for recipe in _recipes(sc):
        got = recipe.exp_value(points)
        for p, e in zip(points, got):
            want = linalg.mat_exp(sum(v * g for v, g in zip(p, recipe.generators)))
            assert linalg.fro(e - want) <= 1e-13 * linalg.fro(want), (label, p)


def _counting_factors(monkeypatch):
    """Record each ``linalg.factor_pivoted`` call as (S, ok, [RHS of each
    substitution against that factor])."""
    factor, factors = linalg.factor_pivoted, []

    def counting(s):
        solve, ok = factor(s)
        rhs = []
        factors.append((s, ok, rhs))
        return (lambda b: rhs.append(b) or solve(b)), ok

    monkeypatch.setattr(linalg, "factor_pivoted", counting)
    return factors


# Factorizations per sweep: one of S (Lambda_1 for Loewner) on the grid and
# one on the FD call's stack of shifted points.
FACTORS_PER_SWEEP = 2
# Substitutions per sweep: one per derivative of Y = S^-1 Pi the analytic
# channels need, plus one for the one FD call per sweep, whose field call
# (W and Q together for Schrodinger) needs Y alone. DS I's analytic
# channels need Y_x and Y_y. Loewner substitutes for Psi, L, Psi_x and
# Psi_y, and once for the FD call, of Psi alone.
SUBSTITUTIONS_PER_SWEEP = {"dirac": 4, "dsi": 4, "gnoe": 2, "loewner": 5, "schrodinger": 5}
# Rows substituted per sweep, in grid sizes: one per analytic
# substitution, plus the FD stack's copies of the grid, one per nonzero
# stencil offset of each differenced variable (8 for x and y, 12 for x, t
# and y at accuracy 4).
ROWS_PER_SWEEP = {"dirac": 11, "dsi": 15, "gnoe": 13, "loewner": 12, "schrodinger": 12}
# Views per sweep: one on the grid, one for the FD call. Loewner is not a
# pseudo-exponential family.
VIEWS_PER_SWEEP = {"dirac": 2, "dsi": 2, "gnoe": 2, "loewner": 0, "schrodinger": 2}
# exp(M) evaluations per sweep: one per view, DS I's two nodes being one
# block-diagonal node; Loewner forms each of its two factors once per call.
EXP_VALUES_PER_SWEEP = {"dirac": 2, "dsi": 2, "gnoe": 2, "loewner": 4, "schrodinger": 2}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.SPEC.name)
def test_solves_per_sweep_do_not_grow_with_the_grid(module, monkeypatch):
    sc = module.random_scenario(np.random.default_rng(5))
    factors = _counting_factors(monkeypatch)
    views = []
    at = family.PseudoExpFamily.at
    monkeypatch.setattr(family.PseudoExpFamily, "at", lambda fam, p: views.append(p) or at(fam, p))
    exps = []
    exp_value = family.ExponentRecipe.exp_value
    monkeypatch.setattr(
        family.ExponentRecipe, "exp_value", lambda rec, p, *a, **kw: exps.append(p) or exp_value(rec, p, *a, **kw)
    )
    counts = []
    for count in (3, 5):
        factors.clear()
        views.clear()
        exps.clear()
        report = module.verify_scenario(sc, grid=module.default_grid(count=count))
        assert report.passed and report.masked_count == 0
        size = count ** len(module.VAR_NAMES)
        assert all(len(s) % size == 0 for s, _, _ in factors)
        rhs = [b for _, _, subs in factors for b in subs]
        assert all(len(b) % size == 0 for b in rhs)
        counts.append((len(factors), len(rhs), len(views), sum(map(len, rhs)) // size, len(exps)))
    name = module.SPEC.name
    pins = (
        FACTORS_PER_SWEEP,
        SUBSTITUTIONS_PER_SWEEP[name],
        VIEWS_PER_SWEEP[name],
        ROWS_PER_SWEEP[name],
        EXP_VALUES_PER_SWEEP[name],
    )
    assert counts == [pins] * 2


def test_every_solve_of_a_view_gives_its_mask(monkeypatch):
    # On this 17x17 grid (spacing 1/16, exact in binary) 7 points lie on the
    # singular line x + 2t = -3/4. The view factors S once, and every Y is a
    # substitution against that factor, so all share the mask it reports.
    sc, _ = schrodinger.build_singular_line_example()
    axes = (verify.Axis("x", -1.0, 0.0, 17), verify.Axis("t", -0.25, 0.75, 17))
    points = verify.Grid(axes).stacked()
    factors = _counting_factors(monkeypatch)
    view = sc.family.at(points)
    for deriv in [(), (1,), (0,), (0, 0), (0, 1)]:
        view.w(deriv)
    view.q((1, 0))
    [(s, ok, rhs)] = factors
    assert s is view.s(()) and ok is view.ok
    assert len(rhs) == 5
    assert (~view.ok).sum() == 7
    assert np.array_equal(view.ok, points[:, 0] + 2 * points[:, 1] != -0.75)
    for deriv in [(), (1,), (0,), (0, 0), (0, 1)]:
        assert not view.y(deriv)[~view.ok].any()

    # Reading the mask factors S and substitutes for nothing.
    factors.clear()
    view = sc.family.at(points)
    assert np.array_equal(view.ok, ok)
    assert len(factors) == 1 and factors[0][2] == []

    # A view asked only for Pi factors nothing, and neither do the premise
    # channels.
    factors.clear()
    view = sc.family.at(points)
    for deriv in [(), (0,), (1,), (0, 0), (1, 0)]:
        view.pi(deriv)
    for module in (dsi, gnoe):
        sc = module.random_scenario(np.random.default_rng(0))
        module._premises(sc, sc.family.at(module.default_grid().stacked()).pi)
    assert factors == []


# Each family's public field functions, all from ``SPEC.field_function``,
# with the output fields each returns.
FIELD_FUNCTIONS = {
    "dirac": {"potential": ("potential",), "wave": ("wave",)},
    "dsi": {"fields_uq": ("u", "q1", "q2")},
    "gnoe": {"xi": ("xi",)},
    "loewner": {"eval_loewner": ("solution", "coefficient")},
    "schrodinger": {"potential": ("potential",), "wave": ("wave",)},
}


def _as_tuple(value, names):
    return value if len(names) > 1 else (value,)


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
    # The public field functions: their stacks are those of field_values,
    # and one point gives its row of the stack, or None where it is masked.
    for function, names in FIELD_FUNCTIONS[module.SPEC.name].items():
        fn = getattr(module, function)
        stacked, fn_ok = fn(sc, points)
        assert np.array_equal(fn_ok, fields_ok)
        for name, got in zip(names, _as_tuple(stacked, names)):
            assert np.array_equal(got, values[module.SPEC.fields.index(name)]), (function, name)
        for k, point in enumerate(points):
            one = fn(sc, point)
            if not fields_ok[k]:
                assert one is None
                continue
            for single, got in zip(_as_tuple(one, names), _as_tuple(stacked, names)):
                np.testing.assert_allclose(single, got[k], rtol=1e-13, atol=1e-300)


def _view_scenarios():
    """(label, scenario, module): a draw of each node family, Pi of one row
    among them, and the singular line's masked points."""
    rng = np.random.default_rng(13)
    return [
        ("schrodinger-random", schrodinger.random_scenario(rng), schrodinger),
        ("schrodinger-singular-line", schrodinger.build_singular_line_example()[0], schrodinger),
        ("dirac-random", dirac.random_scenario(rng), dirac),
        ("dsi-random", dsi.random_scenario(rng), dsi),
        ("dsi-one-row", dsi.random_scenario(rng, max_dim=1), dsi),
        ("gnoe-random", gnoe.random_scenario(rng), gnoe),
    ]


@pytest.mark.parametrize("label, sc, module", _view_scenarios(), ids=lambda v: v if isinstance(v, str) else "")
def test_view_at_a_stack_is_bitwise_each_point_alone(label, sc, module):
    nvars = len(module.VAR_NAMES)
    n, dim = sc.family.block.c.shape
    small = module.default_grid(count=3).stacked()
    stacks = [(small, range(len(small)))]
    if n > 1:
        # A spread of a grid on which C exp(M) times a constant, N n rows by
        # dim by dim, passes 2^19 multiply-adds, twice the size past which
        # OpenBLAS may split a product across threads.
        large = module.default_grid(count=int(np.ceil((2**19 / (n * dim * dim)) ** (1 / nvars)))).stacked()
        stacks.append((large, np.linspace(0, len(large) - 1, 7).astype(int)))
    for points, picks in stacks:
        view = sc.family.at(points)
        for k in picks:
            one = sc.family.at(points[k : k + 1])
            for deriv in [(), (0,), (1,), (0, 0)]:
                for name in ("pi", "s", "q", "w"):
                    got, want = getattr(view, name)(deriv)[k], getattr(one, name)(deriv)[0]
                    assert got.tobytes() == want.tobytes(), (name, deriv, k)


@pytest.mark.parametrize(
    "module, sc, singular, regular",
    [
        # The line x + 2 t = -3/4 of the singular-line example.
        (schrodinger, schrodinger.build_singular_line_example()[0], (-0.75, 0.0), (0.5, 0.1)),
        # The two-channel config's anti-diagonal t + y = 0.
        (dirac, dirac.build_two_channel(np.array([[1.0, 1.0]]), 1, [1, 2]), (0.5, -0.5), (0.5, 0.5)),
    ],
    ids=["schrodinger", "dirac"],
)
def test_field_functions_give_none_on_a_singular_set(module, sc, singular, regular):
    for function in FIELD_FUNCTIONS[module.SPEC.name]:
        fn = getattr(module, function)
        assert fn(sc, singular) is None, function
        assert fn(sc, regular) is not None, function
        _, ok = fn(sc, np.array([singular, regular]))
        assert ok.tolist() == [False, True]


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
