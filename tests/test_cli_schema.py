"""Config schema of every (family, builder) pair: valid params validate, an
unknown key, a missing required key or a random draw without a seed exits 2.

The table below is written out by hand, independently of the families'
declarations, so it checks the CLI against the documented schema.
"""

import json

import pytest

from pseudoexp import cli

# family -> (variables, one output field)
FAMILIES = {
    "dirac": (("t", "y"), "potential"),
    "schrodinger": (("x", "t"), "potential"),
    "loewner": (("x", "y"), "solution"),
    "dsi": (("x", "t", "y"), "u"),
    "gnoe": (("x", "t", "y"), "xi"),
}

# (family, builder) -> (valid params, required keys)
BUILDERS = {
    ("dirac", "general"): (
        {
            "a1": [[1, 0], [0, 2]],
            "a2": [[1, 0], [0, -2]],
            "chat": [[1, [0, 1]], [1, [0, -1]]],
            "c": [[1, 0], [0, 1]],
            "s0": [[1, 0], [0, 1]],
        },
        ("a1", "a2", "chat"),
    ),
    ("dirac", "two_channel"): (
        {"g1": [[1, 1]], "n1": 1, "d": [1, 2], "c": [[1, 0], [0, 1]], "s0": [[1, 0], [0, 1]]},
        ("g1", "n1", "d"),
    ),
    ("dirac", "random"): ({}, ()),
    ("schrodinger", "general"): (
        {"a": [[1, 1], [0, 1]], "chat": [[0], [1]], "c": [[1, 0], [0, 1]], "s0": [[1, 0], [0, 1]]},
        ("a", "chat"),
    ),
    ("schrodinger", "singular_line"): (
        {"beta": 1, "r11": 1, "im_r12": 0, "b": 0, "d": 1},
        (),
    ),
    ("schrodinger", "rational"): ({"mu0": 1}, ()),
    ("schrodinger", "nonsingular"): ({"mu0": 1, "d": 1}, ()),
    ("schrodinger", "random"): ({}, ()),
    ("loewner", "general"): (
        {
            "d": [-0.5, 0.5],
            "a1": [[0.3]],
            "a2": [[0.2]],
            "c1": [[1], [1]],
            "c2": [[1], [[0, 1]]],
            "chat1": [[1, 0], [0, 1]],
            "chat2": [[1], [1]],
            "allow_repeated": False,
        },
        ("d", "a1", "a2", "c1", "c2", "chat1", "chat2"),
    ),
    ("loewner", "random"): ({}, ()),
    ("dsi", "general"): (
        {
            "a1": [[0.5]],
            "a2": [[0.6]],
            "c1": [[1]],
            "c2": [[1]],
            "chat1": [[0.2]],
            "chat2": [[0.3]],
            "s0": [[1]],
        },
        ("a1", "a2", "chat1", "chat2"),
    ),
    ("dsi", "rational"): (
        {
            "chat1_head": 1,
            "chat2_head": [1, 0.5],
            "c1": [[1, 0], [0, 1]],
            "c2": [[1, 0], [0, 1]],
            "s0": [[1, 0], [0, 1]],
        },
        (),
    ),
    ("dsi", "random"): ({}, ()),
    ("gnoe", "general"): (
        {
            "a": [[0.5, 0], [0, [0.7, -0.2]]],
            "chat": [[0.2, [-0.1, 0.1]], [[0, 0.1], 0.15]],
            "c": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "d": [0.8, 1.1],
            "dtilde": [1.2, 0.6],
            "b": [1, -1],
            "s0": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        },
        ("a", "chat", "d", "dtilde", "b"),
    ),
    ("gnoe", "random"): ({}, ()),
}


def _validate(tmp_path, family, params, seed=None):
    names, field = FAMILIES[family]
    config = {
        "family": family,
        "params": params,
        "grid": [{"name": n, "min": -0.2, "max": 0.2, "count": 2} for n in names],
        "output": {"fields": [field], "format": "csv", "path": "out.csv"},
    }
    if seed is not None:
        config["seed"] = seed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli.main(["validate", str(path)])


@pytest.mark.parametrize("family, builder", sorted(BUILDERS))
def test_builder_schema(tmp_path, capsys, family, builder):
    valid, required = BUILDERS[(family, builder)]
    params = {"builder": builder, **valid}
    seed = 7 if builder == "random" else None
    assert _validate(tmp_path, family, params, seed) == 0
    assert _validate(tmp_path, family, {**params, "bogus": 1}, seed) == 2
    for key in required:
        dropped = {k: v for k, v in params.items() if k != key}
        assert _validate(tmp_path, family, dropped, seed) == 2, key
    if builder == "random":
        assert _validate(tmp_path, family, params) == 2
    capsys.readouterr()
