"""The README's library quick start runs, and its config-key table states
every key the command line declares, with the declared default and the
range the pre-run check enforces."""

import re
from dataclasses import MISSING
from pathlib import Path

import pytest

from kickjt import cli
from kickjt import configfile as cf
from kickjt.errors import ConfigError

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# key -> (range, default) cells of the README's config-key table
KEY_TABLE = {key: (rng.strip(), default.strip()) for key, rng, default in re.findall(
    r"^\| `([a-z]\w*\.\w+)` \|[^|]*\|([^|]*)\|([^|]*)\|", README, re.M)}


def test_quick_start_runs_and_prints_the_critical_couplings(capsys):
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", README, re.S)
    assert block is not None, "README has no Library quick start python block"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(0.2642520088561267, 0.4576979053409523)"


def test_config_key_table_names_every_declared_key():
    declared = set().union(*cli.DECLARED.values())
    assert len(KEY_TABLE) == 12
    assert set(KEY_TABLE) == set(cli.KEYS) == declared


@pytest.mark.parametrize("key", sorted(cli.KEYS))
def test_config_key_table_states_the_declared_default(key):
    default, stated = cli.KEYS[key][1], KEY_TABLE[key][1]
    if stated == "required":
        assert default is MISSING
    elif stated == "—":
        assert default is None
    else:
        expected = list(default) if isinstance(default, tuple) else [default]
        assert cf.number_list(cf.Entry(key, stated, 0)) == expected


def _stated_bounds(key):
    """(comparison, bound text) of each bound the README states for key."""
    return re.findall(r"(>=|<=|>|<) ([^,]+)", KEY_TABLE[key][0])


def _accepts(key, value):
    """Whether the pre-run check accepts value for key, in the first
    scenario that declares key, with the other keys it needs set."""
    command = next(c for c, keys in cli.DECLARED.items() if key in keys)
    lines = {k: v for k, v in [("model.omega", "pi/60"), ("model.delta", "2*acot(2)"),
                               ("model.lambda_list", "0.1")] if k in cli.DECLARED[command]}
    if key.startswith("model.lambda_"):
        del lines["model.lambda_list"]
    lines[key] = f"{value}:{value}:1" if key == "model.lambda_grid" else value
    try:
        cli.validate(command, cf.read_entries("".join(f"{k} = {v}\n" for k, v in lines.items())))
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("key", sorted(cli.KEYS))
def test_config_key_table_states_the_enforced_range(key):
    # each stated bound holds exactly where the check draws it ...
    for comparison, bound in _stated_bounds(key):
        b = f"({bound})"
        probes = {">=": [(b, True), (f"{b} - 1", False)],
                  "<=": [(b, True), (f"{b} + 1", False)],
                  ">": [(b, False), (f"{b} + 1e-6", True)],
                  "<": [(b, False), (f"{b} - 1e-6", True)]}[comparison]
        for value, accepted in probes:
            assert _accepts(key, value) == accepted, (key, value)
    # ... and every bound the table declares is stated
    stated = {(c, cf.number(cf.Entry(key, b, 0))) for c, b in _stated_bounds(key)}
    assert set(cli.KEYS[key][2]) <= stated
