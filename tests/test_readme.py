"""The README's library quick start runs, and its config-key table states
the defaults of the one config class."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

from kickjt import ValidatedConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_quick_start_runs_and_prints_the_critical_couplings(capsys):
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", README, re.S)
    assert block is not None, "README has no Library quick start python block"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(0.2642520088561267, 0.4576979053409523)"


def test_config_key_table_states_the_class_defaults():
    documented = dict(re.findall(r"^numerics\.(\w+)\s.*\((?:default )?([^()]+)\)$",
                                 README, re.M))
    defaults = {f.name: f.default for f in fields(ValidatedConfig) if f.default is not MISSING}
    assert set(documented) == set(defaults)
    for name, default in defaults.items():
        assert float(documented[name]) == default, name

