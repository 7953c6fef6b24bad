"""The kept list of scripts/reach.py against the package's definitions.

The script's profiled run takes seconds, so only what needs no run is
checked here: every kept name is still defined and has a reason.
"""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_keep_names_are_defined_with_reasons():
    reach = _load_reach()
    defined = set(reach.defined_functions().values())
    assert sorted(set(reach.KEEP) - defined) == []
    for name, reason in reach.KEEP.items():
        assert reason and reason in reach.REASONS, name
