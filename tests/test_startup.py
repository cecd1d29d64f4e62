"""The package's lazy loading, as README "Start-up" states it, each in a fresh interpreter."""
import json

from slcap import _MODULES
from test_cli import FRONT_END, fresh

# Runs the statements given, then prints the numpy and slcap modules loaded.
LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.partition(".")[0] == "slcap")))
"""


def loaded_by(statements: str) -> set[str]:
    return set(json.loads(fresh(LOADED, statements)))


def test_import_loads_no_numeric_module():
    assert loaded_by("import slcap") == {"slcap"}


def test_public_name_loads_its_module_alone():
    assert loaded_by("import slcap; slcap.parse_touchstone") == {
        "numpy", "slcap", "slcap.touchstone", "slcap._cpus", "slcap._frozen", "slcap._options"}


def test_star_import_loads_every_numeric_module():
    assert {f"slcap.{m}" for m in _MODULES} <= loaded_by("from slcap import *")


def test_cli_private_names_raise_and_load_nothing():
    """A private name on ``cli`` is never looked up in a numeric module: the import
    system probes ``__path__`` on ``from .cli import main``."""
    statements = """
import slcap.cli
for name in ("__path__", "_nope"):
    try:
        getattr(slcap.cli, name)
    except AttributeError:
        continue
    raise AssertionError(name)
"""
    assert loaded_by(statements) == FRONT_END
