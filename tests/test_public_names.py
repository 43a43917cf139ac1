"""The public surface is what the documentation and the tools use.

A function stays in ``dronesim.__all__`` only if the README, a demo, an
acceptance test or the command line calls it or names it in backquotes;
a function that only unit tests call belongs in the tests, next to what
it checks.
"""

import inspect
import re
from pathlib import Path

import dronesim as ds

ROOT = Path(__file__).resolve().parents[1]
USERS = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
         ROOT / "src" / "dronesim" / "cli.py", *sorted((ROOT / "demos").glob("*.py"))]


def test_every_public_name_resolves_and_star_import_works():
    assert len(set(ds.__all__)) == len(ds.__all__)
    for name in ds.__all__:
        assert hasattr(ds, name), name
    namespace = {}
    exec("from dronesim import *", namespace)
    assert set(ds.__all__) <= set(namespace)


def test_every_public_function_has_a_user_outside_the_unit_tests():
    texts = [path.read_text(encoding="utf-8") for path in USERS]
    functions = [name for name in ds.__all__
                 if callable(getattr(ds, name)) and not inspect.isclass(getattr(ds, name))]
    assert functions
    unused = [name for name in functions
              if not any(re.search(rf"(?<!\w){name}(?=\(|`)", text) for text in texts)]
    assert unused == []
