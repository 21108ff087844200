"""The package's export list."""

import ast
import pathlib

import lagrange_kit

ROOT = pathlib.Path(__file__).resolve().parents[1]

# exports that no module and no benchmark loads yet, each with its reason
UNREACHED_EXPORTS = {
    "constant_term_supplement": "a paper statement that the identity catalog will check",
    "log_f_over_x": "a paper statement that the identity catalog will check",
    "run_all": "the catalog at its defaults, timed end to end by tests/test_acceptance.py",
}


def _loaded_names(paths):
    """The names the code of ``paths`` loads, as a Name or an Attribute;
    docstrings, comments and import lines do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_resolves_once():
    names = lagrange_kit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(lagrange_kit, name)]
    assert missing == []


def test_every_export_has_a_caller():
    package = pathlib.Path(lagrange_kit.__file__).parent
    loaded = _loaded_names(p for p in package.glob("*.py") if p.name != "__init__.py")
    loaded |= _loaded_names((ROOT / "perfbench").glob("*.py"))
    unreached = [
        name for name in lagrange_kit.__all__
        if name not in loaded and name not in UNREACHED_EXPORTS
    ]
    assert unreached == []
    # an allowed name leaves the list once it gains a caller or is deleted
    assert UNREACHED_EXPORTS.keys() <= set(lagrange_kit.__all__) - loaded
