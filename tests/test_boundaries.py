"""Module boundaries: no ccsim module uses another's private names."""

import ast
from pathlib import Path

import ccsim

PACKAGE = Path(ccsim.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _breaches(path: Path) -> list[str]:
    """Each import of another ccsim module's single-underscore name in
    ``path``, and each read of one as an attribute of a ccsim module."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    tree = ast.parse(path.read_text(), str(path))
    aliases, out = {}, []  # aliases: a local name -> the ccsim module it is
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not (module == "ccsim" or module.startswith("ccsim.")):
                continue
            target = module.split(".")[-1] if module not in ("", "ccsim") else None
            for a in node.names:
                if target is None and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif target is not None and target != path.stem and _private(a.name):
                    out.append(f"{path.stem} imports {target}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("ccsim.") and a.asname:
                    aliases[a.asname] = a.name.split(".")[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            out.append(f"{path.stem} reads {aliases[node.value.id]}.{node.attr}")
    return out


def test_no_module_uses_another_modules_private_names():
    breaches = [b for path in sorted(PACKAGE.glob("*.py")) for b in _breaches(path)]
    assert breaches == []


def test_the_check_sees_both_kinds_of_breach(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import mna\nfrom .netlist import _fmt_source, __all__\nmna._linear_stamp\n")
    assert sorted(_breaches(probe)) == ["probe imports netlist._fmt_source", "probe reads mna._linear_stamp"]


def test_each_example_name_lives_in_the_library():
    # an example's configuration is defined once, in library.py: no other
    # module may name an example and so hold its own idea of one
    from ccsim.library import EXAMPLE_NAMES

    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "library.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and node.value in EXAMPLE_NAMES
    ]
    assert found == []
