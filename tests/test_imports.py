"""Every imported name is read somewhere in its module, every private
module-level function or class in ``src/`` is read by some ``src/`` module,
and every public one by some module under ``src/``, ``tests/`` or ``bench/``;
the public ones that no ``src/`` module reads are the listed test oracles.
No ``src/`` module imports another's private names, but for one listed pair.
No ``cli`` subcommand handler raises ``ConfigError``: a check that reads the
config alone lives in ``config._validate``, which every subcommand runs.

Package ``__init__`` modules are exempt from the first check: their imports
are the re-exported public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
SRC = sorted((ROOT / "src").rglob("*.py"))
# MODULES leaves out package __init__ modules: a re-export is not a read
READERS = MODULES + sorted((ROOT / "bench").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == \
        ["math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: ".".join(p.relative_to(ROOT).with_suffix("").parts))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> set[str]:
    """Names of the module-level functions and classes."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def private_definitions(source: str) -> set[str]:
    """Module-level functions and classes named with one leading underscore."""
    return {name for name in definitions(source)
            if name.startswith("_") and not name.startswith("__")}


def public_definitions(source: str) -> set[str]:
    """Module-level functions and classes named without a leading underscore."""
    return {name for name in definitions(source) if not name.startswith("_")}


def names_read(source: str) -> set[str]:
    """Names loaded, attributes taken and names imported from other modules."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_sees_an_unused_private_definition():
    source = "def _used(): pass\nclass _Orphan: pass\n_used()\n"
    assert private_definitions(source) - names_read(source) == {"_Orphan"}


def test_no_unused_private_definitions():
    sources = [p.read_text() for p in SRC]
    read = set().union(*map(names_read, sources))
    unread = [(p.relative_to(ROOT).as_posix(), name) for p, source in zip(SRC, sources)
              for name in sorted(private_definitions(source) - read)]
    assert unread == []


def test_the_scan_sees_an_unused_public_definition():
    source = "def used(): pass\nclass Orphan: pass\nused()\n"
    assert public_definitions(source) - names_read(source) == {"Orphan"}


def test_no_unused_public_definitions():
    read = set().union(*(names_read(p.read_text()) for p in READERS))
    unread = [(p.relative_to(ROOT).as_posix(), name) for p in SRC
              for name in sorted(public_definitions(p.read_text()) - read)]
    assert unread == []


# Public src/ definitions that no src/ module reads; each is kept as a test's oracle.
TEST_ORACLES = {
    "exact_distribution": "the chain's atoms after n steps; criterion 8 reads the ladder mass",
    "ladder_survival_limit": "the closed-form limit of the ladder survival; criterion 8",
    "simulate_paths": "Monte-Carlo chain paths against the exact tree; criterion 8",
    "displacement_identity_gap": "criterion 4: the displacement is the velocity's integral",
}


def unread_public_definitions(sources: list[str]) -> set[str]:
    """Public module-level definitions of the sources that none of them reads."""
    read = set().union(*map(names_read, sources))
    return set().union(*map(public_definitions, sources)) - read


def unlisted_and_stale(sources: list[str], oracles: dict) -> tuple[set[str], set[str]]:
    """The unread public definitions that are not listed oracles, and the
    listed oracles that are not unread public definitions."""
    unread = unread_public_definitions(sources)
    return unread - oracles.keys(), oracles.keys() - unread


def test_the_scan_sees_a_public_definition_only_tests_read():
    sources = ["def oracle(): pass\ndef used(): pass\n", "from .a import used\nused()\n"]
    assert unread_public_definitions(sources) == {"oracle"}
    assert unlisted_and_stale(sources, {}) == ({"oracle"}, set())


def test_the_scan_sees_a_stale_test_oracle():
    sources = ["def oracle(): pass\n", "from .a import oracle\noracle()\n"]
    listed = {"oracle": "now read by a src module", "deleted": "no longer defined"}
    assert unlisted_and_stale(sources, listed) == (set(), {"oracle", "deleted"})


def test_public_definitions_no_src_module_reads_are_test_oracles():
    src = [p.read_text() for p in MODULES if p.is_relative_to(ROOT / "src")]
    assert unlisted_and_stale(src, TEST_ORACLES) == (set(), set())


# tracer steps call field._eval directly, for their RK4 stages and for the
# first stage of a run's unrecorded steps: a call through the public evaluate
# would add to evaluate's call count, which the bench's run trace records.
ALLOWED_PRIVATE_IMPORTS = {("tracerflow.tracer", "tracerflow.field", "_eval")}


def private_imports(source: str, module: str) -> set[tuple[str, str, str]]:
    """(importer, module, name) for each private name that module imports
    from a module of its own package, by a relative or an absolute import."""
    package = module.rsplit(".", 1)[0]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source_module = (".".join(filter(None, [package, node.module])) if node.level == 1
                         else node.module)
        if source_module.split(".")[0] == package:
            found.update((module, source_module, alias.name) for alias in node.names
                         if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


def test_the_scan_sees_a_private_import():
    source = ("from .field import _eval, evaluate\nfrom . import __version__\n"
              "from pkg.chain import _paths\nfrom numpy import _core\n")
    assert private_imports(source, "pkg.tracer") == {("pkg.tracer", "pkg.field", "_eval"),
                                                     ("pkg.tracer", "pkg.chain", "_paths")}


def test_no_private_imports_across_src_modules():
    found = set().union(*(private_imports(p.read_text(), ".".join(
        p.relative_to(ROOT / "src").with_suffix("").parts)) for p in SRC))
    assert found - ALLOWED_PRIVATE_IMPORTS == set()


def handlers_raising_config_error(source: str) -> set[str]:
    """The module-level ``_cmd_*`` functions whose body raises ``ConfigError``."""
    def raises_config_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigError"

    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
            and any(isinstance(n, ast.Raise) and raises_config_error(n)
                    for n in ast.walk(node))}


def test_the_scan_sees_a_handler_raising_config_error():
    source = ("def _cmd_a(cfg):\n    if cfg:\n        raise ConfigError('x')\n"
              "def _cmd_b(cfg):\n    raise config.ConfigError\n"
              "def _cmd_c(cfg):\n    raise CheckFailure('y')\n"
              "def _write(path):\n    raise ConfigError('z')\n")
    assert handlers_raising_config_error(source) == {"_cmd_a", "_cmd_b"}


def test_no_cli_handler_raises_config_error():
    # output I/O (_write_lines) and main's --threads and config reading stay outside
    source = (ROOT / "src" / "tracerflow" / "cli.py").read_text()
    assert handlers_raising_config_error(source) == set()
