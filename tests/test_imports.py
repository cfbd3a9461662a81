"""Every name a flowpose module imports is used in that module, every
top-level function and class has a caller, and every setting is read.

The package re-exports nothing: `import flowpose` loads no submodule, and
each module loads only the modules it calls.
"""

import ast
import inspect
import os
import subprocess
import sys

import pytest

import flowpose
from flowpose import cli, solver, trajectory

PACKAGE = os.path.dirname(os.path.abspath(flowpose.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith('.py'))


def loaded_submodules(statement):
    """The flowpose submodules loaded in a fresh interpreter after it runs
    statement."""
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [os.path.dirname(PACKAGE)] + [p for p in [env.get('PYTHONPATH')] if p])
    probe = (f"{statement}\nimport sys\nprint(*sorted(name.split('.')[1] "
             "for name in sys.modules if name.startswith('flowpose.')))")
    done = subprocess.run([sys.executable, '-c', probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


@pytest.mark.parametrize('statement,loaded', [
    ('import flowpose', []),
    ('import flowpose.trajectory',
     ['camera', 'errors', 'rasters', 'se3', 'trajectory'])])
def test_import_loads_only_what_it_calls(statement, loaded):
    assert loaded_submodules(statement) == loaded


def unused_imports(source):
    """Names bound by an import statement in source that no expression of
    the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.add(alias.asname or alias.name.split('.')[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_an_unused_import():
    source = "import os\nfrom dataclasses import dataclass, field\n" \
             "import numpy.linalg\n@dataclass\nclass A:\n    x: int\n" \
             "numpy.linalg.norm"
    assert unused_imports(source) == ['field', 'os']


@pytest.mark.parametrize('module', MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == [], module


# the repository holding this file: the package may be imported from
# elsewhere, an installed copy for one
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# functions that only tests call, kept on purpose (ROADMAP "Keep")
TEST_ONLY = {'jacobian_row', 'nll_gradients', 'combined_semisupervised',
             'pose_loss'}


def python_files(directory):
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory) if name.endswith('.py'))


def read_names(source):
    """Names that source reads, imports or spells as a whole string (the
    bench wraps functions by name); a top-level definition's references to
    itself are left out."""
    names = set()
    for top in ast.parse(source).body:
        own = getattr(top, 'name', None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split('.')[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                names.add(name)
    return names


def unreferenced(definitions, sources):
    """The top-level functions and classes of definitions (module name ->
    source) that no source in sources reads."""
    read = set().union(*(read_names(source) for source in sources))
    return sorted(
        f"{module}.{node.name}"
        for module, source in definitions.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read)


def test_finds_an_unreferenced_helper():
    module = "def used():\n    return 1\n\n" \
             "def helper():\n    return helper()\n\nclass Dead:\n    pass\n"
    caller = "from m import used\nused()\nWRAPPED = ('m', 'helper')\n"
    assert unreferenced({'m': module}, [module]) == ['m.Dead', 'm.helper',
                                                     'm.used']
    assert unreferenced({'m': module}, [module, caller]) == ['m.Dead']


def test_every_helper_has_a_caller():
    sources = {}
    for directory in (PACKAGE, os.path.join(ROOT, 'demos'),
                      os.path.join(ROOT, 'bench')):
        for path in python_files(directory):
            with open(path) as fh:
                sources[path] = fh.read()
    definitions = {os.path.basename(path)[:-3]: sources[path]
                   for path in python_files(PACKAGE)}
    # cli.main looks the cmd_* functions up by name
    dead = [name for name in unreferenced(definitions, sources.values())
            if name.split('.')[1] not in TEST_ONLY
            and not name.startswith('cli.cmd_')]
    assert dead == []


def test_every_setting_is_read():
    # a command's setting flags are exactly the keyword parameters with a
    # default of the library function it passes them to
    def settings(*argv):
        return set(cli.build_parser().parse_args(argv).settings)

    def keywords(function):
        return {name for name, p in inspect.signature(
            function).parameters.items() if p.default is not p.empty}
    assert settings('solve', '--depth', 'd', '--flow', 'f',
                    '--intrinsics', 'k') == keywords(solver.solve)
    assert settings('eval-traj', '--est', 'e', '--gt', 'g') == keywords(
        trajectory.evaluate)
