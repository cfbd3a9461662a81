"""Every name a flowpose module imports is used in that module.

`__init__.py` is left out: it imports names to re-export them.
"""

import ast
import os

import pytest

import flowpose

PACKAGE = os.path.dirname(os.path.abspath(flowpose.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith('.py') and name != '__init__.py')


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
