"""Deterministic import gate: what importing the engine loads.

Every package ``__init__`` resolves its re-exports on first access
(PEP 562), and the engine layers (operators, kernels, windows, core,
stream) import no higher layer at module level — DESIGN.md, "Layering".
A process that only builds a ``StreamEngine`` or an ``EventTimeEngine``
therefore loads neither the service and network stack nor the
telemetry instruments.  Before the lazy exports the engine entry import
loaded 80 ``repro`` modules and 175 modules in all, asyncio, ssl and
socket among them.  Each check runs in a fresh interpreter, so no
earlier import in the test process hides a load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Entry module -> the most ``repro`` modules importing it may load
#: (itself included): today's counts.
ENTRY_MODULES = {
    "repro.stream.engine": 22,
    "repro.operators.registry": 12,
    "repro.windows.timebased": 13,
    "repro.stream.sink": 6,
}

#: Neither these modules nor their submodules load with an entry module.
FORBIDDEN = (
    "asyncio",
    "ssl",
    "socket",
    "concurrent.futures",
    "multiprocessing",
    "secrets",
    "numpy",
    "repro.service",
    "repro.net",
    "repro.baselines",
    "repro.metrics",
    "repro.telemetry.registry",
)

_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Imports every module of the library, resolves every name of every
# package's ``__all__`` and ``from repro import *``; prints what failed.
_EVERY_EXPORT = """
import json, pkgutil, sys
import repro
packages = [repro]
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    __import__(info.name)
    if info.ispkg:
        packages.append(sys.modules[info.name])
failures = [
    package.__name__ + "." + name
    for package in packages
    for name in package.__all__
    if not hasattr(package, name) or name not in dir(package)
]
namespace = {}
exec("from repro import *", namespace)
failures += ["repro." + name for name in repro.__all__ if name not in namespace]
if "numpy" in sys.modules:
    failures.append("numpy loaded")
print(json.dumps(failures))
"""


def _run_fresh(code: str):
    """Run ``code`` in a new interpreter; return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [part for part in [env.get("PYTHONPATH")] if part]
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _loaded_by(module: str):
    return _run_fresh(_NEW_MODULES.format(module=module))


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


@pytest.mark.parametrize("module", sorted(ENTRY_MODULES))
def test_engine_entry_loads_only_the_engine_layers(module):
    loaded = _loaded_by(module)
    forbidden = [
        name
        for name in loaded
        if any(_matches(name, prefix) for prefix in FORBIDDEN)
    ]
    assert not forbidden, f"import {module} loaded {forbidden}"
    ours = [name for name in loaded if _matches(name, "repro")]
    assert len(ours) <= ENTRY_MODULES[module], ours


def test_import_repro_loads_only_the_root():
    assert _loaded_by("repro") == ["repro"]


def test_every_export_resolves_and_the_library_loads_no_numpy():
    # numpy is a test-only dependency: importing every module of the
    # library and resolving every export must not load it.
    assert _run_fresh(_EVERY_EXPORT) == []
