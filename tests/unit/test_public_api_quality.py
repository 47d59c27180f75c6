"""Quality gates on the public API surface.

Deliverable (e) requires doc comments on every public item; these
tests make that a regression-checked property rather than a promise:
every public module, class, and function/method under ``repro`` and
under the paper harness ``benchmarks.paper`` must carry a docstring,
and ``__all__`` names must resolve.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro

import benchmarks.paper


def _public_modules():
    for package in (repro, benchmarks.paper):
        yield package
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package.__name__ + "."
        ):
            if any(part.startswith("_") for part in info.name.split(".")):
                continue
            yield importlib.import_module(info.name)


def test_every_public_module_has_a_docstring():
    missing = [
        module.__name__
        for module in _public_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_has_a_docstring():
    missing = []
    for module in _public_modules():
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their source
            if inspect.isclass(member):
                if not (member.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
                for attr_name, attr in vars(member).items():
                    if attr_name.startswith("_"):
                        continue
                    if not inspect.isfunction(attr):
                        continue
                    if (attr.__doc__ or "").strip():
                        continue
                    # Overrides inherit their contract from a
                    # documented base (push/query/step/combine/...).
                    inherited = any(
                        (getattr(base, attr_name, None) is not None
                         and (getattr(base, attr_name).__doc__ or "")
                         .strip())
                        for base in member.__mro__[1:]
                    )
                    if not inherited:
                        missing.append(
                            f"{module.__name__}.{name}.{attr_name}"
                        )
            elif inspect.isfunction(member):
                if not (member.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_all_exports_resolve():
    for module in _public_modules():
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists missing {name!r}"
            )


def test_package_root_exposes_the_headline_api():
    for name in (
        "Query", "SharedSlickDeque", "make_slickdeque",
        "get_operator", "get_algorithm", "TimeQuery",
        "CompatibleSharedEngine",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)
