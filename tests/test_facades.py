"""The package façades are lazy (PEP 562) but keep every public name.

Each façade resolves a name from its defining module on first use and
caches it in the package's globals.  These tests pin the contract: every
``__all__`` name resolves to the very object its defining module holds,
``dir()`` and ``from pkg import *`` see every name, unknown names raise
``AttributeError``, and importing a façade imports none of its
submodules.
"""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

FACADES = (
    "repro",
    "repro.arch",
    "repro.baselines",
    "repro.core",
    "repro.ctg",
    "repro.evalx",
    "repro.faults",
    "repro.obs",
    "repro.parallel",
    "repro.schedule",
    "repro.sim",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_python(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _defining_modules(name, value):
    """Loaded non-façade ``repro`` modules that bind ``name`` to ``value``."""
    return [
        module_name
        for module_name, module in sorted(sys.modules.items())
        if module is not None
        and module_name.startswith("repro.")
        and module_name not in FACADES
        and vars(module).get(name, None) is value
    ]


@pytest.mark.parametrize("package", FACADES)
class TestFacadeParity:
    def test_every_name_is_the_defining_modules_object(self, package):
        facade = importlib.import_module(package)
        assert facade.__all__, package
        for name in facade.__all__:
            value = getattr(facade, name)
            if name == "__version__":
                continue
            if isinstance(value, types.ModuleType):
                assert value.__name__ == f"{package}.{name}"
                continue
            owner = getattr(value, "__module__", None)
            if isinstance(value, (type, types.FunctionType)):
                assert getattr(sys.modules[owner], name) is value, f"{package}.{name}"
            else:
                assert _defining_modules(name, value), f"{package}.{name}"

    def test_resolved_names_are_cached_in_the_package(self, package):
        facade = importlib.import_module(package)
        for name in facade.__all__:
            value = getattr(facade, name)
            assert vars(facade)[name] is value

    def test_dir_lists_every_name(self, package):
        facade = importlib.import_module(package)
        assert set(facade.__all__) <= set(dir(facade))

    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        facade = importlib.import_module(package)
        for name in facade.__all__:
            assert namespace[name] is getattr(facade, name)

    def test_unknown_name_raises_attribute_error(self, package):
        facade = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            facade.no_such_name
        assert not hasattr(facade, "no_such_name")


def test_obs_get_is_a_plain_global_after_first_use():
    """``obs.get()`` runs once per Step-2 iteration: after its first use
    it must be found in the package dict, not through ``__getattr__``."""
    from repro import obs
    from repro.obs import context

    obs.get()
    assert vars(obs)["get"] is context.get


def test_fresh_import_resolves_top_level_names():
    out = _fresh_python(
        "import repro\n"
        "from repro import mesh_2x2, av_encoder_ctg\n"
        "schedule = repro.eas_schedule(av_encoder_ctg('akiyo'), mesh_2x2())\n"
        "print(repro.__version__, schedule.algorithm, schedule.deadline_misses() == [])\n"
    )
    assert out.split() == ["1.0.0", "eas", "True"]


def test_importing_a_facade_imports_none_of_its_submodules():
    script = (
        "import json, sys\n"
        f"facades = {list(FACADES)!r}\n"
        "loaded = {}\n"
        "for name in facades:\n"
        "    before = set(sys.modules)\n"
        "    __import__(name)\n"
        "    loaded[name] = sorted(m for m in set(sys.modules) - before if m.startswith('repro'))\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = json.loads(_fresh_python(script))
    assert loaded.pop("repro") == ["repro", "repro._lazy"]
    for package, modules in loaded.items():
        assert modules == [package], package
