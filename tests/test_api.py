"""The public surface: root exports, module exports, and the benchmark tracer's targets."""

import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import bcfeedback

REPO = Path(__file__).resolve().parents[1]

# the documented library surface; README's "Library API" paragraph names it
ROOT_API = {
    "ChannelConfig",
    "solve_lambda_bc", "solve_lambda_mac", "solve_rho", "rate_report",
    "make_schedule", "prepare_scheme",
    "__version__",
}

# every submodule except __main__, which runs the CLI on import
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(bcfeedback.__path__) if info.name != "__main__"
)


def test_root_exports_the_documented_surface():
    assert sorted(bcfeedback.__all__) == sorted(ROOT_API)
    for name in bcfeedback.__all__:
        assert hasattr(bcfeedback, name), name


def test_readme_names_the_root_surface():
    text = (REPO / "README.md").read_text()
    section = re.search(r"^## Library API\n(.*?)(?=^## )", text, re.S | re.M)
    assert section, "README has no 'Library API' section"
    named = set(re.findall(r"`([A-Za-z_]+)`", section.group(1)))
    assert ROOT_API <= named


def test_root_names_load_at_first_use(fresh_python):
    namespace = {}
    exec("from bcfeedback import *", namespace)
    assert set(bcfeedback.__all__) <= set(namespace)
    assert set(bcfeedback.__all__) <= set(dir(bcfeedback))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bcfeedback.no_such_name
    # in a fresh interpreter: the float names leave numpy out, prepare_scheme loads it
    code = "\n".join([
        "import sys",
        "import bcfeedback",
        "for name in bcfeedback.__all__:",
        "    if name != 'prepare_scheme':",
        "        getattr(bcfeedback, name)",
        "assert 'numpy' not in sys.modules, 'a float name loaded numpy'",
        "bcfeedback.prepare_scheme",
        "assert 'numpy' in sys.modules",
    ])
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"bcfeedback.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"bcfeedback.{module}.{name}"


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # loaded by path under a private name, registered only for this test (its
    # dataclasses look their module up); no tracer is installed
    path = REPO / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    targets = tracing.SPANNED + tracing.COUNTED
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
