"""Every function the benchmark's tracer hooks still exists under its name.

perfbench/tracing.py wraps ppmplan functions by module and attribute name,
and leaves out the metrics of a target it cannot find. A renamed function
would thus drop per-layer metrics from every benchmark run; this test fails
on it instead. tracing.py is loaded by path and left as it is: it imports
only the standard library.
"""

import importlib.util
import sys
from pathlib import Path

# every module the targets live in is imported before the tracer is
# installed: a module that the install itself imports binds the wrappers of
# the targets wrapped before it, and keeps them after uninstall
from ppmplan import experiment, traffic
from ppmplan.provisioning import Provisioner

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    serve = Provisioner.__dict__["serve"]
    try:
        tracer.install(tracing.LAYER_TARGETS + tracing.SOLVER_TARGETS)
        assert tracer.missing == {}
        assert Provisioner.__dict__["serve"] is not serve
    finally:
        tracer.uninstall()
    assert Provisioner.__dict__["serve"] is serve
    assert experiment.find_load_at_rejection is traffic.find_load_at_rejection
    assert not hasattr(traffic.find_load_at_rejection, "__wrapped__")
