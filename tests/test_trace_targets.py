"""Every span target of the benchmark tracer resolves in the package.

`Tracer.install` in perfbench/tracer.py wraps each TARGETS entry found as
`owner.__dict__[attr]`, where the owner is the named class or the module.
A refactor that renames a traced function, or moves a traced method into a
base class, breaks `perfbench/run.py --trace 1`; this test catches that.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves_as_the_tracer_resolves_it():
    targets = _tracer_targets()
    assert targets
    unresolved = []
    for mod_name, cls_name, attr, _group, _payload in targets:
        full = mod_name if mod_name.startswith("sympy") else "laumonk." + mod_name
        module = importlib.import_module(full)
        owner = getattr(module, cls_name) if cls_name else module
        if not callable(vars(owner).get(attr)):
            unresolved.append(".".join(filter(None, (mod_name, cls_name, attr))))
    assert unresolved == []
