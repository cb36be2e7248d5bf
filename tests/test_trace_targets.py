"""Every span target of the benchmark tracer resolves in the package.

`Tracer.install` in perfbench/tracer.py wraps each TARGETS entry found as
`owner.__dict__[attr]`, where the owner is the named class or the module.
A refactor that renames a traced function, or moves a traced method into a
base class, breaks `perfbench/run.py --trace 1`; this test catches that.

A traced method that still resolves but is bypassed (a caller that reaches
the shared coefficient kernel directly) reads 0 in the trace; the counting
test below catches that.
"""

import importlib
import importlib.util
from pathlib import Path

from laumonk import cli
from laumonk.finite_action import FiniteAction
from laumonk.patterns import AffinePattern, FinitePattern
from laumonk.specialization import LevelWeight, closure_report
from laumonk.toroidal_action import ToroidalAction

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


# (module, class, method) whose calls feed a traced counter
COUNTED = [
    (mod, cls, attr)
    for mod, cls in (("finite_action", "FiniteAction"),
                     ("toroidal_action", "ToroidalAction"))
    for attr in ("f_base_coeff", "e_base_coeff", "psi_eigenvalue")
] + [("specialization", "RenormalizedAction", "coefficient")] + [
    ("tangent", "TangentOracle", attr)
    for attr in ("tangent_character_space",
                 "tangent_character_correspondence", "bott_coefficient")
]


def test_traced_methods_are_reached_through_the_class(monkeypatch):
    hits = {}
    for mod_name, cls_name, attr in COUNTED:
        owner = getattr(importlib.import_module("laumonk." + mod_name),
                        cls_name)
        original = vars(owner)[attr]
        label = "%s.%s" % (cls_name, attr)
        hits[label] = 0

        def counted(*args, _original=original, _label=label, **kwargs):
            hits[_label] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    finite, fin_src = FiniteAction(3), FinitePattern(3, [[1], [0, 0]])
    affine, aff_src = ToroidalAction(3), AffinePattern(3, [(1,), (), ()])
    for action, src in ((finite, fin_src), (affine, aff_src)):
        for kind in ("e", "f"):
            assert action.transitions(kind, 1, src)
        action.psi_mode(src, 1, 1, "+")
    closure_report(LevelWeight(3, 1, (0, 0, 0)), max_total=1)
    cli.oracle_suite(3, max_degree=1)
    assert all(hits.values()), hits
