"""Every function and class of the package has a caller in src/, or a
stated reason to exist.

The guard collects the top-level and class-level `def`/`class` names of
src/laumonk/*.py (dunders excluded) and counts the uses of each name in
src/: a bare name (`f(...)`, `x = f`) or an attribute (`obj.f`).  Keyword
argument names, parameters, imports and mentions in comments and strings do
not count.  A name with no use must be on ALLOWED with a one-line reason,
and every ALLOWED entry must still be such a name.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "laumonk"

# "module.Class.name" or "module.name" -> why it stays without a src caller
ALLOWED = {
    "exact.expand_series":
        "test reference for psi_mode",
    "exact.recomposition_residual":
        "test reference: independent check of expand_series",
    "finite_action.FiniteAction.psi_via_a_series":
        "theory check (psi from the a-series); a perfbench trace target",
    "finite_action.FiniteAction.chi_coeff":
        "theory check: the commutator diagonal equals the psi-mode difference",
    "specialization.specialize":
        "test reference: the canonical route FactoredCoefficient.value "
        "is compared against",
    "patterns.AffinePattern.empty":
        "test reference: the empty pattern of the affine tests",
    "patterns.AffinePattern.from_json":
        "test reference: reads report patterns back (inverse of to_json)",
    "patterns.FinitePattern.from_json":
        "test reference: inverse of to_json (JSON round-trip test)",
    "specialization.RenormalizedAction.symbolic_coefficient":
        "theory check (conjugation identity); a perfbench trace target",
    "specialization.build_Vmu_block":
        "test reference (pinned V(mu) block digests); a perfbench trace target",
    "tangent.WeightMultiset.to_strings":
        "test reference: tangent characters read as text",
    "tangent.TangentOracle.c_norm":
        "theory check: the renormalization of the conjugation identity",
    "toroidal_action.ToroidalAction.node_shift_coeff":
        "theory check: the periodic-shift invariant of the affine module",
}


def _definitions():
    """(qualified name, bare name) of every def/class, dunders excluded."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            members = [(node, module)]
            if isinstance(node, ast.ClassDef):
                members += [(sub, "%s.%s" % (module, node.name))
                            for sub in node.body]
            for item, owner in members:
                if not isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if item.name.startswith("__") and item.name.endswith("__"):
                    continue
                out.append(("%s.%s" % (owner, item.name), item.name))
    return out


def _uses(source):
    """Counter of the names that `source` reads as a name or an attribute."""
    counts = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def test_uses_count_names_and_attributes_not_keywords():
    assert _uses("f(specialize=1)")["specialize"] == 0
    assert _uses("x.specialize()")["specialize"] == 1
    assert _uses("def g(specialize): pass\nimport specialize")[
        "specialize"] == 0
    assert _uses("g = specialize")["specialize"] == 1


def test_every_definition_has_a_caller_or_a_reason():
    definitions = _definitions()
    used = sum((_uses(path.read_text()) for path in SRC.glob("*.py")),
               Counter())
    unmentioned = {qual for qual, name in definitions if not used[name]}
    assert sorted(unmentioned - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - unmentioned) == []
    assert all(reason.strip() and "\n" not in reason
               for reason in ALLOWED.values())
