"""The public API: every name in fracgreen.__all__ has a caller, or is a
documented library type."""

import ast
from pathlib import Path

import fracgreen

ROOT = Path(__file__).resolve().parents[1]

# types a caller builds or catches rather than calls: the fields, the
# errors, the parameter, quadrature and result records, the version
DOCUMENTED_TYPES = {
    "Bubble", "Bump", "Gaussian", "PowerLaw", "RadialField", "SampledRadial",
    "TruncatedPowerLaw",
    "FracgreenError", "DomainError", "DegenerateInputError",
    "SingularityError", "DivergenceError", "ToleranceError",
    "ConvergenceError",
    "ProblemParams", "QuadratureSpec", "VerificationReport", "FormEval",
    "OperatorEval", "__version__",
}


def used_names(paths, imports: bool) -> set:
    """The names the code of `paths` uses, as an ast.Name or the attribute
    of an ast.Attribute, and with `imports` the names it imports;
    docstrings and comments do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif imports and isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_caller_or_is_a_documented_type():
    package = [p for p in (ROOT / "src" / "fracgreen").glob("*.py")
               if p.name != "__init__.py"]
    scripts = [*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")]
    assert package and scripts
    called = used_names(package, imports=False) | used_names(scripts,
                                                             imports=True)
    orphans = sorted(set(fracgreen.__all__) - called - DOCUMENTED_TYPES)
    assert orphans == [], orphans
    assert len(fracgreen.__all__) == len(set(fracgreen.__all__))
