"""Every top-level function, class and method of sosfield is reached from the CLI.

Reachability is by name, an over-approximation.  The roots are the names
mentioned by cli.main, by the module-level statements of every module
(imports aside, so a re-export in __init__ is no use) and by the allowlisted
definitions.  A reached definition mentions names, as bare names or as
attributes, and each of those reaches every definition of that name in any
module.  A reached class reaches its dunder methods, which Python calls
without naming them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sosfield"

# Kept though no command reaches them: module.name -> why
ALLOWED = {
    "local.weak_approx": "perfbench's tracer reports the local.weak_approx span",
    "local.check_places": "weak_approx validates its places with it",
    "local._uniformizer_in_field": "weak_approx builds pi in the extension with it",
    "extension.field_norm": "oracle of the norm identity in acceptance AC9",
    "factor.Factorization.expand": "oracle of the factorization round-trip tests",
    "local.valuation_vector": "oracle of the parity tests and acceptance AC8",
    "local.ValuationVector.parity": "oracle of the parity tests and acceptance AC8",
    "local.ValuationVector.is_constant_parity": "oracle of the parity tests and AC8",
    "ratlocal.three_square_test": "acceptance AC6 names it in its criterion",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _mentioned(nodes):
    """Every bare name and attribute name in the given syntax trees."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(qualified name -> (name, names it mentions, dunder methods)) and the roots."""
    defs = {}
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = (node.name, _mentioned([node]), ())
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                rest = [m for m in node.body if not isinstance(m, ast.FunctionDef)]
                shell = node.bases + node.keywords + node.decorator_list + rest
                dunders = tuple(
                    f"{mod}.{node.name}.{m.name}" for m in methods if _is_dunder(m.name)
                )
                defs[f"{mod}.{node.name}"] = (node.name, _mentioned(shell), dunders)
                for m in methods:
                    defs[f"{mod}.{node.name}.{m.name}"] = (m.name, _mentioned([m]), ())
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentioned([node])
    return defs, roots


def _unreached(allowed):
    defs, names = _definitions()
    reached = set()
    frontier = {"cli.main", *allowed}
    while frontier:
        reached |= frontier
        for qual in frontier:
            names |= defs[qual][1]
        dunders = {d for qual in reached for d in defs[qual][2]}
        frontier = {q for q, (name, _, _) in defs.items() if name in names} | dunders
        frontier -= reached
    return sorted(set(defs) - reached)


def test_allowlist_names_unreached_definitions():
    defs, _ = _definitions()
    assert sorted(q for q in ALLOWED if q not in defs) == []
    # an entry that the CLI reaches on its own is stale
    assert sorted(set(ALLOWED) - set(_unreached(()))) == []


def test_every_definition_is_reached_from_the_cli():
    assert _unreached(ALLOWED) == []
