"""The reference routes share no code with the paths they check.

The RK4 oracle's right-hand side is written from H and the jump operators,
not from the vectorized generator, and the closed-form example conjugates
the closed-form diagonal flows by U, not through the split path's
application code.  Each test starts from the route's functions, follows
every module-level function of the same module that they name, and lists
the names all of them use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dampedjc"


def _reach(source: str, roots) -> tuple:
    """(functions reached, names they use): the module-level functions roots,
    and in turn every module-level function that a reached one names."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    reached, names, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        used = {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(functions[name]) if isinstance(n, (ast.Name, ast.Attribute))}
        names |= used
        todo += sorted(used & functions.keys())
    return reached, names


def _imported_from(source: str, module: str) -> set:
    """The names a module-level `from .module import ...` binds."""
    return {a.asname or a.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for a in node.names}


def _rk4_superop_names(source: str) -> tuple:
    """(functions reached, superop names they use but BlockDensity and
    step_count) from master_rhs and _rk4_evolve."""
    reached, names = _reach(source, ["master_rhs", "_rk4_evolve"])
    allowed = {"BlockDensity", "step_count"}
    return reached, sorted(names & (_imported_from(source, "superop") - allowed))


def test_reach_finds_a_generator_built_in_a_helper():
    source = ("from .superop import BlockDensity, sparse_generator, step_count\n"
              "def master_rhs(rho, p):\n    return BlockDensity(_rhs(rho, _ops(p)))\n"
              "def _rk4_evolve(rho, t, p, dt):\n    return step_count(t, dt, 'x')\n"
              "def _rhs(R, ops):\n    return ops @ R\n"
              "def _ops(p):\n    return sparse_generator(p).toarray()\n"
              "def _vet(rho):\n    return sparse_generator\n")
    reached, used = _rk4_superop_names(source)
    assert reached == {"master_rhs", "_rk4_evolve", "_rhs", "_ops"}
    assert used == ["sparse_generator"]


def test_rk4_route_uses_no_superoperator_code():
    reached, used = _rk4_superop_names((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    assert {"_rhs", "_lindblad_ops"} <= reached
    assert used == []


def test_closed_form_example_uses_no_split_application_code():
    reached, names = _reach((PACKAGE / "zassenhaus.py").read_text(encoding="utf-8"),
                            ["example_solution"])
    assert "_coupling_blocks" in reached
    split_path = {"propagate", "split_states", "_factor_chain", "_coupling_operators",
                  "tau_series"}
    assert names & split_path == set()
