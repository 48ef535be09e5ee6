"""Every enumeration and search refuses past one shared constant.

No public enumerator or search takes a limit parameter: the enumerations
read ``rel.MAX_ENUM_BITS`` (at most 2**16 candidates), the isomorphism search
reads ``isomorph.MAX_POINTS``, and the law runner's carrier cap is derived
from the enumeration bound, so the runner cannot admit a size tuple whose
pools it would refuse to build. A stdlib ``ast`` scan also checks that no
function in ``src/relalg`` takes a ``max_bits`` or ``max_points`` parameter.
"""

import ast
import inspect
from pathlib import Path

import pytest

from relalg import (
    Carrier, EnumerationLimit, candidate_indexes, enumerate_coreflexives, enumerate_pers,
    enumerate_relations, find_isomorphism,
)
from relalg.laws import MAX_CARRIER_SIZE
from relalg.rel import MAX_ENUM_BITS

FILES = sorted((Path(__file__).resolve().parents[1] / "src" / "relalg").glob("*.py"))
LIMIT_PARAMETERS = {"max_bits", "max_points"}


def _limit_parameters(tree: ast.AST) -> list[tuple[str, str]]:
    """(function, parameter) for every limit parameter a function declares."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in LIMIT_PARAMETERS:
                    found.append((getattr(node, "name", "<lambda>"), arg.arg))
    return found


def test_public_enumerators_take_no_limit_parameter():
    params = {
        fn.__name__: list(inspect.signature(fn).parameters)
        for fn in (enumerate_relations, enumerate_coreflexives, candidate_indexes, find_isomorphism)
    }
    assert params == {
        "enumerate_relations": ["src", "dst"],
        "enumerate_coreflexives": ["carrier"],
        "candidate_indexes": ["r"],
        "find_isomorphism": ["r", "s"],
    }


def test_no_function_in_the_package_takes_a_limit_parameter():
    stray = [
        (path.name, func, param)
        for path in FILES
        for func, param in _limit_parameters(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not stray, f"limit parameters: {stray}"


def test_the_scan_sees_limit_parameters():
    tree = ast.parse("def f(a, max_bits=3):\n    g = lambda *, max_points: 0\ndef h(b): pass\n")
    assert sorted(_limit_parameters(tree)) == [("<lambda>", "max_points"), ("f", "max_bits")]


def test_relations_enumerate_up_to_the_bound_and_refuse_past_it():
    four = Carrier("A", 4)
    assert next(enumerate_relations(four, four)).code == 0
    with pytest.raises(EnumerationLimit, match=r"17 matrix bits.*limit 16 bits"):
        next(enumerate_relations(Carrier("A", 17), Carrier("B", 1)))


def test_coreflexives_enumerate_up_to_the_bound_and_refuse_past_it():
    assert next(enumerate_coreflexives(Carrier("A", MAX_ENUM_BITS))).code == 0
    with pytest.raises(EnumerationLimit, match="limit 16"):
        next(enumerate_coreflexives(Carrier("A", MAX_ENUM_BITS + 1)))


def test_per_enumeration_refuses_with_enumeration_limit():
    # 5 elements have 15 symmetric cells, 6 have 21
    assert next(enumerate_pers(Carrier("A", 5))).code == 0
    with pytest.raises(EnumerationLimit):
        next(enumerate_pers(Carrier("A", 6)))


def test_runner_carrier_cap_fits_the_enumeration_bound():
    assert MAX_CARRIER_SIZE ** 2 <= MAX_ENUM_BITS < (MAX_CARRIER_SIZE + 1) ** 2
