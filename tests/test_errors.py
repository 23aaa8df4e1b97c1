import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import hashclust
from hashclust import errors

PACKAGE = Path(hashclust.__file__).parent


def test_errors_defines_the_five_refusal_kinds():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {
        "HashClustError",
        "InvalidSpecError",
        "ShapeError",
        "InconsistentStateError",
        "PipelineError",
        "ProtocolError",
        "DegenerateHistoryWarning",
    }


def test_every_raise_names_a_package_error():
    # a bare re-raise passes on what was caught; every other raise names its type
    known = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(call, ast.Name) and call.id in known):
                    foreign.append(f"{path.name}:{node.lineno}: {ast.unparse(node.exc)}")
    assert foreign == []


def _wording(node) -> str:
    """A message's text, each formatted value as {}: f"{k} must be >= {m}" reads "{} must be >= {}"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_wording(part) if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return ""


def test_only_check_integer_words_the_integer_rule():
    # one rule refuses an integer setting: no other refusal words it by hand
    by_hand = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "InvalidSpecError" and node.args):
                text = _wording(node.args[0])
                if "must be an integer" in text or re.search(r"must be >= \S+, got", text):
                    by_hand.append(f"{path.name}:{node.lineno}: {text}")
    assert by_hand == []


@pytest.mark.parametrize(
    "value, least, message",
    [(2.5, 1, "n must be an integer, got 2.5"),
     (True, 0, "n must be an integer, got True"),
     (np.float64(3.0), 1, "n must be an integer, got np.float64(3.0)"),
     (0, 1, "n must be >= 1, got 0"),
     (np.int64(-1), 0, "n must be >= 0, got -1")],
)
def test_check_integer_refuses_a_non_integer_or_a_value_below_its_least(value, least, message):
    with pytest.raises(errors.InvalidSpecError, match=f"^{re.escape(message)}$"):
        errors.check_integer(value, "n", least)
