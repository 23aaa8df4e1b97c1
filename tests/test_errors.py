import ast
import inspect
from pathlib import Path

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
