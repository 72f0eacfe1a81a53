import inspect

import lqconsensus
from lqconsensus import experiments_cli


def test_no_tolerance_is_settable():
    # Tolerances and screening thresholds are module constants, so every
    # caller gets the same classification, symmetry and support verdicts.
    # Exception classes take a message only and have no signature to read.
    api = {name: getattr(lqconsensus, name) for name in lqconsensus.__all__}
    api.update({f"experiments_cli.{name}": obj
                for name, obj in vars(experiments_cli).items()
                if inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == experiments_cli.__name__})
    settable = [
        f"{name}({param})"
        for name, obj in api.items()
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception))
        for param in inspect.signature(obj).parameters
        if param == "tol" or param.endswith("_tol") or param.endswith("threshold")
    ]
    assert "experiments_cli.analyze_matrix" in api
    assert settable == []
