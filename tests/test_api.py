import dataclasses
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import owtt
from owtt.engine import BatchOutcome, prediction_columns

DOCUMENTED = {
    # The run API.
    "Engine", "RunConfig", "RunResult", "StageFailure", "REJECT", "WorldSpec", "Batch",
    "generate_source", "generate_stream", "load_stream", "export_stream",
    # The experiment API that the CLI wraps.
    "ExperimentConfig", "load_experiment", "run_experiment", "run_sweep", "write_report",
    # The pool checkpoint pair.
    "save_pool", "load_pool",
    # The error types.
    "OwttError", "ConfigError", "DegenerateEmbedding", "EmptyClass", "EmptyEstimate",
    "EmptyNovelPool", "EmptyPrototypeSet", "EmptyRecords", "InvalidSpec",
    "MissingArtifacts", "MissingPopulation", "NonFiniteGradient", "NonFiniteInput",
    "NumericalFailure", "UnknownLabel",
}


def test_the_package_exports_exactly_the_documented_names():
    public = {
        name for name, value in vars(owtt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == DOCUMENTED
    assert len(DOCUMENTED) == 33


def error_instance(cls):
    """One instance of an exported error type, with every field set."""
    if cls is owtt.EmptyClass:
        return cls(3)
    if cls is owtt.StageFailure:
        outcome = BatchOutcome(1, np.array([owtt.REJECT, 3]), np.array([0.75, 0.25]), 0.5, 2,
                               1.25, 0.125)
        return cls(2, [outcome], [np.array([7, 3])],
                   owtt.NonFiniteInput("input row 0 holds a NaN or inf value"))
    return cls(f"{cls.__name__} message")


def fields(error):
    """An error's attributes; a nested error compares by type and message, a
    stage failure's outcomes by their prediction columns."""
    values = {key: (type(value), str(value)) if isinstance(value, Exception) else value
              for key, value in vars(error).items()}
    if isinstance(error, owtt.StageFailure):
        columns = prediction_columns(values.pop("outcomes"), values.pop("hidden"))
        values["columns"] = {key: column.tolist() for key, column in columns.items()}
    return values


ERROR_TYPES = sorted(
    (value for value in vars(owtt).values()
     if isinstance(value, type) and issubclass(value, Exception)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_an_exported_error_survives_a_pickle_round_trip(cls):
    error = error_instance(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert fields(copy) == fields(error)


README = Path(__file__).resolve().parent.parent / "README.md"


def documented_keys(section):
    """The backticked keys of README's "`section` keys" sentence, asides dropped."""
    text = re.sub(r"\([^()]*\)", "", README.read_text(encoding="utf-8"))
    sentence = re.search(rf"`{section}` keys\s*:(.*?)\.\s", text, re.S).group(1)
    return re.findall(r"`(\w+)`", sentence)


@pytest.mark.parametrize("section, cls", [("world", owtt.WorldSpec), ("run", owtt.RunConfig)])
def test_the_readme_lists_exactly_the_config_fields(section, cls):
    assert documented_keys(section) == [field.name for field in dataclasses.fields(cls)]


def test_import_owtt_loads_no_process_pool():
    # run_sweep imports its process pool only when it starts workers, and
    # datagen.Worker its queues only when it starts its thread.
    src = str(Path(owtt.__file__).parent.parent)  # the checkout under test
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, owtt; print(sorted(name for name in sys.modules "
            "if name in ('multiprocessing', 'concurrent.futures.process', 'queue')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
