import types

import owtt

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
    "EmptyNovelPool", "EmptyPrototypeSet", "EmptyRecords", "EmptyWindow", "InvalidSpec",
    "MissingArtifacts", "MissingPopulation", "NonFiniteGradient", "NonFiniteInput",
    "NumericalFailure", "UnknownLabel",
}


def test_the_package_exports_exactly_the_documented_names():
    public = {
        name for name, value in vars(owtt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == DOCUMENTED
    assert len(DOCUMENTED) == 34

