"""Each module imports on its own in a fresh interpreter, so an import cycle
between two modules fails here whichever of them a caller imports first; and
the package's top-level names and the trainers' parameters are pinned, so
adding or dropping an export or a knob is a deliberate change to this file."""

import ast
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
import types

import pytest

# found without importing the package, so a cycle fails the cases below,
# not the collection of this file
_PACKAGE = importlib.util.find_spec("samgog").submodule_search_locations
MODULES = ["samgog"] + [f"samgog.{m.name}" for m in pkgutil.iter_modules(_PACKAGE)]


def _tree(module):
    with open(os.path.join(_PACKAGE[0], f"{module}.py")) as f:
        return ast.parse(f.read())


def test_similarity_and_sampler_depend_one_way():
    # similarity.py owns every read of S: the sampler reads it only through
    # the row-block mapper, and similarity.py never reaches back, at any depth
    for node in ast.walk(_tree("similarity")):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(n.split(".")[-1] == "sampler" for n in names), node.lineno
    reads = [
        node.lineno for node in ast.walk(_tree("sampler"))
        if isinstance(node, ast.Attribute) and node.attr == "S"
    ]
    assert reads == []


def test_variance_check_steps_through_the_pipelines_mean_step():
    # check_variance_decay takes its mean over t draws through
    # downstream.mean_loss_and_grad, so it builds no operator and computes no
    # loss of its own
    names = {
        alias.name for node in ast.walk(_tree("theory"))
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    assert "mean_loss_and_grad" in names
    assert not names & {"downstream_loss_and_grad", "gog_propagation_matrix"}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# every public name ``import samgog`` gives, submodules aside
EXPORTS = {
    "AllocConfig", "DegreeAllocation", "EncoderConfig", "FactorSimilarity",
    "GoGClassifierConfig", "GoGGraph", "GraphDataset",
    "MetricsReport", "PipelineResult", "SamplerConfig", "SplitSpec",
    "allocate_degrees", "build_features", "build_prob_matrix",
    "compute_class_imbalance_ratio", "compute_metrics",
    "compute_size_imbalance_ratio", "downstream_forward", "edge_homophily",
    "encode_dataset", "expected_homophily", "head_tail_partition",
    "make_class_imbalanced_split", "make_planted_dataset", "parse_tudataset",
    "similarity_matrix", "supervised_loss_and_grad", "train_encoder_baseline",
    "train_full_pipeline",
}


def test_package_exports_are_pinned():
    import samgog

    names = {
        name for name, value in vars(samgog).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == EXPORTS


# every parameter of the trainers and of the model-state initializers, in order
TRAINER_PARAMETERS = {
    ("samgog.downstream", "train_full_pipeline"): (
        "dataset", "split", "alloc_config", "encoder_config", "sampler_config",
        "downstream_config", "epochs", "seed", "encoder_lr", "downstream_lr",
        "eval_samples",
    ),
    ("samgog.downstream", "train_encoder_baseline"): (
        "dataset", "split", "encoder_config", "epochs", "seed", "learning_rate",
    ),
    ("samgog.encoder", "init_encoder_state"): (
        "dataset", "config", "seed", "learning_rate",
    ),
    ("samgog.downstream", "init_downstream_state"): (
        "in_dim", "num_classes", "config", "seed", "learning_rate",
    ),
}


@pytest.mark.parametrize("module, name", sorted(TRAINER_PARAMETERS))
def test_trainer_parameters_are_pinned(module, name):
    function = getattr(importlib.import_module(module), name)
    params = tuple(inspect.signature(function).parameters)
    assert params == TRAINER_PARAMETERS[module, name]
