"""The names the benchmark in ``perfbench/`` reaches into still exist.

perfbench wraps dawnet's functions from outside, under the names their
callers look them up by, and unpacks a loaded checkpoint into five values.
A rename in ``src/`` would first show as a crash of ``perfbench/run.py``;
these checks catch it in the fast suite. They read ``perfbench/tracing.py``
without importing it as a package, so no bytecode cache is written there.
"""

import importlib
import types
from dataclasses import asdict
from pathlib import Path

import pytest

from dawnet import cli, datafile, evaluation, simulate, training
from dawnet.model import DualDomainAutoencoder, ModelConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


WRAPS = _tracing_module().WRAPS


@pytest.mark.parametrize("module,attr,span", WRAPS,
                         ids=[f"{m}.{a}" for m, a, _ in WRAPS])
def test_traced_name_resolves(module, attr, span):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_loaded_checkpoint_unpacks_into_five(tmp_path):
    net = DualDomainAutoencoder(ModelConfig(), seed=0)
    config = {"model": asdict(net.config),
              "train": asdict(training.TrainConfig()),
              "threshold": {"value": 1.0, "mu": 0.5, "sigma": 0.5},
              "dataset_sha256": ""}
    path = tmp_path / "model.dawm"
    datafile.write_checkpoint(path, config, net.values)
    model, threshold, lambda1, lambda2, bank = cli._load_checkpoint(path)
    assert threshold.value == 1.0 and (lambda1, lambda2) == (1.0, 0.1)
    assert bank is not None


def test_evaluate_calls_its_spans_by_module_attribute(monkeypatch):
    # perfbench's eval spans wrap these names in dawnet.evaluation; a call
    # that bypassed the module attribute would drop its span silently
    bundle = simulate.generate_dataset(3, (4, 2, 3))
    net = DualDomainAutoencoder(ModelConfig(), seed=0)
    detector = training.Detector(
        net, training.Threshold(value=0.5, mu=0.4, sigma=0.1), 1.0, 0.0,
        None)
    calls = {}
    for name in ("auc", "roc_curve", "per_sample_losses"):
        def counted(*args, _fn=getattr(evaluation, name), _name=name,
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counted)
    evaluation.evaluate(detector, bundle.test, bundle.norm_stats)
    assert calls == {"auc": 1, "roc_curve": 1, "per_sample_losses": 1}
