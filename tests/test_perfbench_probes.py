"""The names the benchmark wraps must keep existing.

perfbench/run.py installs three kinds of probes on the csplade modules: a
StepClock on trainer.AdamW, a ReturnClock on splade.splade_pool (the
`ingest` workload's per-document clock) and the per-layer spans of
perfbench/layers.py. A probe whose target was renamed either raises
KeyError (methods) or silently wraps nothing (functions). These tests
install the probes exactly as run.py does, without editing the benchmark
files, and check that every probe found its target and sees the calls the
workloads count. The run record (perfbench/record.py) reads csplade names
too; a run fails only after all its passes if one of them is gone.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from csplade.corpus import build_vocab
from csplade.encoder import EncoderConfig, EncoderModel

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
layers = _load("layers")
record = _load("record")
run = _load("run")

TEXTS = ["alpha beta gamma", "delta alpha", "epsilon zeta eta theta beta", "gamma"]


class RecordingPatches(tracing.Patches):
    """Patches that remember every function probe whose target is missing."""

    def __init__(self, modules):
        super().__init__(modules)
        self.missing = []

    def function(self, module, attr, make):
        new = super().function(module, attr, make)
        if new is None:
            self.missing.append(f"{module.__name__}.{attr}")
        return new


@pytest.fixture
def probed():
    """csplade with run.py's probes installed; restored afterwards."""
    cs = SimpleNamespace(**{m: importlib.import_module(f"csplade.{m}") for m in run.MODULES})
    before = {(m, k): v for m in run.MODULES for k, v in vars(getattr(cs, m)).items()}
    patches = RecordingPatches(getattr(cs, m) for m in run.MODULES)
    try:
        steps = tracing.StepClock(patches, cs.trainer.AdamW)
        docs = tracing.ReturnClock(patches, cs.splade, "splade_pool")
        tracer = tracing.Tracer()
        layers.install(tracer, patches, cs)
        yield SimpleNamespace(cs=cs, patches=patches, steps=steps, docs=docs, tracer=tracer)
    finally:
        patches.restore()
    after = {(m, k): v for m in run.MODULES for k, v in vars(getattr(cs, m)).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _model(vocab, variant="causal"):
    cfg = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=16, variant=variant, seed=2)
    return EncoderModel(cfg)


def _calls(tracer, label):
    spans = tracer.spans()
    ids = [i for i, name in enumerate(tracer.names) if name == label]
    return int(np.isin(spans["name"], ids).sum())


def test_every_function_probe_finds_its_target(probed):
    assert probed.patches.missing == []


def test_method_probes_wrap_their_targets(probed):
    cs = probed.cs
    for cls, attr in ((cs.encoder.EncoderModel, "forward_batch"),
                      (cs.encoder.EncoderModel, "forward_logits"),
                      (cs.autodiff.Tensor, "backward"),
                      (cs.trainer.AdamW, "step")):
        assert hasattr(vars(cls)[attr], "__wrapped__"), f"{cls.__name__}.{attr}"


def test_step_clock_times_each_adamw_step(probed):
    vocab = build_vocab(TEXTS)
    opt = probed.cs.trainer.AdamW(_model(vocab).params)
    opt.step(1e-3)
    opt.step(1e-3)
    assert len(probed.steps.steps) == 2


@pytest.mark.parametrize("echo", [False, True])
def test_encode_texts_pools_once_per_text(probed, echo):
    """The `ingest` clock counts one document per splade_pool return, and the
    trace counts tokens in forward_batch and calls of forward_logits."""
    cs, tracer = probed.cs, probed.tracer
    vocab = build_vocab(TEXTS)
    model = _model(vocab, "echo" if echo else "causal")
    reps = cs.trainer.encode_texts(model, vocab, TEXTS)
    assert len(reps) == len(TEXTS)
    assert probed.docs.calls == len(TEXTS)
    assert _calls(tracer, "splade.splade_pool") == len(TEXTS)
    assert _calls(tracer, "encoder.forward_logits") == len(TEXTS)
    assert _calls(tracer, "encoder.forward_batch") == len(TEXTS)
    seqs = [cs.trainer.prepare_sequence(t, vocab, model.cfg, echo) for t in TEXTS]
    assert tracer.counts["encoder.tokens"] == sum(s.length for s in seqs)
    # inference records no graph and calls no autodiff op
    ops = [name for name in tracer.names if name.startswith("autodiff.")]
    assert ops and [name for name in ops if _calls(tracer, name)] == []


def test_finite_losses_counts_every_report_row(monkeypatch, tmp_path):
    """The `train` check counts the finite `total` values of adapt.csv and
    train.csv with workloads._finite_losses, which finds the column by name
    in a report written by trainer.TrainReport."""
    from csplade.trainer import TrainReport
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # workloads imports it by name
    workloads = _load("workloads")
    report = TrainReport()
    for step in range(5):
        report.append(step, rank_loss=1.0 + step, total=2.0 + step, step_ms=3.0,
                      grad_norm=0.5, dead_dims=0.25)
    report.append(5, total=float("nan"))
    path = tmp_path / "train.csv"
    report.to_csv(path)
    assert workloads._finite_losses(path) == 5


def test_run_record_reads_its_csplade_names():
    env = record.environment(ROOT)
    assert {"use_numba", "git_commit"} <= env.keys()
