"""The benchmark's run tracer still finds every name it wraps.

``perfbench/tracer.py`` rebinds fewbench attributes by name for one traced
round (``perfbench/run.py --trace 1``).  Its own checks are not part of this
suite, so a change to ``src/`` that renames, moves or rebinds one of those
names would break a traced benchmark run without a failing test here.  The
tracer file is only read: its source is compiled into a fresh module.
"""

import types
from pathlib import Path

import numpy as np

from fewbench import api, fomaml, heads, sampler
from fewbench.api import MethodConfig, meta_fit
from fewbench.dataset import SyntheticSpec, generate_synthetic
from fewbench.evaluation import evaluate_learner
from fewbench.sampler import EpisodeSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_wraps_and_uninstalls_cleanly():
    originals = (api.LearnerState.__dict__["fit"], api.PredictorState.__dict__["predict"],
                 fomaml.sample_episode, heads.sinkhorn)
    # plain functions, which the tracer wraps in the classes' __dict__
    assert all(isinstance(fn, types.FunctionType) for fn in originals)
    assert fomaml.sample_episode is sampler.sample_episode

    tracer = load_tracer().Tracer()
    pool = generate_synthetic(SyntheticSpec(8, 4, 6, 1.0, 2.0, 3))
    learner = meta_fit(MethodConfig("ptmap", {"n_iters": "2"}), EpisodeSpec(), pool, 0)
    with tracer:
        evaluate_learner(learner, pool, EpisodeSpec(5, 1, 2), 4, seed=1)
        # the tracer's hook unpacks a 2-d transport plan
        heads.sinkhorn(np.ones((3, 2)), np.full(3, 1 / 3), np.full(2, 1 / 2))
    assert tracer.leftover_patches() == []
    assert (api.LearnerState.__dict__["fit"], api.PredictorState.__dict__["predict"],
            fomaml.sample_episode, heads.sinkhorn) == originals

    calls = {}
    for name, *_, extra in tracer.spans:
        calls.setdefault(name, []).append(extra)
    # one block of four episodes through fit and predict, each call wrapped
    assert len(calls["api.fit"]) == len(calls["api.predict"]) == 1
    assert len(calls["heads.ptmap_fit_predict"]) == 1
    assert calls["heads.sinkhorn"] == [{"iters": 1, "cells": 6, "nonconverged": 0}]
