"""The three-level method contract: meta-learner -> learner -> predictor.

``meta_fit`` consumes a meta-train pool and produces a ``LearnerState``;
``LearnerState.fit`` consumes one episode's support set and produces a
``PredictorState``; ``PredictorState.predict`` labels query vectors.  Six
built-in methods implement the contract, each declared once in the
``METHODS`` registry together with its parameter schema.  Learners
serialize to a versioned text artifact so the ingestion and scoring
processes can hand off through the filesystem alone.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fomaml as fm
from . import heads
from .dataset import DatasetTable, read_text, render_value, write_text_atomic
from .errors import ArtifactError, ConfigError, EpisodeFormatError, ShapeError
from .rng import RngState, check_seed
from .sampler import EpisodeSpec, sample_batch

__all__ = [
    "METHODS",
    "Method",
    "MethodConfig",
    "MetaLearnerSpec",
    "Provenance",
    "LearnerState",
    "PredictorState",
    "meta_fit",
    "save_learner",
    "load_learner",
    "render_learner",
    "parse_learner",
]

ARTIFACT_MAGIC = "MDLART1"

# substream tags under the meta-training seed
_PRETRAIN_STREAM = 2


@dataclass(frozen=True)
class Method:
    """One registry entry: a method's parameter schema and its code.

    ``params`` maps every accepted ``method.<name>.<key>`` to its default;
    the default's type is the type a given value is coerced to.
    ``meta_fit(params, spec, meta_train, seed, clock, log_path)`` returns
    ``(arrays, provenance)``; methods with nothing to learn from meta-train
    data leave it ``None``.  ``fit(params, arrays, support_x, support_y,
    n_way)`` returns the predictor state, and ``predict(state, query_x)``
    labels query rows.  ``choices`` maps a key that takes one of a fixed
    set of values to that set, and ``bounds`` maps a numeric key to the
    interval its value must lie in, written like ``"(0, 1]"`` with ``inf``
    for an unbounded end.

    ``block_cells`` is the block entry: set for a method whose ``fit`` and
    ``predict`` also take a block of episodes stacked along a leading axis
    (see :meth:`LearnerState.predict_block`), it maps an episode's
    ``(n_way, k_shot, queries, dim)`` to the float64 cells of the largest
    array the method holds per episode.
    """

    params: dict
    fit: Callable[..., dict]
    predict: Callable[[dict, np.ndarray], np.ndarray]
    meta_fit: Callable[..., tuple] | None = None
    choices: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    block_cells: Callable[[int, int, int, int], int] | None = None


#: Float64 cells a block of episodes may hold in its largest array: 128 KiB,
#: which keeps a block's arrays in cache and the run's peak memory flat.
_BLOCK_CELLS = 1 << 14


def _coerce(key: str, value, default):
    if isinstance(default, bool):
        # bool("false") would be True; parse the usual spellings instead
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ConfigError(
                f"method parameter {key}={value!r} is not a valid bool"
            )
        return bool(value)
    try:
        return type(default)(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"method parameter {key}={value!r} is not a valid "
            f"{type(default).__name__}"
        ) from None


@dataclass(frozen=True)
class MethodConfig:
    """Selects one method and carries its hyperparameter overrides.

    ``params`` keeps the values as given (config text gives strings), so
    an artifact records exactly what was configured.  The name and keys
    are checked against the registry when the config is built, and
    ``values`` holds every parameter of the method, coerced to its schema
    type, defaults filled in, and checked against its choices and bounds.
    """

    name: str
    params: dict = field(default_factory=dict)
    values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        method = METHODS.get(self.name)
        if method is None:
            raise ConfigError(
                f"unknown method {self.name!r}; known: {sorted(METHODS)}"
            )
        unknown = set(self.params) - set(method.params)
        if unknown:
            raise ConfigError(
                f"unknown parameters {sorted(unknown)} for method {self.name!r}; "
                f"known: {sorted(method.params)}"
            )
        values = {
            key: _coerce(key, self.params.get(key, default), default)
            for key, default in method.params.items()
        }
        for key, allowed in method.choices.items():
            if values[key] not in allowed:
                raise ConfigError(
                    f"method parameter {key}={values[key]!r} for method "
                    f"{self.name!r} must be one of {list(allowed)}"
                )
        for key, interval in method.bounds.items():
            low, high = (float(end) for end in interval[1:-1].split(","))
            v = values[key]
            if not ((low <= v if interval[0] == "[" else low < v)
                    and (v <= high if interval[-1] == "]" else v < high)):
                raise ConfigError(f"method parameter {key}={v!r} for method "
                                  f"{self.name!r} must lie in {interval}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MetaLearnerSpec:
    """What to meta-train: the method and the training episode shape."""

    method: MethodConfig
    train_episode_spec: EpisodeSpec | None = None


@dataclass(frozen=True)
class Provenance:
    seed: int
    episodes_consumed: int = 0
    batches_consumed: int = 0


@dataclass
class PredictorState:
    """Episode-adapted state; every ``predict`` call recomputes the labels.
    ``dim`` is the support set's width, which ``predict`` checks the query
    set against for every method."""

    method: MethodConfig
    state: dict
    dim: int

    def predict(self, query_x: np.ndarray) -> np.ndarray:
        """One episode label per query row; pure given the query set."""
        query_x = np.asarray(query_x, dtype=np.float64)
        if query_x.ndim == 1:
            query_x = query_x[None, :]
        if not np.isfinite(query_x).all():
            raise EpisodeFormatError("query set holds non-finite values")
        if query_x.ndim != 2 or query_x.shape[1] != self.dim:
            raise ShapeError(f"query shape {query_x.shape} does not match "
                             f"feature dimension {self.dim}")
        return METHODS[self.method.name].predict(self.state, query_x)


@dataclass
class LearnerState:
    """Output of meta-training: method tag, learned parameters, provenance."""

    method: MethodConfig
    arrays: dict[str, np.ndarray]
    provenance: Provenance

    def fit(self, support_x: np.ndarray, support_y: np.ndarray) -> PredictorState:
        """Adapt to one episode's support set; the learner is not mutated."""
        n_way, _ = heads.support_structure(support_x, support_y)
        support_x = np.asarray(support_x, dtype=np.float64)
        if not np.isfinite(support_x).all():
            raise EpisodeFormatError("support set holds non-finite values")
        state = METHODS[self.method.name].fit(
            self.method.values, self.arrays, support_x, np.asarray(support_y), n_way
        )
        return PredictorState(method=self.method, state=state, dim=support_x.shape[1])

    def block_size(self, n_way: int, k_shot: int, queries: int, dim: int) -> int:
        """Episodes of this shape per :meth:`predict_block` call, or 0 for a
        method without a block entry, which scores one episode at a time."""
        cells = METHODS[self.method.name].block_cells
        return 0 if cells is None else max(1, _BLOCK_CELLS // cells(n_way, k_shot, queries, dim))

    def predict_block(
        self, support_x: np.ndarray, support_y: np.ndarray, query_x: np.ndarray
    ) -> np.ndarray:
        """Labels ``(E, Q)`` for E episodes at once: support rows
        ``(E, N*K, d)`` that all carry the labels ``support_y``, and query
        rows ``(E, Q, d)``.  Each episode gets the labels that ``fit`` and
        ``predict`` give it alone; the checks are theirs, made once per
        block.  Only for a method with a block entry."""
        method = METHODS[self.method.name]
        if method.block_cells is None:
            raise ConfigError(f"method {self.method.name!r} has no block entry")
        n_way, _ = heads.support_structure(support_x, support_y)
        support_x = np.asarray(support_x, dtype=np.float64)
        query_x = np.asarray(query_x, dtype=np.float64)
        if not np.isfinite(support_x).all():
            raise EpisodeFormatError("support set holds non-finite values")
        if not np.isfinite(query_x).all():
            raise EpisodeFormatError("query set holds non-finite values")
        state = method.fit(self.method.values, self.arrays, support_x,
                           np.asarray(support_y), n_way)
        return method.predict(state, query_x)


# ---------------------------------------------------------------------------
# Built-in methods.  Heads and fo-MAML functions are looked up on their
# modules at call time, so a wrapper patched onto the module sees the call.


def _proto_fit(p, arrays, support_x, support_y, n_way):
    return {"prototypes": heads.compute_prototypes(
        support_x, support_y, metric=p["metric"]
    )}


def _proto_predict(st, query_x):
    return heads.proto_labels(st["prototypes"], query_x)


def _keep_support(p, arrays, support_x, support_y, n_way):
    """Fit of the transductive heads: all work waits for the query set."""
    return {"support_x": support_x.copy(), "support_y": support_y.copy(), "p": p}


def _ptmap_predict(st, query_x):
    p = st["p"]
    return heads.ptmap_fit_predict(
        st["support_x"], st["support_y"], query_x,
        pt_params=heads.PowerTransformParams(
            beta=p["beta"], epsilon=p["epsilon"],
            unit_normalize=p["unit_normalize"],
        ),
        sinkhorn_config=heads.SinkhornConfig(
            reg=p["reg"], max_iters=p["max_iters"], tol=p["tol"]
        ),
        n_iters=p["n_iters"], step_size=p["step_size"],
    )


def _qda_fit(p, arrays, support_x, support_y, n_way):
    return {"model": heads.qda_fit(support_x, support_y, shrinkage=p["shrinkage"])}


def _qda_predict(st, query_x):
    return heads.qda_predict(st["model"], query_x)


def _linear_meta_fit(p, spec, meta_train, seed, clock, log_path):
    """Per-coordinate feature statistics from sampled flat batches."""
    batch_size = min(p["batch_size"], meta_train.total_examples)
    root = RngState(seed).fork(_PRETRAIN_STREAM)
    seen = []
    for i in range(p["pretrain_batches"]):
        if clock is not None:
            clock.check()
        seen.append(sample_batch(meta_train, batch_size, root.fork(i)))
    stacked = np.concatenate(seen)
    std = stacked.std(axis=0)
    std[std < 1e-12] = 1.0
    arrays = {"feat_mean": stacked.mean(axis=0), "feat_std": std}
    return arrays, Provenance(seed=seed, batches_consumed=p["pretrain_batches"])


def _linear_fit(p, arrays, support_x, support_y, n_way):
    mean = arrays.get("feat_mean")
    std = arrays.get("feat_std")
    if mean is None or std is None:
        raise EpisodeFormatError(
            "linear learner lacks feature statistics; run meta_fit first"
        )
    if mean.shape != (support_x.shape[1],):
        raise ShapeError(f"learned array 'feat_mean' is {mean.shape[-1]} wide, "
                         f"the support set {support_x.shape[1]} wide")
    z = (support_x - mean) / std
    head = heads.linear_head_fit(
        z, support_y, epochs=p["epochs"], step_size=p["step_size"]
    )
    return {"head": head, "feat_mean": mean, "feat_std": std}


def _linear_predict(st, query_x):
    z = (query_x - st["feat_mean"]) / st["feat_std"]
    return heads.linear_head_predict(st["head"], z)


def _rect_predict(st, query_x):
    return heads.rectified_proto_predict(
        st["support_x"], st["support_y"], query_x, metric=st["p"]["metric"]
    )


def _fomaml_meta_fit(p, spec, meta_train, seed, clock, log_path):
    """The first-order MAML outer loop over sampled training episodes."""
    if spec.train_episode_spec is None:
        raise ConfigError("fomaml meta-training needs train_episode_spec")
    outer = fm.OuterConfig(
        lr=p["outer_lr"], meta_batch=p["meta_batch"], epochs=p["epochs"]
    )
    inner = fm.InnerConfig(steps=p["inner_steps"], lr=p["inner_lr"])
    params, _log = fm.meta_train(
        meta_train, spec.train_episode_spec, inner, outer, seed=seed,
        hidden=p["hidden"], log_path=log_path, clock=clock,
    )
    arrays = {"W1": params.W1, "b1": params.b1, "W2": params.W2, "b2": params.b2}
    return arrays, Provenance(seed=seed,
                              episodes_consumed=outer.epochs * outer.meta_batch)


def _fomaml_fit(p, arrays, support_x, support_y, n_way):
    params = fm.MlpParams(
        W1=arrays["W1"], b1=arrays["b1"], W2=arrays["W2"], b2=arrays["b2"]
    )
    if params.W2.shape[0] != n_way:
        raise EpisodeFormatError(
            f"learner trained {params.W2.shape[0]}-way, support is {n_way}-way"
        )
    inner = fm.InnerConfig(steps=p["inner_steps"], lr=p["inner_lr"])
    return {"adapted": fm.inner_adapt(params, support_x, support_y, inner)}


def _fomaml_predict(st, query_x):
    return np.argmax(fm.mlp_forward(st["adapted"], query_x), axis=1)


def _row_cells(n, k, q, d):
    """Support and query rows, or the (Q, N) distances when N > d."""
    return (n * k + q) * max(d, n)


def _qda_cells(n, k, q, d):
    """The (Q, N d) whitened queries, or the (N, d, d) covariances."""
    return n * d * max(q, d)


#: method name -> registry entry; the one place each method is defined
METHODS: dict[str, Method] = {
    "proto": Method(
        params={"metric": "euclidean"},
        fit=_proto_fit, predict=_proto_predict,
        choices={"metric": heads.METRICS},
        block_cells=_row_cells,
    ),
    "fomaml": Method(
        params={"inner_steps": 5, "inner_lr": 0.05, "outer_lr": 0.005,
                "meta_batch": 32, "epochs": 300, "hidden": 64},
        fit=_fomaml_fit, predict=_fomaml_predict, meta_fit=_fomaml_meta_fit,
        bounds={"inner_steps": "[0, inf)", "inner_lr": "(0, inf)",
                "outer_lr": "(0, inf)", "meta_batch": "[1, inf)",
                "epochs": "[0, inf)", "hidden": "[1, inf)"},
    ),
    "linear": Method(
        params={"pretrain_batches": 10, "batch_size": 256,
                "epochs": 10, "step_size": 0.001},
        fit=_linear_fit, predict=_linear_predict, meta_fit=_linear_meta_fit,
        bounds={"pretrain_batches": "[1, inf)", "batch_size": "[1, inf)",
                "epochs": "[1, inf)", "step_size": "(0, inf)"},
    ),
    "ptmap": Method(
        params={"beta": 0.5, "epsilon": 1e-6, "unit_normalize": True,
                "reg": heads.PTMAP_SINKHORN.reg,
                "max_iters": heads.PTMAP_SINKHORN.max_iters,
                "tol": heads.PTMAP_SINKHORN.tol,
                "n_iters": 20, "step_size": 0.2},
        fit=_keep_support, predict=_ptmap_predict,
        bounds={"epsilon": "[0, inf)", "reg": "(0, inf]", "max_iters": "[1, inf)",
                "tol": "(0, inf]", "n_iters": "[0, inf)", "step_size": "(0, 1]"},
        block_cells=_row_cells,
    ),
    "qda": Method(
        params={"shrinkage": 0.5},
        fit=_qda_fit, predict=_qda_predict, bounds={"shrinkage": "[0, 1]"},
        block_cells=_qda_cells,
    ),
    "rect": Method(
        params={"metric": "euclidean"},
        fit=_keep_support, predict=_rect_predict,
        choices={"metric": heads.METRICS},
        block_cells=_row_cells,
    ),
}


def meta_fit(
    spec: MetaLearnerSpec,
    meta_train: DatasetTable,
    seed: int,
    clock=None,
    log_path: str | None = None,
) -> LearnerState:
    """Run the configured method's meta-training; deterministic under seed.

    The episode-time heads have nothing to learn from meta-train data at
    this scale and return an empty parameter set.  The transfer head
    learns per-coordinate feature statistics from sampled batches, and
    fo-MAML runs its outer loop.  ``clock`` (a budget clock with a
    ``check()`` method) is polled inside the long-running loops.
    """
    seed = check_seed(seed)
    run = METHODS[spec.method.name].meta_fit
    if run is None:
        arrays, provenance = {}, Provenance(seed=seed)
    else:
        arrays, provenance = run(spec.method.values, spec, meta_train, seed, clock, log_path)
    return LearnerState(method=spec.method, arrays=arrays, provenance=provenance)


# ---------------------------------------------------------------------------
# Artifact serialization


def render_learner(learner: LearnerState) -> str:
    """Versioned, lossless text form of a learner (bit-exact floats).

    An array that is not 1-d or 2-d, or holds a ``nan`` or ``inf``, raises
    :class:`ArtifactError` naming it: ``parse_learner`` would refuse it.
    """
    out = [ARTIFACT_MAGIC, f"method,{learner.method.name}"]
    for key in sorted(learner.method.params):
        out.append(f"config,{key},{learner.method.params[key]!r}")
    p = learner.provenance
    out.append(f"provenance,{p.seed},{p.episodes_consumed},{p.batches_consumed}")
    for name in sorted(learner.arrays):
        arr = np.asarray(learner.arrays[name], dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ArtifactError(
                f"array {name!r} is {arr.ndim}-d; artifacts hold 1-d or 2-d arrays"
            )
        if not np.isfinite(arr).all():
            raise ArtifactError(f"array {name!r} holds non-finite values")
        shape = "x".join(str(s) for s in arr.shape)
        out.append(f"array,{name},{shape}")
        rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
        for row in rows:
            out.append(",".join(render_value(v) for v in row))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_learner(text: str) -> LearnerState:
    lines = text.splitlines()
    if not lines or lines[0] != ARTIFACT_MAGIC:
        raise ArtifactError(
            f"bad artifact magic: expected {ARTIFACT_MAGIC!r}, "
            f"got {lines[0][:32]!r}" if lines else "empty artifact"
        )
    if not lines[-1].strip() == "end":
        raise ArtifactError("artifact truncated: missing 'end' marker")

    method_name = None
    params: dict = {}
    provenance = None
    arrays: dict[str, np.ndarray] = {}
    i = 1
    body = lines[:-1]
    try:
        while i < len(body):
            line = body[i]
            if line.startswith("method,"):
                method_name = line.split(",", 1)[1]
            elif line.startswith("config,"):
                _, key, value = line.split(",", 2)
                params[key] = ast.literal_eval(value)
            elif line.startswith("provenance,"):
                _, s, e, b = line.split(",")
                provenance = Provenance(int(s), int(e), int(b))
            elif line.startswith("array,"):
                _, name, shape_s = line.split(",")
                shape = tuple(int(s) for s in shape_s.split("x"))
                if len(shape) > 2 or min(shape) < 0:
                    raise ArtifactError(f"array {name!r} has bad shape {shape_s!r}")
                n_rows = 1 if len(shape) == 1 else shape[0]
                data = []
                for j in range(n_rows):
                    data.append([float(v) for v in body[i + 1 + j].split(",")])
                arrays[name] = np.asarray(data, dtype=np.float64).reshape(shape)
                if not np.isfinite(arrays[name]).all():
                    raise ArtifactError(f"array {name!r} holds non-finite values")
                i += n_rows
            else:
                raise ArtifactError(f"unrecognized artifact line {line!r}")
            i += 1
    except (ValueError, TypeError, IndexError, SyntaxError) as exc:
        raise ArtifactError(f"malformed artifact: {exc}") from None

    if method_name is None or provenance is None:
        raise ArtifactError("artifact missing method or provenance line")
    method = MethodConfig(name=method_name, params=params)
    return LearnerState(method=method, arrays=arrays, provenance=provenance)


def save_learner(learner: LearnerState, path: str) -> None:
    """Write the learner artifact atomically: a learner that fails to
    render leaves any earlier artifact at ``path`` as it was."""
    write_text_atomic(path, render_learner(learner))


def load_learner(path: str) -> LearnerState:
    return parse_learner(read_text(path, ArtifactError, "artifact"))
