"""The three-level method contract: meta-learner -> learner -> predictor.

``meta_fit`` consumes a meta-train pool and produces a ``LearnerState``;
``LearnerState.fit`` consumes one episode's support set, or a block of
episodes stacked along a leading axis, and produces a ``PredictorState``
whose ``predict`` labels the matching query vectors.  Six built-in methods
implement the contract, each declared once in the ``METHODS`` registry
together with its parameter schema.  Learners serialize to a versioned
text artifact so the ingestion and scoring processes can hand off through
the filesystem alone.
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
from .rng import RngState, check_seed, is_integer
from .sampler import EpisodeSpec, block_episodes, check_spec, sample_batch

__all__ = [
    "METHODS",
    "Method",
    "MethodConfig",
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
    ``meta_fit(params, episode_spec, meta_train, seed, clock, log_path)``
    returns ``(arrays, provenance)``; methods with nothing to learn from
    meta-train data leave it ``None``.  ``fit(params, arrays, support_x,
    support_y, n_way)`` returns the predictor state for support rows
    ``(N*K, d)``, or for a block ``(E, N*K, d)`` of episodes that share the
    int64 labels ``support_y``, and ``predict(state, query_x)`` labels query
    rows ``(Q, d)``, or ``(E, Q, d)`` for a block.  ``block_bytes(params,
    arrays, n_way, k_shot, queries, dim)`` is the bytes one episode of that
    shape holds while it is sampled, fitted and predicted: its rows and
    labels, the predictor state and the working arrays at the method's
    peak, counted from the shape: at least what ``tracemalloc`` sees and at
    most about twice that on the tested shapes.  Blocks are sized from it
    against one budget (see :func:`~fewbench.sampler.block_episodes`).
    ``choices`` maps a key that takes one of a fixed set of values to that
    set, and ``bounds`` maps a numeric key to the interval its value must
    lie in, written like ``"(0, 1]"`` with ``inf`` for an unbounded end.
    """

    params: dict
    fit: Callable[..., dict]
    predict: Callable[[dict, np.ndarray], np.ndarray]
    block_bytes: Callable[[dict, dict, int, int, int, int], int]
    meta_fit: Callable[..., tuple] | None = None
    choices: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)


#: Whether a parameter of each type takes a value other than a string: never
#: a float for an int, which ``int()`` would truncate, nor a bool for a number.
_TAKES = {bool: lambda v: isinstance(v, (bool, np.bool_)), int: is_integer,
          float: lambda v: is_integer(v) or isinstance(v, (float, np.floating))}


def _coerce(key: str, value, default):
    kind = type(default)
    if isinstance(value, str) and kind is bool:
        # bool("false") would be True; parse the usual spellings instead
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
    elif isinstance(value, str) or _TAKES.get(kind, lambda v: not isinstance(v, bool))(value):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"method parameter {key}={value!r} is not a valid {kind.__name__}")


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
class Provenance:
    seed: int
    episodes_consumed: int = 0
    batches_consumed: int = 0


@dataclass
class PredictorState:
    """Episode-adapted state; every ``predict`` call recomputes the labels.
    ``dim`` is the support rows' width and ``episodes`` their leading axes:
    ``()`` for one episode, ``(E,)`` for a block.  ``predict`` checks the
    query rows against both for every method, by :func:`heads.check_query`."""

    method: MethodConfig
    state: dict
    dim: int
    episodes: tuple[int, ...]

    def predict(self, query_x: np.ndarray) -> np.ndarray:
        """Labels ``(Q,)`` of one episode's query rows ``(Q, d)`` (or of one
        row ``(d,)``), or ``(E, Q)`` of a block's ``(E, Q, d)``; pure given
        the query set."""
        query_x = _finite(query_x, "query")
        if query_x.ndim == 1 and not self.episodes:
            query_x = query_x[None, :]
        query_x = heads.check_query(query_x, self.dim, self.episodes)
        return METHODS[self.method.name].predict(self.state, query_x)


def _finite(x, name: str) -> np.ndarray:
    """``x`` as float64, refused unless every value is finite."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise EpisodeFormatError(f"{name} set holds non-finite values")
    return x


@dataclass
class LearnerState:
    """Output of meta-training: method tag, learned parameters, provenance."""

    method: MethodConfig
    arrays: dict[str, np.ndarray]
    provenance: Provenance

    def fit(self, support_x: np.ndarray, support_y: np.ndarray) -> PredictorState:
        """Adapt to one episode's support rows ``(N*K, d)``, or to a block
        ``(E, N*K, d)`` of episodes that all carry the labels ``support_y``;
        each episode of a block gets the labels it gets alone.  The learner
        is not mutated."""
        n_way, _ = heads.support_structure(support_x, support_y)
        support_x = _finite(support_x, "support")
        # the labels are 0..N-1, checked above; as int64 every head indexes with them
        state = METHODS[self.method.name].fit(self.method.values, self.arrays, support_x,
                                              np.asarray(support_y, dtype=np.int64), n_way)
        return PredictorState(self.method, state, support_x.shape[-1], support_x.shape[:-2])

    def block_size(self, n_way: int, k_shot: int, queries: int, dim: int) -> int:
        """Episodes of this shape to fit and predict at once: as many as the
        method's ``block_bytes`` estimate fits in the shared block budget
        (see :func:`~fewbench.sampler.block_episodes`), and at least one."""
        estimate = METHODS[self.method.name].block_bytes
        return block_episodes(estimate(self.method.values, self.arrays,
                                       n_way, k_shot, queries, dim))


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


def _linear_meta_fit(p, episode_spec, meta_train, seed, clock, log_path):
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
    if mean.shape != support_x.shape[-1:]:
        raise ShapeError(f"learned array 'feat_mean' is {mean.shape[-1]} wide, "
                         f"the support set {support_x.shape[-1]} wide")
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


def _fomaml_meta_fit(p, episode_spec, meta_train, seed, clock, log_path):
    """The first-order MAML outer loop over episodes of ``episode_spec``."""
    outer = fm.OuterConfig(
        lr=p["outer_lr"], meta_batch=p["meta_batch"], epochs=p["epochs"]
    )
    inner = fm.InnerConfig(steps=p["inner_steps"], lr=p["inner_lr"])
    params, _log = fm.meta_train(
        meta_train, episode_spec, inner, outer, seed=seed,
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
    return np.argmax(fm.mlp_forward(st["adapted"], query_x), axis=-1)


def _fomaml_bytes(p, arrays, n, k, q, d):
    """One task's scoring peak (see ``fomaml.task_bytes``); the hidden width
    is the learner's.  A learner without ``W1`` fails in its fit, as it
    does one episode at a time."""
    return fm.task_bytes(n * k, q, n, len(arrays.get("W1", ())), d, p["inner_steps"])


def _episode_cells(n, k, q, d):
    """An episode's sampled support and query rows, its query labels, and the
    predicted labels with their comparison."""
    return (n * k + q) * (d + 2)


def _proto_bytes(p, arrays, n, k, q, d):
    """The support rows grouped by class, then the squared queries and the
    (Q, N) distances; the cosine metric adds unit-normalized copies."""
    cosine = p["metric"] == "cosine"
    return 8 * (_episode_cells(n, k, q, d) + (1 + cosine) * (n * k + q) * d
                + q * (3 * n + 2))


def _rect_bytes(p, arrays, n, k, q, d):
    """The kept support rows, the prototypes' working arrays twice over, and
    the (Q, N) soft assignments; the cosine metric keeps unit-normalized
    copies of the rows."""
    cosine = p["metric"] == "cosine"
    return 8 * (_episode_cells(n, k, q, d) + n * k * d + (1 + 2 * cosine) * (n * k + q) * d
                + 3 * n * d + q * (3 * n + 4))


def _ptmap_bytes(p, arrays, n, k, q, d):
    """The kept support rows, then the larger of two phases: the copies of
    the rows the power transform holds at once, or the transformed rows
    beside the (Q, N) transport costs, kernels and plans."""
    rows = (n * k + q) * d
    return 8 * (_episode_cells(n, k, q, d) + n * k * d + max(4 * rows, rows + 12 * q * n))


def _qda_bytes(p, arrays, n, k, q, d):
    """The larger of two phases: the fit's grouped and centered support
    rows beside the (N, d, d) covariances, factors and whitening matrices,
    or the prediction's two kept (N, d, d) arrays beside the (Q, N d)
    whitened queries and the (Q, N) densities."""
    return 8 * (_episode_cells(n, k, q, d)
                + max(n * d * (2 * k + 4 * d + 2), 2 * n * d * d + q * n * (d + 5)))


def _linear_bytes(p, arrays, n, k, q, d):
    """The standardized support and query rows, the support logits and
    their softmax temporaries, and the heads with their moment estimates."""
    return 8 * (_episode_cells(n, k, q, d) + 2 * (n * k + q) * d
                + n * (5 * n * k + 2 * q + 8 * d))


#: method name -> registry entry; the one place each method is defined
METHODS: dict[str, Method] = {
    "proto": Method(
        params={"metric": "euclidean"},
        fit=_proto_fit, predict=_proto_predict,
        choices={"metric": heads.METRICS},
        block_bytes=_proto_bytes,
    ),
    "fomaml": Method(
        params={"inner_steps": 5, "inner_lr": 0.05, "outer_lr": 0.005,
                "meta_batch": 32, "epochs": 300, "hidden": 64},
        fit=_fomaml_fit, predict=_fomaml_predict, meta_fit=_fomaml_meta_fit,
        bounds={"inner_steps": "[0, inf)", "inner_lr": "(0, inf)",
                "outer_lr": "(0, inf)", "meta_batch": "[1, inf)",
                "epochs": "[0, inf)", "hidden": "[1, inf)"},
        block_bytes=_fomaml_bytes,
    ),
    "linear": Method(
        params={"pretrain_batches": 10, "batch_size": 256,
                "epochs": 10, "step_size": 0.001},
        fit=_linear_fit, predict=_linear_predict, meta_fit=_linear_meta_fit,
        bounds={"pretrain_batches": "[1, inf)", "batch_size": "[1, inf)",
                "epochs": "[1, inf)", "step_size": "(0, inf)"},
        block_bytes=_linear_bytes,
    ),
    "ptmap": Method(
        params={"beta": 0.5, "epsilon": 1e-6, "unit_normalize": True,
                "reg": heads.PTMAP_SINKHORN.reg,
                "max_iters": heads.PTMAP_SINKHORN.max_iters,
                "tol": heads.PTMAP_SINKHORN.tol,
                "n_iters": 20, "step_size": 0.2},
        fit=_keep_support, predict=_ptmap_predict,
        bounds={"beta": "(0, inf)", "epsilon": "[0, inf)", "reg": "(0, inf]",
                "max_iters": "[1, inf)", "tol": "(0, inf]", "n_iters": "[0, inf)",
                "step_size": "(0, 1]"},
        block_bytes=_ptmap_bytes,
    ),
    "qda": Method(
        params={"shrinkage": 0.5},
        fit=_qda_fit, predict=_qda_predict, bounds={"shrinkage": "[0, 1]"},
        block_bytes=_qda_bytes,
    ),
    "rect": Method(
        params={"metric": "euclidean"},
        fit=_keep_support, predict=_rect_predict,
        choices={"metric": heads.METRICS},
        block_bytes=_rect_bytes,
    ),
}


def meta_fit(
    method: MethodConfig,
    episode_spec: EpisodeSpec,
    meta_train: DatasetTable,
    seed: int,
    clock=None,
    log_path: str | None = None,
) -> LearnerState:
    """Run the configured method's meta-training; deterministic under seed.

    ``episode_spec`` is the shape of the training episodes, refused with
    :class:`ArgumentError` unless it is an :class:`EpisodeSpec`.  The
    episode-time heads have nothing to learn from meta-train data at
    this scale and return an empty parameter set.  The transfer head
    learns per-coordinate feature statistics from sampled batches, and
    fo-MAML runs its outer loop over episodes of ``episode_spec``.
    ``clock`` (a budget clock with a ``check()`` method) is polled inside
    the long-running loops.
    """
    seed = check_seed(seed)
    check_spec("meta_fit", episode_spec)
    run = METHODS[method.name].meta_fit
    if run is None:
        arrays, provenance = {}, Provenance(seed=seed)
    else:
        arrays, provenance = run(method.values, episode_spec, meta_train, seed, clock, log_path)
    return LearnerState(method=method, arrays=arrays, provenance=provenance)


# ---------------------------------------------------------------------------
# Artifact serialization


def render_learner(learner: LearnerState) -> str:
    """Versioned, lossless text form of a learner (bit-exact floats).

    An array that is not 1-d or 2-d, or holds a ``nan`` or ``inf``, raises
    :class:`ArtifactError` naming it: ``parse_learner`` would refuse it.
    """
    out = [ARTIFACT_MAGIC, f"method,{learner.method.name}"]
    for key in sorted(learner.method.params):
        value = learner.method.params[key]
        # a value of another type, such as a NumPy scalar or an IntEnum, as
        # the plain value it was coerced to: its own repr need not parse
        if type(value) not in (str, int, float, bool):
            value = learner.method.values[key]
        out.append(f"config,{key},{value!r}")
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
                # the repr of a float that is not finite is no literal
                params[key] = (float(value) if value in ("inf", "-inf", "nan")
                               else ast.literal_eval(value))
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
