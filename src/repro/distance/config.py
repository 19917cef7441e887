"""Serializable configuration of a distance stage.

:class:`DistanceConfig` is the dict-round-trippable form of "which
estimator, with which knobs, executed where" -- the shape that travels
through ``engine_kwargs`` (it is JSON-able, so request content hashes
and the serving layer's coalescing keys see the effective choice) and
through baseline dataclass fields.  The serving gateway validates its
flat distance ``defaults`` by building one.

The guide-tree baselines (:class:`~repro.msa.base.GuideTreeAligner`)
accept the full spectrum of ``distance=`` values and funnel them
through :func:`resolve_distance_stage`:

- ``None`` -- the baseline's historical default estimator;
- a registry name (``"full-dp"``) -- constructed with the baseline's
  scoring defaults;
- a dict -- ``DistanceConfig.from_dict`` (the JSON/engine_kwargs form);
- a :class:`DistanceConfig`;
- a ready :class:`~repro.distance.estimators.DistanceEstimator` instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.distance.estimators import (
    DistanceEstimator,
    available_estimators,
    get_estimator,
)
from repro.distance.transforms import TRANSFORMS

__all__ = [
    "DistanceConfig",
    "resolve_distance_stage",
    "scoring_estimator_defaults",
    "validate_backend_name",
]


def scoring_estimator_defaults(
    matrix: Any, gaps: Any, k: int
) -> Dict[str, Dict[str, Any]]:
    """Per-estimator constructor defaults derived from a baseline's knobs.

    The by-name path of :func:`resolve_distance_stage` uses these so
    ``distance="full-dp"`` picks up the aligner's own scoring
    matrix/gaps and ``distance="ktuple"`` its ``kmer_k``.
    """
    return {
        "full-dp": {"matrix": matrix, "gaps": gaps},
        "kband": {"matrix": matrix, "gaps": gaps},
        "ktuple": {"k": k},
        "kmer-fraction": {"k": k},
    }


def validate_backend_name(backend: Optional[str], what: str = "backend") -> None:
    """Raise ``ValueError`` unless ``backend`` is None or registered."""
    if backend is None:
        return
    from repro.parcomp.backends import available_backends

    if str(backend).lower() not in available_backends():
        raise ValueError(
            f"{what} {backend!r} is not a registered execution backend; "
            f"available: {available_backends()}"
        )


@dataclass(frozen=True)
class DistanceConfig:
    """One distance stage, described completely (validated, JSON-able).

    Attributes
    ----------
    estimator:
        Registry name (``"ktuple"``, ``"kmer-fraction"``, ``"full-dp"``,
        ``"kband"``; see :func:`repro.distance.available_estimators`).
    k:
        k-mer length for the alignment-free estimators (``None`` = the
        estimator's/baseline's default; rejected by estimators without a
        ``k``).
    transform:
        Identity post-transform (``"linear"`` or ``"kimura"``; ``None``
        = estimator default).  Rejected by ``ktuple`` (its distance is
        not on an identity scale).
    backend:
        Execution backend of the tiled all-pairs scheduler
        (``"threads"``/``"processes"``/``"pool"``; ``None`` = compute serially).
    workers:
        Rank count for the scheduler (``None`` = host core count).
    out:
        Result placement (see :data:`repro.distance.OUT_MODES`):
        ``"memory"`` (dense, the historical default), ``"condensed"``
        (the flat upper triangle, half the RAM), or ``"memmap"``
        (disk-backed tile store; O(tile) working memory).
    store_dir:
        Tile-store directory for ``out="memmap"`` (``None`` = a fresh
        temporary store; pass a path to make the run resumable).
    """

    estimator: str = "ktuple"
    k: Optional[int] = None
    transform: Optional[str] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    out: Optional[str] = None
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.distance.allpairs import OUT_MODES

        if self.out is not None and str(self.out).lower() not in OUT_MODES:
            raise ValueError(
                f"unknown distance out mode {self.out!r}; one of {OUT_MODES}"
            )
        if self.store_dir is not None and str(self.out).lower() != "memmap":
            raise ValueError("store_dir requires out='memmap'")
        if str(self.estimator).lower() not in available_estimators():
            raise ValueError(
                f"unknown distance estimator {self.estimator!r}; "
                f"available: {available_estimators()}"
            )
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1 (or None)")
        if self.transform is not None and self.transform not in TRANSFORMS:
            raise ValueError(
                f"unknown identity transform {self.transform!r}; "
                f"one of {list(TRANSFORMS)}"
            )
        validate_backend_name(self.backend, "distance backend")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None)")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return {
            "estimator": self.estimator,
            "k": self.k,
            "transform": self.transform,
            "backend": self.backend,
            "workers": self.workers,
            "out": self.out,
            "store_dir": self.store_dir,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DistanceConfig":
        unknown = set(data) - {
            "estimator", "k", "transform", "backend", "workers",
            "out", "store_dir",
        }
        if unknown:
            raise ValueError(
                f"unknown DistanceConfig keys {sorted(unknown)}"
            )
        return cls(**dict(data))

    def make_estimator(
        self, defaults: Optional[Mapping[str, Any]] = None
    ) -> DistanceEstimator:
        """Build the estimator; explicit fields win over ``defaults``."""
        kwargs: Dict[str, Any] = dict(defaults or {})
        if self.k is not None:
            kwargs["k"] = self.k
        if self.transform is not None:
            kwargs["transform"] = self.transform
        return get_estimator(self.estimator, **kwargs)


def resolve_distance_stage(
    distance: Union[
        str, dict, DistanceConfig, DistanceEstimator, None
    ] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    *,
    out: Optional[str] = None,
    store_dir: Optional[str] = None,
    default: Optional[Callable[[], DistanceEstimator]] = None,
    estimator_defaults: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Tuple[
    DistanceEstimator, Optional[str], Optional[int],
    Optional[str], Optional[str],
]:
    """Normalise a baseline's distance options to ``(estimator, backend,
    workers, out, store_dir)``.

    ``default`` builds the baseline's historical estimator when
    ``distance`` is None.  ``estimator_defaults`` maps registry names to
    constructor defaults (e.g. the baseline's scoring matrix for
    ``"full-dp"``), applied when the estimator is selected *by name*;
    explicit :class:`DistanceConfig` fields win over them.  Explicit
    ``backend``/``workers``/``out``/``store_dir`` arguments win over the
    config's.  ``out`` stays ``None`` (caller's choice of default) when
    neither names a placement.
    """
    estimator_defaults = estimator_defaults or {}
    config: Optional[DistanceConfig] = None
    if isinstance(distance, Mapping):
        distance = DistanceConfig.from_dict(distance)
    if isinstance(distance, DistanceConfig):
        config = distance
        est = config.make_estimator(
            estimator_defaults.get(str(config.estimator).lower())
        )
    elif isinstance(distance, DistanceEstimator):
        est = distance
    elif isinstance(distance, str):
        key = distance.lower()
        try:
            est = get_estimator(key, **dict(estimator_defaults.get(key, {})))
        except KeyError as exc:
            raise ValueError(exc.args[0] if exc.args else str(exc)) from None
    elif distance is None:
        est = default() if default is not None else get_estimator(None)
    else:
        raise ValueError(
            "distance must be an estimator name, a DistanceConfig (or its "
            f"dict form), a DistanceEstimator, or None -- got {distance!r}"
        )
    if backend is None and config is not None:
        backend = config.backend
    if workers is None and config is not None:
        workers = config.workers
    if out is None and config is not None:
        out = config.out
    if store_dir is None and config is not None:
        store_dir = config.store_dir
    validate_backend_name(backend, "distance backend")
    if workers is not None and workers < 1:
        raise ValueError("distance workers must be >= 1 (or None)")
    if out is not None:
        from repro.distance.allpairs import OUT_MODES

        out = str(out).lower()
        if out not in OUT_MODES:
            raise ValueError(
                f"unknown distance out mode {out!r}; one of {OUT_MODES}"
            )
    if store_dir is not None and out != "memmap":
        raise ValueError("distance store_dir requires out='memmap'")
    return est, backend, workers, out, store_dir
