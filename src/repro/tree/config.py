"""Serializable configuration of a guide-tree stage.

:class:`TreeConfig` is the dict-round-trippable form of "which tree
builder, executed where" -- the shape that travels through
``engine_kwargs`` (it is JSON-able, so request content hashes and the
serving layer's coalescing keys see the effective choice) and through
baseline dataclass fields.  ``backend``/``workers`` here place the
*progressive merge DAG* (:func:`repro.tree.progressive_merge`), not the
tree construction itself -- building the tree is cheap; replaying it is
the serial hot path worth scheduling.

Baselines accept the full spectrum of ``tree=`` values and funnel them
through :func:`resolve_tree_stage`:

- ``None`` -- the baseline's historical default builder;
- a registry name (``"nj"``, ``"upgma"``, ...);
- a dict -- ``TreeConfig.from_dict`` (the JSON/engine_kwargs form);
- a :class:`TreeConfig`;
- a ready :class:`~repro.tree.builders.TreeBuilder` instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.distance.config import validate_backend_name
from repro.tree.builders import TreeBuilder, available_builders, get_builder

__all__ = ["TreeConfig", "resolve_tree_stage"]


@dataclass(frozen=True)
class TreeConfig:
    """One guide-tree stage, described completely (validated, JSON-able).

    Attributes
    ----------
    builder:
        Registry name (``"upgma"``, ``"wpgma"``, ``"nj"``,
        ``"single-linkage"``; see :func:`repro.tree.available_builders`).
    backend:
        Execution backend of the DAG-scheduled progressive merge
        (``"threads"``/``"processes"``/``"pool"``; ``None`` = merge serially).
    workers:
        Rank count for the merge scheduler (``None`` = host core count,
        capped at the schedule's peak width).
    anchors:
        For ``builder="anchor"``: the number of sampled anchor leaves
        ``K`` (``None`` = the builder's default).  Rejected for other
        builders.
    anchor_base:
        For ``builder="anchor"``: the registry name of the exact builder
        run over the anchors (``None`` = the builder's default).
    anchor_seed:
        For ``builder="anchor"``: the anchor-sampling seed (``None`` =
        the builder's default seed, not "no seed").
    """

    builder: str = "upgma"
    backend: Optional[str] = None
    workers: Optional[int] = None
    anchors: Optional[int] = None
    anchor_base: Optional[str] = None
    anchor_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if str(self.builder).lower() not in available_builders():
            raise ValueError(
                f"unknown tree builder {self.builder!r}; "
                f"available: {available_builders()}"
            )
        validate_backend_name(self.backend, "tree backend")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None)")
        anchor_opts = {
            "anchors": self.anchors,
            "anchor_base": self.anchor_base,
            "anchor_seed": self.anchor_seed,
        }
        set_opts = sorted(k for k, v in anchor_opts.items() if v is not None)
        if set_opts and str(self.builder).lower() != "anchor":
            raise ValueError(
                f"{set_opts} only apply to the 'anchor' builder, "
                f"not {self.builder!r}"
            )
        if self.anchors is not None and self.anchors < 1:
            raise ValueError("anchors must be >= 1 (or None)")
        if (
            self.anchor_base is not None
            and str(self.anchor_base).lower() not in available_builders()
        ):
            raise ValueError(
                f"unknown anchor base builder {self.anchor_base!r}; "
                f"available: {available_builders()}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return {
            "builder": self.builder,
            "backend": self.backend,
            "workers": self.workers,
            "anchors": self.anchors,
            "anchor_base": self.anchor_base,
            "anchor_seed": self.anchor_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TreeConfig":
        unknown = set(data) - {
            "builder", "backend", "workers",
            "anchors", "anchor_base", "anchor_seed",
        }
        if unknown:
            raise ValueError(f"unknown TreeConfig keys {sorted(unknown)}")
        return cls(**dict(data))

    def make_builder(self) -> TreeBuilder:
        """Build the configured tree builder."""
        kwargs: Dict[str, Any] = {}
        if self.anchors is not None:
            kwargs["anchors"] = self.anchors
        if self.anchor_base is not None:
            kwargs["base"] = self.anchor_base
        if self.anchor_seed is not None:
            kwargs["seed"] = self.anchor_seed
        return get_builder(self.builder, **kwargs)


def resolve_tree_stage(
    tree: Union[str, dict, TreeConfig, TreeBuilder, None] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    *,
    default: Optional[Callable[[], Optional[TreeBuilder]]] = None,
) -> Tuple[Optional[TreeBuilder], Optional[str], Optional[int]]:
    """Normalise a baseline's tree options to ``(builder, backend,
    workers)``.

    ``default`` builds the baseline's historical builder when ``tree``
    is None (e.g. neighbour joining for the CLUSTALW-like aligner); it
    may return None for a baseline whose default tree is no builder's
    (center-star's caterpillar).
    Explicit ``backend``/``workers`` arguments win over the config's.
    """
    config: Optional[TreeConfig] = None
    if isinstance(tree, Mapping):
        tree = TreeConfig.from_dict(tree)
    if isinstance(tree, TreeConfig):
        config = tree
        builder = config.make_builder()
    elif isinstance(tree, TreeBuilder):
        builder = tree
    elif isinstance(tree, str):
        try:
            builder = get_builder(tree.lower())
        except KeyError as exc:
            raise ValueError(exc.args[0] if exc.args else str(exc)) from None
    elif tree is None:
        builder = default() if default is not None else get_builder(None)
    else:
        raise ValueError(
            "tree must be a builder name, a TreeConfig (or its dict "
            f"form), a TreeBuilder, or None -- got {tree!r}"
        )
    if backend is None and config is not None:
        backend = config.backend
    if workers is None and config is not None:
        workers = config.workers
    validate_backend_name(backend, "tree backend")
    if workers is not None and workers < 1:
        raise ValueError("tree workers must be >= 1 (or None)")
    return builder, backend, workers
