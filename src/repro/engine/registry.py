"""The unified engine registry.

One name space spans every alignment backend: the sequential MSA systems
(``"muscle"``, ``"clustalw"``, ``"tcoffee"``, ...), the stage-parallel
``"parallel-baseline"``, and ``"sample-align-d"`` itself.  Everything --
the :func:`repro.align` facade, the CLI's ``--engine`` flag,
:class:`~repro.engine.service.AlignmentService`, benchmarks -- resolves
engines through :func:`get_engine`; plug-ins enter through
:func:`register_engine` (or :func:`register_sequential_aligner` for bare
:class:`~repro.msa.base.SequentialMsaAligner` factories).  The
sequential section also serves the bare aligners themselves
(:func:`get_sequential_aligner`), which Sample-Align-D instantiates as
its per-bucket local aligner.

:data:`DISTANCE_OPTION_NAMES` / :data:`TREE_OPTION_NAMES` are the one
table of guide-tree stage option names: the baselines' fields
(:class:`~repro.msa.base.GuideTreeAligner`), the serving gateway's
``defaults`` keys and the CLI's stage flags all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.engine.api import Aligner

__all__ = [
    "EngineEntry",
    "available_engines",
    "available_sequential_aligners",
    "engine_distance_options",
    "engine_tree_options",
    "get_engine",
    "get_sequential_aligner",
    "register_engine",
    "register_sequential_aligner",
    "unregister_engine",
    "unregister_sequential_aligner",
]

#: The distance-seam kwargs a guide-tree engine can accept (see
#: :mod:`repro.distance`); registry entries advertise the subset they
#: support so the serving gateway and the CLI can thread defaults
#: through ``engine_kwargs`` without guessing.
DISTANCE_OPTION_NAMES = (
    "distance",
    "distance_backend",
    "distance_workers",
    "distance_out",
    "distance_store_dir",
)

#: The tree-seam kwargs a guide-tree engine can accept (see
#: :mod:`repro.tree`); advertised the same way as the distance seam.
TREE_OPTION_NAMES = ("tree", "tree_backend", "tree_workers")


@dataclass(frozen=True)
class EngineEntry:
    """One registry row: how to build an engine, and of which kind."""

    name: str
    kind: str  # "sequential" | "distributed"
    factory: Callable[..., Aligner]
    #: For sequential entries, the raw SequentialMsaAligner factory that
    #: :func:`get_sequential_aligner` returns directly.
    seq_factory: Optional[Callable] = None
    #: Which distance-seam kwargs (subset of DISTANCE_OPTION_NAMES) the
    #: engine factory accepts.  Empty for engines without a pluggable
    #: guide-tree distance stage (T-Coffee, ProbCons, Sample-Align-D --
    #: the latter takes them via ``local_aligner_kwargs`` instead).
    distance_options: FrozenSet[str] = frozenset()
    #: Which tree-seam kwargs (subset of TREE_OPTION_NAMES) the engine
    #: factory accepts; same conventions as ``distance_options``.
    tree_options: FrozenSet[str] = frozenset()


_ENGINES: Dict[str, EngineEntry] = {}


def _register(entry: EngineEntry, overwrite: bool) -> None:
    existing = _ENGINES.get(entry.name)
    if existing is not None:
        if not overwrite:
            raise ValueError(
                f"engine {entry.name!r} already registered "
                "(pass overwrite=True to replace)"
            )
        if existing.kind != entry.kind:
            raise ValueError(
                f"cannot overwrite {existing.kind} engine "
                f"{entry.name!r} with a {entry.kind} one; "
                "unregister it first"
            )
    _ENGINES[entry.name] = entry


def _option_set(
    options: Iterable[str], names: tuple, what: str
) -> FrozenSet[str]:
    opts = frozenset(options)
    unknown = opts - set(names)
    if unknown:
        raise ValueError(
            f"unknown {what} options {sorted(unknown)}; "
            f"subset of {list(names)}"
        )
    return opts


def register_engine(
    name: str,
    factory: Callable[..., Aligner],
    kind: str = "distributed",
    overwrite: bool = False,
    distance_options: Iterable[str] = (),
    tree_options: Iterable[str] = (),
) -> None:
    """Register an engine factory under a unified-registry name.

    ``factory(**kwargs)`` must return an :class:`Aligner`.  Use
    :func:`register_sequential_aligner` instead when all you have is a
    :class:`~repro.msa.base.SequentialMsaAligner` factory -- that also
    makes the name usable as Sample-Align-D's local aligner.
    ``distance_options`` / ``tree_options`` advertise which of the
    :mod:`repro.distance` / :mod:`repro.tree` seam kwargs the factory
    accepts (see :func:`engine_distance_options` /
    :func:`engine_tree_options`).
    """
    if kind not in ("sequential", "distributed"):
        raise ValueError("kind must be 'sequential' or 'distributed'")
    _register(
        EngineEntry(
            name.lower(),
            kind,
            factory,
            distance_options=_option_set(
                distance_options, DISTANCE_OPTION_NAMES, "distance"
            ),
            tree_options=_option_set(
                tree_options, TREE_OPTION_NAMES, "tree"
            ),
        ),
        overwrite,
    )


def register_sequential_aligner(
    name: str,
    seq_factory: Callable,
    overwrite: bool = False,
    distance_options: Iterable[str] = (),
    tree_options: Iterable[str] = (),
) -> None:
    """Register a sequential MSA factory in the unified name space.

    The name becomes usable both as an engine (``get_engine(name)``, the
    ``align`` facade, the service) and as a bare aligner
    (:func:`get_sequential_aligner`, Sample-Align-D's
    ``local_aligner``).  Pass ``distance_options`` /
    ``tree_options`` when the factory accepts the
    :mod:`repro.distance` / :mod:`repro.tree` seam kwargs
    (``distance``/``distance_backend``/``distance_workers`` and
    ``tree``/``tree_backend``/``tree_workers``).
    """
    key = name.lower()

    def engine_factory(**kwargs) -> Aligner:
        from repro.engine.engines import SequentialEngine

        return SequentialEngine(key, seq_factory(**kwargs))

    _register(
        EngineEntry(
            key,
            "sequential",
            engine_factory,
            seq_factory,
            distance_options=_option_set(
                distance_options, DISTANCE_OPTION_NAMES, "distance"
            ),
            tree_options=_option_set(
                tree_options, TREE_OPTION_NAMES, "tree"
            ),
        ),
        overwrite,
    )


def unregister_engine(name: str) -> None:
    """Remove an engine (any kind) from the registry."""
    try:
        del _ENGINES[name.lower()]
    except KeyError:
        raise KeyError(f"engine {name!r} is not registered") from None


def unregister_sequential_aligner(name: str) -> None:
    """Remove a sequential aligner; refuses to touch distributed engines."""
    entry = _ENGINES.get(name.lower())
    if entry is None or entry.kind != "sequential":
        raise KeyError(
            f"unknown aligner {name!r}; available: "
            f"{available_sequential_aligners()}"
        )
    del _ENGINES[name.lower()]


def available_engines() -> Dict[str, str]:
    """``{name: kind}`` over the whole unified registry, name-sorted."""
    return {name: _ENGINES[name].kind for name in sorted(_ENGINES)}


def available_sequential_aligners() -> List[str]:
    """Sorted names of the sequential section."""
    return sorted(n for n, e in _ENGINES.items() if e.kind == "sequential")


def engine_distance_options(name: str) -> FrozenSet[str]:
    """Which :mod:`repro.distance` seam kwargs the engine accepts.

    Empty set for unknown names (callers treat those as "not
    distance-capable" rather than erroring -- the registry is open).
    """
    entry = _ENGINES.get(name.lower())
    return entry.distance_options if entry is not None else frozenset()


def engine_tree_options(name: str) -> FrozenSet[str]:
    """Which :mod:`repro.tree` seam kwargs the engine accepts.

    Empty set for unknown names, mirroring
    :func:`engine_distance_options`.
    """
    entry = _ENGINES.get(name.lower())
    return entry.tree_options if entry is not None else frozenset()


def get_engine(name: str, **kwargs) -> Aligner:
    """Instantiate any registered engine by unified-registry name."""
    try:
        entry = _ENGINES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; available: {sorted(_ENGINES)}"
        ) from None
    return entry.factory(**kwargs)


def get_sequential_aligner(name: str, **kwargs):
    """Instantiate the raw sequential aligner behind a registry name.

    It only resolves sequential entries and returns the bare
    :class:`~repro.msa.base.SequentialMsaAligner` (no protocol wrapper).
    """
    entry = _ENGINES.get(name.lower())
    if entry is None or entry.seq_factory is None:
        raise KeyError(
            f"unknown aligner {name!r}; available: "
            f"{available_sequential_aligners()}"
        ) from None
    return entry.seq_factory(**kwargs)


# ---------------------------------------------------------------------------
# Built-in engines.  Sequential factories defer their imports so that
# `import repro.engine` stays cheap (PEP 562 spirit); the heavy stacks
# (pair-HMM, FFT anchoring) load only when the engine is requested.


def _seq(module: str, cls: str, **preset):
    def factory(**kw):
        import importlib

        aligner_cls = getattr(importlib.import_module(module), cls)
        return aligner_cls(**{**preset, **kw})

    return factory


_BUILTIN_SEQUENTIAL = {
    # MUSCLE family (paper Table 2: MUSCLE and MUSCLE-p).
    "muscle": _seq("repro.msa.muscle", "MuscleLike"),
    "muscle-p": _seq("repro.msa.muscle", "MuscleLike", refine=False),
    "muscle-draft": _seq(
        "repro.msa.muscle", "MuscleLike", two_stage=False, refine=False
    ),
    # CLUSTALW.
    "clustalw": _seq("repro.msa.clustalw", "ClustalWLike"),
    "clustalw-full": _seq(
        "repro.msa.clustalw", "ClustalWLike", distance="full-dp"
    ),
    # MAFFT scripts cited by the paper.
    "mafft-nwnsi": _seq("repro.msa.mafft", "MafftLike", mode="nwnsi"),
    "mafft-fftnsi": _seq("repro.msa.mafft", "MafftLike", mode="fftnsi"),
    # Cheap baseline.
    "center-star": _seq("repro.msa.centerstar", "CenterStar"),
}

# The guide-tree systems (GuideTreeAligner subclasses) accept every
# stage option.
for _name, _factory in _BUILTIN_SEQUENTIAL.items():
    register_sequential_aligner(
        _name,
        _factory,
        distance_options=DISTANCE_OPTION_NAMES,
        tree_options=TREE_OPTION_NAMES,
    )

# Consistency-based systems: no guide-tree distance or tree stage.
register_sequential_aligner(
    "tcoffee", _seq("repro.msa.tcoffee", "TCoffeeLike")
)
register_sequential_aligner(
    "probcons", _seq("repro.msa.probcons", "ProbConsLike")
)


def _sample_align_d_factory(**kwargs) -> Aligner:
    from repro.engine.engines import SampleAlignDEngine

    return SampleAlignDEngine(**kwargs)


def _parallel_baseline_factory(**kwargs) -> Aligner:
    from repro.engine.engines import ParallelBaselineEngine

    return ParallelBaselineEngine(**kwargs)


register_engine("sample-align-d", _sample_align_d_factory)
# The stage-parallel baseline parallelises its distance and merge
# stages inside its own SPMD program, so it takes estimator/builder
# choices but no nested backend/workers.
register_engine(
    "parallel-baseline",
    _parallel_baseline_factory,
    distance_options=("distance", "distance_out", "distance_store_dir"),
    tree_options=("tree",),
)
