"""The unified model registry.

Every model the paper's experimental matrix touches — DEKG-ILP, its three
§V-G ablation variants, the eight baselines of Table III, plus the model-zoo
embedding baselines (ComplEx, HolE, ProjE, SimplE) — registers one
:class:`ModelSpec` here.  A spec bundles the factory that builds an untrained
instance, the configuration class the factory understands (when it has one),
and the capability flags the rest of the system branches on:

* ``trainer_driven`` — the model is optimized by :class:`repro.core.trainer.
  Trainer` under a :class:`~repro.core.config.TrainingConfig` (the DEKG-ILP
  family); everything else trains itself through ``fit(graph, epochs)``.
* ``supports_sharded_eval`` — the model can be shipped to multiprocess
  evaluation workers (see :mod:`repro.eval.sharding`).
* ``checkpointable`` — the model implements the
  :class:`repro.core.persistence.Checkpointable` protocol, so
  ``save_model`` / ``load_model`` and worker replicas use the npz checkpoint
  path instead of pickling.
* ``batch_invariant_scoring`` — ``score_many`` is **bitwise** invariant to
  how a triple list is split into calls (elementwise / per-row scoring with
  no batch-shape-dependent GEMM or convolution), so the serving layer's
  request coalescer may fuse concurrent requests into one ``score_many``
  call without breaking its bit-identity-to-sequential guarantee.  The
  subgraph models (DEKG-ILP family, Grail, TACT) and ConvE are *not*
  invariant — BLAS picks different kernels for different union/batch row
  counts, shifting results by an ulp — so they are served one request
  composition at a time.

The registry is the single construction path shared by the CLI, the
:class:`repro.experiment.Experiment` facade, the grid search, the
link-prediction pipeline and the benchmark harness.

Registration is decorator-based and happens where the model lives::

    @register_model("TransE", description="translation-based embeddings")
    class TransE(EmbeddingModel):
        ...

Factories follow one calling convention.  Class factories (the baselines) are
instantiated as ``factory(num_entities=..., num_relations=...,
embedding_dim=..., seed=..., **overrides)``; trainer-driven factories
additionally accept ``config=`` with a pre-built instance of
``config_class`` (overrides are ignored when an explicit config is passed).

Because :func:`allowed_override_keys` is derived from the config class (or
the constructor signature), new hyper-parameters are exposed through the
whole stack the moment they are added: the subgraph-cache capacity
(``subgraph_cache_size`` on ``ModelConfig``, ``cache_size`` on the
subgraph-reasoning baselines) is a valid ``ExperimentConfig.model.overrides``
key, grid-search axis and CLI ``--cache-size`` target with no registry
changes.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

#: Reference graph size used when a parameter count "at default config" is
#: requested without a dataset (matches the fb15k-237 generator profile).
REFERENCE_NUM_ENTITIES = 360
REFERENCE_NUM_RELATIONS = 36


@dataclass(frozen=True)
class ModelSpec:
    """One registered model: how to build it and what it is capable of."""

    name: str
    factory: Callable[..., Any]
    config_class: Optional[type] = None
    model_class: Optional[type] = None
    trainer_driven: bool = False
    supports_sharded_eval: bool = True
    checkpointable: bool = True
    batch_invariant_scoring: bool = False
    model_overrides: Mapping[str, Any] = field(default_factory=dict)
    training_overrides: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def capabilities(self) -> Dict[str, bool]:
        """The capability flags as a plain dict (CLI / reporting friendly)."""
        return {
            "trainer_driven": self.trainer_driven,
            "supports_sharded_eval": self.supports_sharded_eval,
            "checkpointable": self.checkpointable,
            "batch_invariant_scoring": self.batch_invariant_scoring,
        }

    def apply_training_overrides(self, training_config):
        """``training_config`` with this spec's pinned fields applied.

        The single place variant training pins (e.g. DEKG-ILP-C's
        ``contrastive_weight=0.0``) meet a ``TrainingConfig`` — every trainer
        construction site goes through this so pins cannot drift apart.
        Returns the input unchanged when the spec pins nothing.
        """
        if not self.training_overrides:
            return training_config
        return dataclasses.replace(training_config, **self.training_overrides)


_REGISTRY: Dict[str, ModelSpec] = {}


def register_model(name: str, *, config_class: Optional[type] = None,
                   model_class: Optional[type] = None,
                   trainer_driven: bool = False,
                   supports_sharded_eval: bool = True,
                   checkpointable: bool = True,
                   batch_invariant_scoring: bool = False,
                   model_overrides: Optional[Mapping[str, Any]] = None,
                   training_overrides: Optional[Mapping[str, Any]] = None,
                   description: str = ""):
    """Class/function decorator that registers a model factory under ``name``."""

    def decorator(factory):
        if name in _REGISTRY:
            raise ValueError(f"model {name!r} is already registered")
        resolved_class = model_class
        if resolved_class is None and inspect.isclass(factory):
            resolved_class = factory
        _REGISTRY[name] = ModelSpec(
            name=name,
            factory=factory,
            config_class=config_class,
            model_class=resolved_class,
            trainer_driven=trainer_driven,
            supports_sharded_eval=supports_sharded_eval,
            checkpointable=checkpointable,
            batch_invariant_scoring=batch_invariant_scoring,
            model_overrides=dict(model_overrides or {}),
            training_overrides=dict(training_overrides or {}),
            description=description,
        )
        return factory

    return decorator


def _ensure_builtin() -> None:
    """Import the modules whose import side effect registers the built-ins."""
    import repro.core.model  # noqa: F401  (DEKG-ILP + the three ablations)
    import repro.baselines   # noqa: F401  (Table III + model-zoo baselines)


def registered_models() -> Dict[str, ModelSpec]:
    """Name → :class:`ModelSpec` for every registered model."""
    _ensure_builtin()
    return dict(_REGISTRY)


def model_names() -> List[str]:
    """Every registered model name, trainer-driven (DEKG-ILP family) first."""
    specs = registered_models().values()
    return ([spec.name for spec in specs if spec.trainer_driven]
            + [spec.name for spec in specs if not spec.trainer_driven])


def get_spec(name: str) -> ModelSpec:
    """The spec registered under ``name`` (KeyError lists the choices)."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; choose from {model_names()}") from None


def resolve_model_class(class_name: str) -> type:
    """Map a checkpoint's recorded class name back to the model class."""
    for spec in registered_models().values():
        if spec.model_class is not None and spec.model_class.__name__ == class_name:
            return spec.model_class
    raise ValueError(
        f"checkpoint class {class_name!r} is not provided by any registered model")


def spec_for_class(model_class: type) -> Optional[ModelSpec]:
    """The first spec whose model class is exactly ``model_class`` (or None).

    Classes shared by several specs (DEKGILP backs all four DEKG-ILP
    variants) resolve to the first registration; the variants share their
    capability flags, so any of them answers capability questions.
    """
    for spec in registered_models().values():
        if spec.model_class is model_class:
            return spec
    return None


#: Factory parameters supplied by :func:`build_model` itself — not valid as
#: user overrides (an override would collide with the explicit keyword).
RESERVED_FACTORY_KEYS = frozenset({"self", "num_entities", "num_relations",
                                   "seed", "config"})


def allowed_override_keys(name: str) -> Set[str]:
    """Hyper-parameter names ``build_model(name, overrides=...)`` accepts.

    For trainer-driven specs these are the fields of the config class; for
    class factories they are the named constructor parameters collected over
    the MRO (so ConvE's ``**kwargs`` pass-through to ``EmbeddingModel`` still
    exposes ``margin``/``learning_rate``/...), minus the reserved keys the
    factory convention supplies itself.  ``**_ignored`` catch-alls are
    deliberately *not* a license for arbitrary keys: a typo'd
    hyper-parameter must fail, not silently run the default model.
    """
    spec = get_spec(name)
    if spec.config_class is not None:
        return {f.name for f in dataclasses.fields(spec.config_class)}
    target = spec.model_class if spec.model_class is not None else spec.factory
    keys: Set[str] = set()
    classes = inspect.getmro(target) if inspect.isclass(target) else [target]
    for klass in classes:
        init = klass.__dict__.get("__init__") if inspect.isclass(target) else klass
        if init is None:
            continue
        for parameter in inspect.signature(init).parameters.values():
            if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD,
                                  parameter.KEYWORD_ONLY):
                keys.add(parameter.name)
    return keys - RESERVED_FACTORY_KEYS


def build_model(name: str, *, num_entities: int, num_relations: int,
                embedding_dim: int = 32, seed: Optional[int] = 0,
                model_config: Optional[Any] = None,
                overrides: Optional[Mapping[str, Any]] = None):
    """Build an untrained instance of the registered model ``name``.

    ``overrides`` are keyword hyper-parameters validated against
    :func:`allowed_override_keys`; keys the spec's ``model_overrides`` pin
    (ablation variants pin theirs, e.g. DEKG-ILP-R pins
    ``use_semantic=False``) cannot be overridden — the pin is the variant's
    identity.  Trainer-driven factories receive the merged overrides as
    ``config_class`` fields unless an explicit ``model_config`` is passed, in
    which case the config wins and overrides are not applied.
    """
    spec = get_spec(name)
    allowed = allowed_override_keys(name)
    for key in (overrides or {}):
        if key not in allowed:
            raise ValueError(
                f"unknown override {key!r} for model {name!r}; "
                f"allowed: {sorted(allowed)}")
        if key in spec.model_overrides:
            # Variant pins define the model's identity (DEKG-ILP-R *is*
            # use_semantic=False); letting an override undo one would train
            # a different model under the variant's name.
            raise ValueError(
                f"override {key!r} is pinned to {spec.model_overrides[key]!r} "
                f"by model {name!r}; use the base model to vary it")
    merged = {**spec.model_overrides, **(overrides or {})}
    # An embedding_dim override supersedes the argument rather than colliding
    # with the factory's explicit embedding_dim keyword.
    embedding_dim = merged.pop("embedding_dim", embedding_dim)
    if spec.trainer_driven:
        if model_config is not None:
            if overrides:
                raise ValueError(
                    f"pass hyper-parameters for {name!r} either via "
                    "model_config or via overrides, not both")
            # An explicit config must still be the variant it claims to be.
            for key, value in spec.model_overrides.items():
                if getattr(model_config, key) != value:
                    raise ValueError(
                        f"model_config.{key}={getattr(model_config, key)!r} "
                        f"conflicts with model {name!r}, which pins "
                        f"{key}={value!r}")
        model = spec.factory(num_entities, num_relations,
                             embedding_dim=embedding_dim, seed=seed,
                             config=model_config, **merged)
    else:
        if model_config is not None:
            raise ValueError(
                f"model {name!r} has no config class; pass hyper-parameters "
                f"via overrides ({sorted(allowed)})")
        model = spec.factory(num_entities=num_entities, num_relations=num_relations,
                             embedding_dim=embedding_dim, seed=seed, **merged)
    model.name = name
    return model


def registry_listing(num_entities: int = REFERENCE_NUM_ENTITIES,
                     num_relations: int = REFERENCE_NUM_RELATIONS) -> List[Dict[str, Any]]:
    """Machine-readable registry rows for service discovery.

    One dict per registered model — ``name``, ``parameters`` (learned-scalar
    count at the default configuration on the given graph profile),
    ``capabilities`` (the :meth:`ModelSpec.capabilities` dict) and
    ``description``.  Shared by ``repro models --json`` and the serving
    daemon's ``models`` op so both report the same facts.
    """
    return [{
        "name": name,
        "parameters": default_parameter_count(
            name, num_entities=num_entities, num_relations=num_relations),
        "capabilities": spec.capabilities(),
        "description": spec.description,
    } for name, spec in registered_models().items()]


def default_parameter_count(name: str,
                            num_entities: int = REFERENCE_NUM_ENTITIES,
                            num_relations: int = REFERENCE_NUM_RELATIONS) -> int:
    """Learned-scalar count of ``name`` at its default configuration."""
    model = build_model(name, num_entities=num_entities, num_relations=num_relations)
    return int(model.num_parameters())
