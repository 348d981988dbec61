"""Saving and loading trained models — any registered model, one format.

A checkpoint is a single ``.npz`` payload holding the model's parameter
arrays plus a JSON-encoded header with everything needed to rebuild an
identical architecture: the model class, its constructor state (including the
RNG seed it was built with) and its configuration.  The context graph is
*not* stored — it is data, not model state — so callers re-bind it with
``set_context`` after loading.

Models opt in by implementing the :class:`Checkpointable` protocol; every
model in the registry (DEKG-ILP and its ablations, the embedding baselines,
GraIL, TACT, GEN, RuleN) does.  :class:`CheckpointableModule` is the stock
implementation for :class:`~repro.autodiff.module.Module` subclasses whose
identity is "constructor kwargs + ``state_dict``".

Checkpoints can live on disk (:func:`save_model` / :func:`load_model`) or in
memory (:func:`model_to_bytes` / :func:`model_from_bytes`).  The in-memory
form is what the multiprocess evaluation shards use to ship a model replica
to spawned workers: the parent serializes once, every worker rebuilds its own
replica, and no autodiff graph state ever crosses the process boundary.

Integrity (format v3)
---------------------
Disk writes are atomic (``tmp + fsync + os.replace`` via
:mod:`repro.resilience.atomic`), so a crash mid-save leaves the previous
checkpoint intact instead of a torn file.  The v3 header records a CRC32
checksum (plus dtype and shape) for every parameter array; loading verifies
them and raises :class:`CheckpointCorruptionError` **naming the failing
section** — the corrupted array, the header, or the container file — instead
of surfacing a numpy/zipfile decode traceback.  Version-2 checkpoints
(pre-checksum) and version-1 checkpoints (pre-registry) still load.

The same checksummed-archive layer (:func:`write_archive` /
:func:`read_archive`) backs the trainer's crash-resume journal.

The checkpoint records the seed the model was constructed with, and restore
always reuses it.  Passing an explicit ``seed=`` to :func:`load_model` /
:func:`model_from_bytes` is only an assertion: a value that does not match
the recorded seed raises instead of silently rebuilding a different model
(the historical behaviour of ``load_model(path, seed=0)``).
"""

from __future__ import annotations

import io
import json
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from repro.resilience import atomic_write_bytes, mangle

PathLike = Union[str, Path]

_HEADER_KEY = "__header__"
_FORMAT_VERSION = 3
#: Fault-injection site for checkpoint payloads hitting disk (see
#: :func:`repro.resilience.faults.mangle`).
_FAULT_SITE = "checkpoint"


class CheckpointCorruptionError(ValueError):
    """A checkpoint failed an integrity check.

    ``section`` names what failed: ``"file"`` (the container is unreadable —
    truncated, not an npz), ``"header"`` (the JSON header is missing or
    undecodable), or the name of the parameter array whose bytes do not match
    their recorded checksum/dtype/shape.
    """

    def __init__(self, section: str, source: str, reason: str):
        super().__init__(
            f"corrupted checkpoint {source}: {reason} [section: {section}]")
        self.section = section
        self.source = source
        self.reason = reason


@runtime_checkable
class Checkpointable(Protocol):
    """What a model must provide to round-trip through the npz checkpoint.

    ``checkpoint_header`` returns a JSON-serializable description of the
    architecture (constructor state, configuration, seed);
    ``checkpoint_arrays`` returns the parameter arrays; the
    ``from_checkpoint`` classmethod rebuilds an equivalent eval-mode model
    from the two.  Scores of the restored model must match the original
    bit for bit on any fixed triple set.
    """

    def checkpoint_header(self) -> Dict[str, Any]: ...

    def checkpoint_arrays(self) -> Dict[str, np.ndarray]: ...

    @classmethod
    def from_checkpoint(cls, header: Dict[str, Any],
                        arrays: Dict[str, np.ndarray]) -> "Checkpointable": ...


class CheckpointableModule:
    """Stock :class:`Checkpointable` implementation for ``Module`` models.

    Subclasses record their constructor kwargs in ``self._checkpoint_init``
    (JSON-serializable values only) during ``__init__``; the parameter arrays
    come from ``state_dict``.  Non-parameter state rides along through the
    ``_checkpoint_extra`` / ``_restore_checkpoint_extra`` hooks.
    """

    _checkpoint_init: Dict[str, Any]

    def checkpoint_header(self) -> Dict[str, Any]:
        return {"init": dict(self._checkpoint_init), "extra": self._checkpoint_extra()}

    def checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        return self.state_dict()

    def _checkpoint_extra(self) -> Dict[str, Any]:
        return {}

    def _restore_checkpoint_extra(self, extra: Dict[str, Any]) -> None:
        pass

    @classmethod
    def from_checkpoint(cls, header: Dict[str, Any],
                        arrays: Dict[str, np.ndarray]):
        model = cls(**header.get("init", {}))
        model.load_state_dict(dict(arrays))
        model._restore_checkpoint_extra(header.get("extra", {}))
        model.eval()
        return model


# --------------------------------------------------------------------- #
# checksummed archive layer (shared by model checkpoints and journals)
# --------------------------------------------------------------------- #
def _array_checksum(array: np.ndarray) -> Dict[str, Any]:
    contiguous = np.ascontiguousarray(array)
    return {
        "crc32": zlib.crc32(contiguous.tobytes()) & 0xFFFFFFFF,
        "dtype": str(array.dtype),
        "shape": list(array.shape),
    }


def _pack_raw(header: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialize header + arrays to npz bytes with no stamping (test hook)."""
    if _HEADER_KEY in arrays:
        raise ValueError(f"arrays may not use the reserved key {_HEADER_KEY!r}")
    payload = dict(arrays)
    payload[_HEADER_KEY] = np.frombuffer(json.dumps(header).encode("utf-8"),
                                         dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


def pack_archive(header: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialize a format-v3 archive: per-array checksums recorded in the header."""
    arrays = {name: np.asarray(array) for name, array in arrays.items()}
    header = dict(header)
    header["format_version"] = _FORMAT_VERSION
    header["checksums"] = {name: _array_checksum(array)
                           for name, array in arrays.items()}
    return _pack_raw(header, arrays)


def unpack_archive(payload: bytes,
                   source: str = "<bytes>") -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Decode and integrity-check an archive; inverse of :func:`pack_archive`.

    Every failure surfaces as :class:`CheckpointCorruptionError` naming the
    failing section; archives without a ``checksums`` header entry (formats
    v1/v2) skip checksum verification but still get sectioned container and
    header diagnostics.
    """
    try:
        archive = np.load(io.BytesIO(payload))
    except Exception as exc:
        raise CheckpointCorruptionError(
            "file", source, f"not a readable npz archive ({exc})") from exc
    with archive:
        if _HEADER_KEY not in archive:
            raise CheckpointCorruptionError(
                "header", source,
                "not a repro checkpoint (missing header)")
        try:
            header = json.loads(bytes(archive[_HEADER_KEY].tolist()).decode("utf-8"))
        except Exception as exc:
            raise CheckpointCorruptionError(
                "header", source, f"header is not valid JSON ({exc})") from exc
        arrays: Dict[str, np.ndarray] = {}
        for name in archive.files:
            if name == _HEADER_KEY:
                continue
            try:
                arrays[name] = archive[name]
            except Exception as exc:
                raise CheckpointCorruptionError(
                    name, source,
                    f"array {name!r} failed to decode ({exc})") from exc
    checksums = header.get("checksums")
    if checksums is not None:
        for name in arrays:
            if name not in checksums:
                raise CheckpointCorruptionError(
                    name, source,
                    f"array {name!r} is not covered by the header checksums")
        for name, recorded in checksums.items():
            if name not in arrays:
                raise CheckpointCorruptionError(
                    name, source, f"checksummed array {name!r} is missing")
            actual = _array_checksum(arrays[name])
            for key in ("dtype", "shape", "crc32"):
                if actual[key] != recorded.get(key):
                    raise CheckpointCorruptionError(
                        name, source,
                        f"array {name!r} {key} mismatch: stored "
                        f"{recorded.get(key)!r}, found {actual[key]!r}")
    return header, arrays


def read_archive(path: PathLike) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Read and integrity-check an archive file written by :func:`write_archive`."""
    path = Path(path)
    return unpack_archive(path.read_bytes(), source=str(path))


def write_archive(path: PathLike, header: Dict[str, Any],
                  arrays: Dict[str, np.ndarray]) -> Path:
    """Atomically write a checksummed archive to ``path``.

    The serialized payload passes through the ``"checkpoint"`` fault site on
    its way to disk, so ``REPRO_FAULTS=checkpoint:0:corrupt:512`` chaos runs
    exercise the corruption detection end to end.
    """
    payload = mangle(_FAULT_SITE, pack_archive(header, arrays))
    return atomic_write_bytes(path, payload)


# --------------------------------------------------------------------- #
# model checkpoints
# --------------------------------------------------------------------- #
def _model_header_and_arrays(model) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The model's archive content (header without version/checksum stamps)."""
    if not isinstance(model, Checkpointable):
        raise TypeError(
            f"{type(model).__name__} does not implement the Checkpointable "
            "protocol (checkpoint_header / checkpoint_arrays / from_checkpoint)")
    from repro.registry import spec_for_class

    spec = spec_for_class(type(model))
    if spec is None:
        raise TypeError(
            f"cannot checkpoint {type(model).__name__}: restore resolves classes "
            "through the model registry, and this class is not the model class "
            "of any registered spec (register it with repro.registry.register_model)")
    if not spec.checkpointable:
        raise TypeError(
            f"model {spec.name!r} is registered with checkpointable=False")
    header = {
        "kind": "model",
        "class": type(model).__name__,
        "name": getattr(model, "name", type(model).__name__),
        "seed": getattr(model, "seed", None),
        "model": model.checkpoint_header(),
    }
    arrays = {name: np.asarray(array)
              for name, array in model.checkpoint_arrays().items()}
    return header, arrays


def _upgrade_v1_header(header: Dict[str, Any]) -> Dict[str, Any]:
    """Adapt a format-v1 (DEKG-ILP-only) header to the current shape.

    Version 1 predates the registry: it stored ``num_relations`` and the
    model config at the top level, always for the ``DEKGILP`` class, and did
    not record a seed (that omission is why v2 exists) — the restored model
    carries ``seed=None``.
    """
    return {
        "format_version": _FORMAT_VERSION,
        "class": header.get("class", "DEKGILP"),
        "seed": None,
        "model": {"init": {"num_relations": header["num_relations"],
                           "seed": None,
                           "config": header["config"]}},
    }


def _model_from_archive(header: Dict[str, Any], arrays: Dict[str, np.ndarray],
                        source: str, seed: Optional[int]):
    """Rebuild a model from a verified (header, arrays) pair."""
    kind = header.get("kind", "model")
    if kind != "model":
        raise ValueError(
            f"{source} is a {kind!r} archive, not a model checkpoint")
    if header.get("format_version") == 1:
        header = _upgrade_v1_header(header)
    if header.get("format_version") not in (2, _FORMAT_VERSION):
        raise ValueError(
            f"unsupported checkpoint format version {header.get('format_version')} "
            f"(this build reads versions 1 through {_FORMAT_VERSION})")
    stored_seed = header.get("seed")
    if seed is not None and seed != stored_seed:
        recorded = "no seed" if stored_seed is None else f"seed={stored_seed}"
        raise ValueError(
            f"checkpoint {source} records {recorded} but seed={seed} was "
            f"requested; omit the seed argument to restore with the recorded one")
    from repro.registry import resolve_model_class

    model_class = resolve_model_class(header["class"])
    model = model_class.from_checkpoint(header["model"], arrays)
    if "name" in header:
        model.name = header["name"]
    return model


def save_model(model, path: PathLike) -> Path:
    """Atomically write ``model``'s configuration and parameters to ``path``.

    The write is crash-safe (``tmp + fsync + rename``): a previous checkpoint
    at ``path`` is either fully replaced or left untouched, never torn.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    header, arrays = _model_header_and_arrays(model)
    return write_archive(path, header, arrays)


def load_model(path: PathLike, seed: Optional[int] = None):
    """Rebuild a model from a checkpoint written by :func:`save_model`.

    The restored model uses the seed recorded in the checkpoint; an explicit
    ``seed`` argument must match it (a mismatch raises ``ValueError``).
    Integrity failures raise :class:`CheckpointCorruptionError` naming the
    corrupted section.
    """
    path = Path(path)
    header, arrays = read_archive(path)
    return _model_from_archive(header, arrays, str(path), seed)


def model_to_bytes(model) -> bytes:
    """Serialize ``model`` to an in-memory checkpoint (same format as disk)."""
    header, arrays = _model_header_and_arrays(model)
    return pack_archive(header, arrays)


def model_from_bytes(payload: bytes, seed: Optional[int] = None):
    """Rebuild a model from :func:`model_to_bytes` output."""
    header, arrays = unpack_archive(payload)
    return _model_from_archive(header, arrays, "<bytes>", seed)


# --------------------------------------------------------------------- #
# shared-memory parameter pages (zero-copy scale-out)
# --------------------------------------------------------------------- #
def params_to_shm(model):
    """Lay ``model``'s parameter arrays into one read-only shared page.

    The page manifest records the same per-array dtype/shape/crc32 triple a
    format-v3 checkpoint does, and the checkpoint header rides along as the
    page header — so a :class:`~repro.shm.PageSpec` is a complete,
    integrity-checked replacement for checkpoint bytes.  Returns the
    owner-side :class:`~repro.shm.PageHandle` (``handle.spec`` is what
    crosses the process boundary); the caller owns the segment lifecycle.

    Raises ``TypeError`` for non-checkpointable models, same as
    :func:`model_to_bytes` — callers fall back to the byte path.
    """
    from repro.shm import create_page

    header, arrays = _model_header_and_arrays(model)
    header["format_version"] = _FORMAT_VERSION
    return create_page(arrays, header=header)


def params_from_shm(spec, seed: Optional[int] = None, verify: bool = True):
    """Rebuild a model from a parameter page written by :func:`params_to_shm`.

    Arrays are zero-copy read-only views over the shared segment, adopted
    directly as parameter data via
    :func:`~repro.autodiff.module.shared_parameter_load` — no
    deserialization, no private copy.  With ``verify`` (the default) every
    array's bytes are checked against the manifest crc32 at attach time; a
    mismatch raises :class:`CheckpointCorruptionError` naming the array.

    The attached page is pinned on the returned model (``model._shm_page``)
    so the mapping cannot outlive-invert its views.
    """
    from repro.autodiff.module import shared_parameter_load
    from repro.shm import attach_page

    page = attach_page(spec, verify=verify)
    header = dict(spec.header or {})
    with shared_parameter_load():
        model = _model_from_archive(header, page.arrays, f"shm:{spec.name}", seed)
    model._shm_page = page
    return model
