"""Tests for model checkpointing."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import DEKGILP
from repro.core.persistence import (Checkpointable, CheckpointCorruptionError,
                                    _array_checksum, _pack_raw, load_model,
                                    model_from_bytes, model_to_bytes,
                                    pack_archive, read_archive, save_model,
                                    unpack_archive)
from repro.core.trainer import Trainer
from repro.experiment import train_model
from repro.kg.triple import Triple
from repro.registry import model_names


@pytest.fixture
def trained_model(tiny_graph):
    config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
    training = TrainingConfig(epochs=1, batch_size=4, contrastive_examples=1, seed=0)
    model = DEKGILP(3, config=config, seed=0)
    Trainer(model, tiny_graph, training).fit()
    return model


class TestPersistence:
    def test_roundtrip_preserves_parameters(self, trained_model, tmp_path):
        path = save_model(trained_model, tmp_path / "model.npz")
        restored = load_model(path)
        original_state = trained_model.state_dict()
        restored_state = restored.state_dict()
        assert set(original_state) == set(restored_state)
        for name, value in original_state.items():
            np.testing.assert_array_equal(value, restored_state[name])

    def test_roundtrip_preserves_scores(self, trained_model, tiny_graph, tmp_path):
        path = save_model(trained_model, tmp_path / "model")
        restored = load_model(path)
        trained_model.set_context(tiny_graph)
        restored.set_context(tiny_graph)
        trained_model.eval()
        for triple in (Triple(0, 0, 1), Triple(0, 1, 2), Triple(3, 0, 4)):
            assert restored.score(triple) == pytest.approx(trained_model.score(triple))

    def test_suffix_added_automatically(self, trained_model, tmp_path):
        path = save_model(trained_model, tmp_path / "checkpoint")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_config_restored(self, trained_model, tmp_path):
        path = save_model(trained_model, tmp_path / "model.npz")
        restored = load_model(path)
        assert restored.config == trained_model.config
        assert restored.num_relations == trained_model.num_relations

    def test_ablation_variant_roundtrip(self, tiny_graph, tmp_path):
        config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, use_semantic=False,
                             edge_dropout=0.0)
        model = DEKGILP(3, config=config, seed=0)
        restored = load_model(save_model(model, tmp_path / "variant.npz"))
        assert restored.clrm is None
        assert restored.gsm is not None

    def test_invalid_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, weights=np.ones(3))
        with pytest.raises(ValueError):
            load_model(bogus)

    def test_loaded_model_is_in_eval_mode(self, trained_model, tmp_path):
        restored = load_model(save_model(trained_model, tmp_path / "model.npz"))
        assert not restored.training


class TestLegacyFormatV1:
    """Checkpoints written before the registry (format v1) still restore."""

    def _write_v1(self, model, path):
        import dataclasses
        import json

        header = {
            "format_version": 1,
            "num_relations": model.num_relations,
            "config": dataclasses.asdict(model.config),
            "class": "DEKGILP",
        }
        arrays = dict(model.state_dict())
        arrays["__header__"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)
        return path

    def test_v1_checkpoint_restores_scores(self, trained_model, tiny_graph, tmp_path):
        path = self._write_v1(trained_model, tmp_path / "legacy.npz")
        restored = load_model(path)
        assert restored.seed is None  # v1 never recorded a seed
        trained_model.eval()
        trained_model.set_context(tiny_graph)
        restored.set_context(tiny_graph)
        triples = [Triple(0, 0, 1), Triple(3, 0, 4)]
        np.testing.assert_array_equal(trained_model.score_many(triples),
                                      restored.score_many(triples))

    def test_v1_checkpoint_rejects_explicit_seed(self, trained_model, tmp_path):
        path = self._write_v1(trained_model, tmp_path / "legacy.npz")
        with pytest.raises(ValueError, match="no seed"):
            load_model(path, seed=0)


class TestRetiredConfigFields:
    """DEKG-ILP checkpoints written while ``ModelConfig`` still carried the
    cache-policy, snapshot-count, per-pair-extraction and array-backend
    switches restore and score bit-identically, whatever values those fields
    hold."""

    @pytest.mark.parametrize("policy, snapshots, batched", [
        ("corruption_aware", 1, True),
        ("lru", 4, False),
        ("adaptive", 0, "yes"),
    ])
    def test_checkpoint_with_retired_fields_restores_scores(
            self, trained_model, tiny_graph, tmp_path, policy, snapshots, batched):
        header, arrays = read_archive(save_model(trained_model, tmp_path / "model.npz"))
        header["model"]["init"]["config"].update(
            subgraph_cache_policy=policy, subgraph_cache_snapshots=snapshots,
            batched_extraction=batched)
        (tmp_path / "old.npz").write_bytes(pack_archive(header, arrays))
        restored = load_model(tmp_path / "old.npz")
        assert restored.config == trained_model.config
        trained_model.eval()
        trained_model.set_context(tiny_graph)
        restored.set_context(tiny_graph)
        triples = [Triple(0, 0, 1), Triple(0, 1, 2), Triple(3, 0, 4)]
        np.testing.assert_array_equal(trained_model.score_many(triples),
                                      restored.score_many(triples))

    @pytest.mark.parametrize("config_backend, header_backend", [
        (None, "numpy"),
        ("numpy", "numpy"),
        ("tracing", "tracing"),
    ])
    def test_checkpoint_with_a_backend_restores_scores(
            self, trained_model, tiny_graph, tmp_path, config_backend, header_backend):
        """Checkpoints once stamped the array backend into their header and
        carried ``ModelConfig.backend``; ``numpy`` and ``tracing`` computed
        the same bits."""
        header, arrays = read_archive(save_model(trained_model, tmp_path / "model.npz"))
        assert "backend" not in header
        header["backend"] = header_backend
        header["model"]["init"]["config"]["backend"] = config_backend
        (tmp_path / "old.npz").write_bytes(pack_archive(header, arrays))
        restored = load_model(tmp_path / "old.npz")
        assert restored.config == trained_model.config
        trained_model.eval()
        trained_model.set_context(tiny_graph)
        restored.set_context(tiny_graph)
        triples = [Triple(0, 0, 1), Triple(0, 1, 2), Triple(3, 0, 4)]
        np.testing.assert_array_equal(trained_model.score_many(triples),
                                      restored.score_many(triples))

    @pytest.mark.parametrize("field", ["subgraph_cache_policy",
                                       "subgraph_cache_snapshots",
                                       "batched_extraction"])
    def test_config_json_setting_a_retired_field_is_rejected(self, field):
        from repro.experiment import ExperimentConfig

        config = {"model": {"name": "DEKG-ILP", "overrides": {field: 1}}}
        with pytest.raises(ValueError, match=f"unknown key 'model.overrides.{field}'"):
            ExperimentConfig.from_dict(config)


class TestSeedPersistence:
    """The checkpoint records the construction seed; restore reuses it."""

    def test_seed_restored_without_argument(self, trained_model, tmp_path):
        path = save_model(trained_model, tmp_path / "model.npz")
        assert load_model(path).seed == trained_model.seed == 0

    def test_matching_explicit_seed_accepted(self, trained_model, tmp_path):
        path = save_model(trained_model, tmp_path / "model.npz")
        assert load_model(path, seed=0).seed == 0

    def test_mismatched_explicit_seed_rejected(self, trained_model, tmp_path):
        path = save_model(trained_model, tmp_path / "model.npz")
        with pytest.raises(ValueError, match="seed=0"):
            load_model(path, seed=123)

    def test_seedless_model_rejects_explicit_seed(self, small_benchmark):
        model = train_model("RuleN", small_benchmark, epochs=1)
        payload = model_to_bytes(model)
        with pytest.raises(ValueError, match="no seed"):
            model_from_bytes(payload, seed=7)
        assert model_from_bytes(payload).num_rules() == model.num_rules()


class TestEveryRegisteredModelRoundTrips:
    """Score parity on a fixed triple set after save → load, for all models."""

    @pytest.fixture(scope="class")
    def checkpoint_benchmark(self):
        from repro.datasets.benchmark import build_benchmark

        return build_benchmark("fb15k-237", "EQ", seed=1, scale=0.2)

    @pytest.mark.parametrize("name", model_names())
    def test_checkpoint_score_parity(self, name, checkpoint_benchmark, tmp_path):
        dataset = checkpoint_benchmark
        model = train_model(name, dataset, epochs=1, embedding_dim=8, seed=0)
        assert isinstance(model, Checkpointable)
        if hasattr(model, "eval"):
            model.eval()
        restored = load_model(save_model(model, tmp_path / f"{name}.npz"))
        assert restored.name == name
        context = dataset.split.evaluation_graph()
        model.set_context(context)
        restored.set_context(context)
        probe = dataset.test_triples[:5]
        np.testing.assert_array_equal(model.score_many(probe),
                                      restored.score_many(probe))

    @pytest.mark.parametrize("name", ["DEKG-ILP", "TransE"])
    def test_bytes_roundtrip_matches_disk(self, name, checkpoint_benchmark):
        dataset = checkpoint_benchmark
        model = train_model(name, dataset, epochs=1, embedding_dim=8, seed=0)
        model.eval()
        restored = model_from_bytes(model_to_bytes(model))
        context = dataset.split.evaluation_graph()
        model.set_context(context)
        restored.set_context(context)
        probe = dataset.test_triples[:5]
        np.testing.assert_array_equal(model.score_many(probe),
                                      restored.score_many(probe))


class TestCorruptionMatrix:
    """Every way an archive can rot must surface as a sectioned error."""

    @staticmethod
    def _archive():
        header = {"kind": "model", "note": "corruption-matrix probe"}
        arrays = {"w": np.arange(12, dtype=np.float64).reshape(3, 4),
                  "b": np.ones(4, dtype=np.float32)}
        return header, arrays

    def test_truncated_file(self):
        header, arrays = self._archive()
        payload = pack_archive(header, arrays)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            unpack_archive(payload[: len(payload) // 3])
        assert excinfo.value.section == "file"

    def test_missing_header(self):
        buffer = io.BytesIO()
        np.savez(buffer, w=np.zeros(3))  # an npz, but not one of ours
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            unpack_archive(buffer.getvalue())
        assert excinfo.value.section == "header"
        assert "missing header" in str(excinfo.value)

    def test_header_not_json(self):
        buffer = io.BytesIO()
        np.savez(buffer, __header__=np.frombuffer(b"{not json", dtype=np.uint8),
                 w=np.zeros(3))
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            unpack_archive(buffer.getvalue())
        assert excinfo.value.section == "header"

    def test_bit_flipped_array_payload(self):
        header, arrays = self._archive()
        payload = pack_archive(header, arrays)
        # np.savez stores members uncompressed, so the array's bytes appear
        # literally in the container; flip one bit in the middle of "w".
        needle = np.ascontiguousarray(arrays["w"]).tobytes()
        offset = payload.index(needle) + len(needle) // 2
        tampered = bytearray(payload)
        tampered[offset] ^= 0x01
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            unpack_archive(bytes(tampered))
        assert excinfo.value.section == "w"

    def test_checksum_mismatch(self):
        header, arrays = self._archive()
        stamped = json.loads(
            json.dumps({**header, "format_version": 3,
                        "checksums": {name: _array_checksum(array)
                                      for name, array in arrays.items()}}))
        stamped["checksums"]["b"]["crc32"] ^= 0xDEADBEEF
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            unpack_archive(_pack_raw(stamped, arrays))
        assert excinfo.value.section == "b"
        assert "crc32 mismatch" in str(excinfo.value)

    def test_uncovered_array_rejected(self):
        header, arrays = self._archive()
        checksums = {"w": _array_checksum(arrays["w"])}  # "b" not covered
        raw = _pack_raw({**header, "format_version": 3, "checksums": checksums},
                        arrays)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            unpack_archive(raw)
        assert excinfo.value.section == "b"

    def test_missing_checksummed_array_rejected(self):
        header, arrays = self._archive()
        checksums = {name: _array_checksum(array) for name, array in arrays.items()}
        del arrays["b"]  # checksummed but absent
        raw = _pack_raw({**header, "format_version": 3, "checksums": checksums},
                        arrays)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            unpack_archive(raw)
        assert excinfo.value.section == "b"

    def test_corruption_error_names_path(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"definitely not an npz archive")
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_archive(path)
        assert excinfo.value.section == "file"
        assert str(path) in str(excinfo.value)

    def test_corruption_error_is_a_value_error(self):
        # Callers that predate v3 catch ValueError; corruption must still
        # land in those handlers.
        assert issubclass(CheckpointCorruptionError, ValueError)

    def test_v2_archive_without_checksums_roundtrips(self, trained_model, tmp_path):
        """A pre-v3 checkpoint (no checksums header) still loads bit-exact."""
        path = save_model(trained_model, tmp_path / "model.npz")
        header, arrays = read_archive(path)
        assert header["format_version"] == 3 and "checksums" in header
        v2_header = {key: value for key, value in header.items()
                     if key != "checksums"}
        v2_header["format_version"] = 2
        (tmp_path / "v2.npz").write_bytes(_pack_raw(v2_header, arrays))
        restored = load_model(tmp_path / "v2.npz")
        for name, value in trained_model.state_dict().items():
            np.testing.assert_array_equal(value, restored.state_dict()[name])

    def test_bit_flipped_model_checkpoint_rejected_by_load(self, trained_model,
                                                           tmp_path):
        path = save_model(trained_model, tmp_path / "model.npz")
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointCorruptionError):
            load_model(path)
