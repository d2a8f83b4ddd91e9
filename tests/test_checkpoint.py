"""Checkpoint binary format: exact round trips and distinct failure modes."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pndnet.checkpoint import (MAGIC, VERSION, ModelCheckpoint, checkpoint_bytes,
                               checkpoint_from_bytes, checkpoint_from_model,
                               load_checkpoint, model_from_checkpoint,
                               save_checkpoint)
from pndnet.errors import (CheckpointError, CheckpointMagicError,
                           CheckpointTruncatedError, CheckpointVersionError)
from pndnet.model import PNDNet
from pndnet.tensor import Rng
from pndnet.train import TrainConfig

from conftest import tiny_model_config


def small_checkpoint() -> ModelCheckpoint:
    rng = Rng(0)
    return ModelCheckpoint(
        raw_config="alpha=1\nbeta=two\n",
        tensors={"w": rng.uniform(-1, 1, (3, 4)).astype(np.float32),
                 "b": rng.uniform(-1, 1, 4).astype(np.float32)})


def model_checkpoint(seed=5):
    cfg = tiny_model_config()
    train_cfg = TrainConfig(seed=seed)
    model = PNDNet(cfg, 4, Rng(seed).child("init"))
    return model, checkpoint_from_model(model, cfg, train_cfg, ["a", "b", "c", "d"],
                                        np.array([1.0, 2.0, 3.0]))


def with_config_value(ckpt: ModelCheckpoint, key: str, value: str) -> ModelCheckpoint:
    """``ckpt`` with the config line of ``key`` set to ``value``."""
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in ckpt.raw_config.splitlines()]
    return ModelCheckpoint("\n".join(lines) + "\n", ckpt.tensors)


def one_tensor_file(extents, name: str = "w", payload: int = 8) -> bytes:
    """A checkpoint file, empty config, whose one tensor's header declares
    ``extents``, followed by ``payload`` zero bytes."""
    encoded = name.encode("utf-8")
    return (MAGIC + struct.pack("<III", VERSION, 0, 1) + struct.pack("<I", len(encoded)) + encoded
            + struct.pack(f"<I{len(extents)}IB", len(extents), *extents, 0) + bytes(payload))


class TestFormat:
    def test_layout_starts_with_magic_and_version(self):
        data = checkpoint_bytes(small_checkpoint())
        assert data[:4] == MAGIC == b"PNDW"
        assert struct.unpack("<I", data[4:8])[0] == VERSION == 1

    def test_save_load_save_byte_identical(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_checkpoint(), path)
        first = path.read_bytes()
        save_checkpoint(load_checkpoint(path), path)
        assert path.read_bytes() == first

    def test_tensor_and_config_round_trip(self):
        ckpt = small_checkpoint()
        again = checkpoint_from_bytes(checkpoint_bytes(ckpt))
        assert again.raw_config == ckpt.raw_config
        assert set(again.tensors) == set(ckpt.tensors)
        for name in ckpt.tensors:
            np.testing.assert_array_equal(again.tensors[name], ckpt.tensors[name])
            assert again.tensors[name].dtype == np.float32

    def test_truncation_is_reported_not_crash(self):
        data = checkpoint_bytes(small_checkpoint())
        for cut in (2, 6, 10, len(data) // 2, len(data) - 3):
            with pytest.raises((CheckpointTruncatedError, CheckpointMagicError)):
                checkpoint_from_bytes(data[:cut])

    def test_bad_magic(self):
        data = b"XXXX" + checkpoint_bytes(small_checkpoint())[4:]
        with pytest.raises(CheckpointMagicError):
            checkpoint_from_bytes(data)

    def test_version_mismatch(self):
        data = bytearray(checkpoint_bytes(small_checkpoint()))
        data[4:8] = struct.pack("<I", 9)
        with pytest.raises(CheckpointVersionError):
            checkpoint_from_bytes(bytes(data))

    def test_trailing_garbage(self):
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint_from_bytes(checkpoint_bytes(small_checkpoint()) + b"junk")

    def test_unknown_dtype_tag(self):
        ckpt = ModelCheckpoint(raw_config="", tensors={"w": np.zeros(2, dtype=np.float32)})
        data = bytearray(checkpoint_bytes(ckpt))
        # dtype tag sits right before the 8 payload bytes
        data[-9] = 7
        with pytest.raises(CheckpointError, match="dtype"):
            checkpoint_from_bytes(bytes(data))

    @pytest.mark.parametrize("field", ["config block", "name of tensor 0"])
    def test_invalid_utf8_names_the_field(self, field):
        ckpt = ModelCheckpoint(raw_config="seed=1\n", tensors={"w": np.zeros(2, dtype=np.float32)})
        good = "seed=1\n" if field == "config block" else "w"
        data = checkpoint_bytes(ckpt).replace(good.encode(), b"\xff" * len(good), 1)
        with pytest.raises(CheckpointError, match=f"{field} is not valid UTF-8"):
            checkpoint_from_bytes(data)

    @pytest.mark.parametrize("extents", [(65536,) * 4, (2 ** 32 - 1, 2 ** 32 - 1, 3)])
    def test_oversized_extents_are_truncation(self, extents):
        # element counts past int64: 65536^4 once wrapped to 0, and both
        # escaped as a ValueError from reshape
        with pytest.raises(CheckpointTruncatedError, match=r"tensor 'w' of shape \("):
            checkpoint_from_bytes(one_tensor_file(extents))

    def test_empty_tensor_beyond_numpy_size_limit_rejected(self):
        # zero elements, but numpy refuses the shape: found by the property below
        with pytest.raises(CheckpointError, match="tensor 'w' of shape .* larger than numpy allows"):
            checkpoint_from_bytes(one_tensor_file((0, 2 ** 31, 2 ** 31), payload=0))

    def test_rank_above_numpy_limit_rejected(self):
        with pytest.raises(CheckpointError, match="tensor 'w' has rank 65"):
            checkpoint_from_bytes(one_tensor_file((1,) * 65))

    def test_rank_at_numpy_limit_loads(self):
        assert checkpoint_from_bytes(one_tensor_file((1,) * 64, payload=4)).tensors["w"].shape == (1,) * 64

    @settings(max_examples=300, deadline=None)
    @given(extents=st.lists(st.sampled_from((0, 1, 2, 3, 2 ** 16, 2 ** 31, 2 ** 32 - 1)) | st.integers(0, 2 ** 32 - 1),
                            max_size=70),
           payload=st.integers(0, 64))
    def test_crafted_headers_load_exactly_or_raise_checkpoint_errors(self, extents, payload):
        data = one_tensor_file(extents, payload=payload)
        try:
            ckpt = checkpoint_from_bytes(data)
        except CheckpointError:
            return
        assert ckpt.tensors["w"].shape == tuple(extents) and 4 * ckpt.tensors["w"].size == payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")


class TestModelBridge:
    def test_predictions_identical_after_round_trip(self, tmp_path):
        model, ckpt = model_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded_model, extras = model_from_checkpoint(load_checkpoint(path))
        rng = Rng(1)
        for _ in range(10):
            img = rng.uniform(-80, 80, (32, 32, 3)).astype(np.float32)
            a = model.predict_probabilities(img)
            b = loaded_model.predict_probabilities(img)
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(extras["channel_means"], [1.0, 2.0, 3.0])
        assert extras["class_names"] == ["a", "b", "c", "d"]

    def test_config_recorded(self):
        _, ckpt = model_checkpoint(seed=9)
        cfg = ckpt.config
        assert cfg["rng_algorithm"] == "pcg64"
        assert cfg["seed"] == "9" and ckpt.seed == 9
        assert cfg["n_classes"] == "4"
        assert cfg["spp_levels"] == "2,3"

    def test_tensor_name_mismatch_rejected(self):
        _, ckpt = model_checkpoint()
        ckpt.tensors["bogus"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(CheckpointError, match="bogus"):
            model_from_checkpoint(ckpt)

    def test_tensor_shape_mismatch_rejected(self):
        _, ckpt = model_checkpoint()
        name = next(iter(ckpt.tensors))
        ckpt.tensors[name] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(CheckpointError, match="shape"):
            model_from_checkpoint(ckpt)

    def test_missing_metadata_rejected(self):
        ckpt = ModelCheckpoint(raw_config="seed=1\n", tensors={})
        with pytest.raises(CheckpointError, match="n_classes"):
            model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("key,value", [("n_classes", "four"), ("n_classes", "2.5"),
                                           ("channel_means", "1.0,abc,3.0"),
                                           ("channel_means", "1.0,2.0"),
                                           ("channel_means", "1.0,2.0,3.0,4.0"),
                                           ("channel_means", "nan,nan,nan"),
                                           ("channel_means", "0.5,inf,0.5"),
                                           ("channel_means", "0.5,0.5,-inf"),
                                           ("class_names", "a,b,c"),
                                           ("class_names", "a,b,c,d,e")])
    def test_malformed_metadata_names_the_key(self, key, value):
        _, ckpt = model_checkpoint()
        with pytest.raises(CheckpointError, match=key):
            model_from_checkpoint(with_config_value(ckpt, key, value))

    def test_unserializable_class_name_rejected(self):
        cfg = tiny_model_config()
        model = PNDNet(cfg, 4, Rng(0).child("init"))
        with pytest.raises(CheckpointError, match="class name"):
            checkpoint_from_model(model, cfg, TrainConfig(), ["a", "b,c", "d", "e"],
                                  np.zeros(3))
