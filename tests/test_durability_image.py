"""NVImage framing and the two-generation A/B store.

Property tests: machine snapshots for every device technology
round-trip bit-exactly through the on-disk image format, and every
torn/corrupt mutation of a generation is rejected by CRC with the
elder generation restoring.
"""

import numpy as np
import pytest

from repro.durability import image as image_module

from repro.core.accelerator import Mouse
from repro.devices.parameters import MODERN_STT, PROJECTED_SHE, PROJECTED_STT
from repro.isa.instruction import MemoryInstruction
from repro.durability import (
    GENERATIONS,
    IMAGE_SCHEMA,
    ImageCorruptError,
    NoValidImageError,
    NVImageStore,
    decode_image,
    encode_image,
)
from repro.durability.state import capture_machine, restore_machine

TECHNOLOGIES = [
    pytest.param(MODERN_STT, id="modern-stt"),
    pytest.param(PROJECTED_STT, id="projected-stt"),
    pytest.param(PROJECTED_SHE, id="projected-she"),
]


def random_machine(tech, seed):
    """A machine with seeded-random MTJ state, latches, and buffer."""
    rng = np.random.default_rng(seed)
    mouse = Mouse(tech, rows=64, cols=8)
    mouse.load([MemoryInstruction("READ", 0, 0)])
    for tile in mouse.bank.data_tiles:
        tile.state[:] = rng.random(tile.state.shape) < 0.5
        tile.active_columns[:] = rng.random(tile.active_columns.shape) < 0.5
        tile._refresh_active_index()
    mouse.controller.buffer[:] = (
        rng.random(mouse.controller.buffer.shape) < 0.5
    )
    return mouse


class TestFraming:
    def test_round_trip(self):
        payload = {"kind": "probe", "values": [1, 2.5, None, "x"]}
        decoded, seq = decode_image(encode_image(payload, seq=3))
        assert decoded == payload
        assert seq == 3

    def test_header_carries_schema(self):
        frame = encode_image({"a": 1}, seq=1)
        import json

        header_len = int.from_bytes(frame[8:12], "big")
        header = json.loads(frame[12 : 12 + header_len])
        assert header["schema"] == IMAGE_SCHEMA

    def test_seq_starts_at_one(self):
        with pytest.raises(ValueError):
            encode_image({}, seq=0)

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_image({"a": 1}, seq=1))
        frame[0] ^= 0xFF
        with pytest.raises(ImageCorruptError):
            decode_image(bytes(frame))

    @pytest.mark.parametrize("seed", range(8))
    def test_flip_any_byte_rejected(self, seed):
        frame = bytearray(encode_image({"k": list(range(50))}, seq=2))
        rng = np.random.default_rng(seed)
        frame[int(rng.integers(0, len(frame)))] ^= 0xFF
        with pytest.raises(ImageCorruptError):
            decode_image(bytes(frame))

    @pytest.mark.parametrize("seed", range(8))
    def test_truncate_any_tail_rejected(self, seed):
        frame = encode_image({"k": list(range(50))}, seq=2)
        rng = np.random.default_rng(seed)
        cut = int(rng.integers(1, len(frame)))
        with pytest.raises(ImageCorruptError):
            decode_image(frame[:cut])


class TestMachineRoundTrip:
    @pytest.mark.parametrize("tech", TECHNOLOGIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_capture_survives_image_format(self, tech, seed, tmp_path):
        """Snapshot -> NVImage on disk -> restore is bit-exact for every
        technology and random tile state."""
        mouse = random_machine(tech, seed)
        snapshot = capture_machine(mouse)

        store = NVImageStore(tmp_path)
        store.commit({"kind": "test", "machine": snapshot})
        payload, _seq = NVImageStore(tmp_path).load()

        restored = restore_machine(payload["machine"])
        assert restored.params == mouse.params
        for a, b in zip(restored.bank.data_tiles, mouse.bank.data_tiles):
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.active_columns, b.active_columns)
        assert np.array_equal(restored.controller.buffer, mouse.controller.buffer)
        # The re-capture of the restored machine is byte-identical.
        assert capture_machine(restored) == snapshot


class TestStore:
    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(NoValidImageError):
            NVImageStore(tmp_path).load()

    def test_commit_alternates_slots(self, tmp_path):
        store = NVImageStore(tmp_path)
        assert store.commit({"n": 1}) == 1
        assert store.commit({"n": 2}) == 2
        assert store.commit({"n": 3}) == 3
        assert (tmp_path / GENERATIONS[0]).exists()
        assert (tmp_path / GENERATIONS[1]).exists()
        payload, seq = store.load()
        assert (payload, seq) == ({"n": 3}, 3)
        # Seq 2 survives in the other slot.
        elder, elder_seq = decode_image(
            (tmp_path / GENERATIONS[0]).read_bytes()
        )
        assert (elder, elder_seq) == ({"n": 2}, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_corrupt_newest_falls_back_to_elder(self, tmp_path, seed):
        store = NVImageStore(tmp_path)
        store.commit({"n": 1})
        store.commit({"n": 2})
        newest = store.slot_path(2)
        data = bytearray(newest.read_bytes())
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            data[int(rng.integers(0, len(data)))] ^= 0xFF  # bit rot
            newest.write_bytes(bytes(data))
        else:
            newest.write_bytes(bytes(data[: int(rng.integers(1, len(data)))]))

        fresh = NVImageStore(tmp_path)
        payload, seq = fresh.load()
        assert (payload, seq) == ({"n": 1}, 1)
        assert fresh.fallbacks == 1

    def test_both_generations_corrupt_raises(self, tmp_path):
        store = NVImageStore(tmp_path)
        store.commit({"n": 1})
        store.commit({"n": 2})
        for slot in range(2):
            path = store.slot_path(slot)
            path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(NoValidImageError):
            NVImageStore(tmp_path).load()

    def test_commit_after_fallback_reuses_corrupt_slot(self, tmp_path):
        """A new commit lands in the slot *not* holding the valid
        generation — i.e. over the corpse of the torn one."""
        store = NVImageStore(tmp_path)
        store.commit({"n": 1})
        store.commit({"n": 2})
        store.slot_path(2).write_bytes(b"garbage")
        fresh = NVImageStore(tmp_path)
        assert fresh.load() == ({"n": 1}, 1)
        assert fresh.commit({"n": 3}) == 2  # seq restarts after the loss
        assert fresh.load() == ({"n": 3}, 2)
        # The generation that was valid all along is still intact.
        assert decode_image(store.slot_path(1).read_bytes())[0] == {"n": 1}

    def test_torn_temp_files_never_clobber(self, tmp_path):
        """A writer killed mid-temp-write leaves the generations alone;
        the next commit sweeps the leftovers."""
        store = NVImageStore(tmp_path)
        store.commit({"n": 1})

        class Die(BaseException):
            pass

        def hook(written):
            raise Die

        killer = NVImageStore(tmp_path)
        killer._write_hook = hook
        killer._chunk = 4
        with pytest.raises(Die):
            killer.commit({"n": 2})
        assert NVImageStore(tmp_path).load() == ({"n": 1}, 1)
        store.commit({"n": 2})
        assert not list(tmp_path.glob(".nvimage.*.tmp.*"))


class TestCommitSequence:
    """``commit`` remembers the bytes it last wrote or validated in
    each slot and decodes only a slot whose bytes changed; its next
    sequence number and slot must still be a fresh store's."""

    DAMAGE = (
        "truncate",
        "flip-body",
        "flip-header",
        "delete",
        "garbage",
        "replace-same-length",
        "replace-lower-seq",
        "elder-overtakes",
        "both-replaced",
    )

    @staticmethod
    def damage(store, how, seed):
        rng = np.random.default_rng(seed)
        newest = store.slot_path(3)  # seq 3 lives in slot 1
        elder = store.slot_path(2)
        data = bytearray(newest.read_bytes())
        if how == "truncate":
            newest.write_bytes(bytes(data[: int(rng.integers(1, len(data)))]))
        elif how == "flip-body":
            data[len(data) - 1 - int(rng.integers(0, 4))] ^= 0x01
            newest.write_bytes(bytes(data))
        elif how == "flip-header":
            data[int(rng.integers(0, 12))] ^= 0x40
            newest.write_bytes(bytes(data))
        elif how == "delete":
            newest.unlink()
        elif how == "garbage":
            newest.write_bytes(b"not an image")
        elif how == "replace-same-length":
            # Another writer: same payload and length, another seq.
            newest.write_bytes(encode_image({"n": 3}, 7))
        elif how == "replace-lower-seq":
            newest.write_bytes(encode_image({"n": "other"}, 1))
        elif how == "elder-overtakes":
            elder.write_bytes(encode_image({"n": "other"}, 9))
        elif how == "both-replaced":
            newest.write_bytes(encode_image({"n": "a"}, 5))
            elder.write_bytes(encode_image({"n": "b"}, 6))

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("how", DAMAGE)
    def test_next_commit_matches_a_fresh_scan(self, tmp_path, how, seed):
        store = NVImageStore(tmp_path)
        for n in (1, 2, 3):
            assert store.commit({"n": n}) == n
        self.damage(store, how, seed)
        expected = NVImageStore(tmp_path).latest_seq + 1
        assert store.latest_seq + 1 == expected
        seq = store.commit({"n": "next"})
        assert seq == expected
        assert decode_image(store.slot_path(seq).read_bytes()) == (
            {"n": "next"},
            seq,
        )
        assert NVImageStore(tmp_path).load() == ({"n": "next"}, seq)
        # And the commit after that one agrees with a fresh scan too.
        assert store.commit({"n": "after"}) == seq + 1
        assert NVImageStore(tmp_path).load() == ({"n": "after"}, seq + 1)

    def test_unchanged_slots_are_not_decoded(self, tmp_path, monkeypatch):
        decoded = []
        real = image_module.decode_image

        def spy(data):
            decoded.append(len(data))
            return real(data)

        monkeypatch.setattr(image_module, "decode_image", spy)
        store = NVImageStore(tmp_path)
        for n in range(1, 6):
            assert store.commit({"n": n}) == n
        assert decoded == []
        # A slot another writer changed is decoded once, then known.
        store.slot_path(0).write_bytes(encode_image({"n": "x"}, 8))
        assert store.commit({"n": 6}) == 9
        assert len(decoded) == 1
        assert store.commit({"n": 7}) == 10
        assert len(decoded) == 1

    def test_a_non_object_payload_is_refused(self, tmp_path):
        """Only a JSON object decodes as a payload, so neither
        ``encode_image`` nor ``commit`` frames anything else: every
        image a store writes decodes to the sequence number it
        remembers."""
        store = NVImageStore(tmp_path)
        store.commit({"n": 1})
        with pytest.raises(ImageCorruptError, match="JSON object"):
            encode_image(["not", "an", "object"], 2)
        with pytest.raises(ImageCorruptError, match="JSON object"):
            store.commit(["not", "an", "object"])
        assert not store.slot_path(2).exists()
        assert not list(tmp_path.glob(".nvimage.*.tmp.*"))
        assert store.commit({"n": 2}) == 2
        assert NVImageStore(tmp_path).load() == ({"n": 2}, 2)
