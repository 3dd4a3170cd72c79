"""Model persistence round trips, and the readers against malformed
artifacts: named cases and a seeded fuzzer."""

from pathlib import Path

import numpy as np
import pytest

from repro.ml.bnn import BNN, FINN_MNIST, BNNConfig
from repro.ml.datasets import binarize, synthetic_adult, synthetic_mnist
from repro.ml.io import ArtifactError, load_bnn, load_svm, save_bnn, save_svm
from repro.ml.svm import OneVsRestSVM, PolyKernel, PolySVM


class TestSvmPersistence:
    def trained(self):
        ds = synthetic_adult(150, 50)
        model = OneVsRestSVM(2, c=1.0, max_iter=30)
        model.fit(ds.x_train.astype(float), ds.y_train)
        return ds, model

    def test_round_trip_predictions_identical(self, tmp_path):
        ds, model = self.trained()
        path = tmp_path / "svm.npz"
        save_svm(path, model)
        loaded = load_svm(path)
        x = ds.x_test.astype(float)
        assert np.array_equal(model.predict(x), loaded.predict(x))
        assert np.allclose(model.decision_matrix(x), loaded.decision_matrix(x))

    def test_integer_pipeline_survives(self, tmp_path):
        ds, model = self.trained()
        path = tmp_path / "svm.npz"
        save_svm(path, model)
        loaded = load_svm(path)
        assert np.array_equal(
            model.predict_int(ds.x_test), loaded.predict_int(ds.x_test)
        )

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_svm(tmp_path / "x.npz", OneVsRestSVM(3))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, format=np.array(["bnn"]))
        with pytest.raises(ValueError):
            load_svm(path)


class TestBnnPersistence:
    def test_round_trip_predictions_identical(self, tmp_path):
        ds = synthetic_mnist(150, 60)
        model = BNN(FINN_MNIST.scaled(0.03125), seed=0)
        model.fit(binarize(ds.x_train), ds.y_train, epochs=3)
        path = tmp_path / "bnn.npz"
        save_bnn(path, model)
        loaded = load_bnn(path)
        x = binarize(ds.x_test)
        assert np.array_equal(model.predict(x), loaded.predict(x))
        assert np.array_equal(model.predict_int(x), loaded.predict_int(x))
        assert loaded.config.hidden_sizes == model.config.hidden_sizes

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, format=np.array(["ovr-svm"]))
        with pytest.raises(ValueError):
            load_bnn(path)


# ----------------------------------------------------------------------
# Malformed artifacts
# ----------------------------------------------------------------------

#: Seeded reader fuzzing: FUZZ_SEEDS seeds per model kind, each drawing
#: FUZZ_CASES mutated copies of a small artifact (see :func:`_mutated`).
FUZZ_SEEDS = 6
FUZZ_CASES = 48
#: The dtypes an array is retyped to.
RETYPES = (np.float32, np.int64, np.int8, np.bool_, np.complex128, "<U4", "S4")


def _small_svm() -> OneVsRestSVM:
    """A three-class SVM of 2, 3 and 1 support vectors over 4 features."""
    rng = np.random.default_rng(0)
    model = OneVsRestSVM(3)
    for n_support in (2, 3, 1):
        machine = PolySVM()
        machine.support_vectors_ = rng.random((n_support, 4)) * 8.0
        machine.dual_coef_ = rng.standard_normal(n_support)
        machine.bias_ = float(rng.standard_normal())
        machine.kernel_ = PolyKernel(2, 0.25, 1.0)
        model.machines.append(machine)
    return model


def _small_bnn() -> BNN:
    config = BNNConfig(
        "tiny", input_size=6, hidden_sizes=(4,), n_classes=3, input_bits=1,
        output_bits=4,
    )
    return BNN(config, seed=0)


KINDS = {
    "svm": (_small_svm, save_svm, load_svm),
    "bnn": (_small_bnn, save_bnn, load_bnn),
}


def _arrays(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def _saved(tmp_path, kind: str, **changes) -> Path:
    """A small ``kind`` artifact with ``changes`` applied to its arrays
    (None deletes one)."""
    make, save, _ = KINDS[kind]
    path = tmp_path / f"{kind}.npz"
    save(path, make())
    arrays = _arrays(path)
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    np.savez_compressed(path, **arrays)
    return path


class TestMalformedArtifacts:
    @pytest.mark.parametrize(
        "kind, changes, field",
        [
            ("svm", {"bias_1": None}, "bias_1"),
            ("svm", {"format": np.array([], dtype="<U7")}, "format"),
            ("svm", {"sv_0": np.zeros((3, 4))}, "coef_0"),
            ("svm", {"bias_0": np.array([np.nan])}, "bias_0"),
            ("svm", {"sv_2": np.zeros((1, 5))}, "sv_2"),
            ("svm", {"kernel_1": np.array([2.5, 0.25, 1.0])}, "kernel_1"),
            ("svm", {"n_classes": np.array([2])}, "bias_2"),
            ("svm", {"extra": np.zeros(1)}, "extra"),
            ("bnn", {"latent_0": np.zeros((4, 6))}, "latent_0"),
            ("bnn", {"bias_1": np.zeros(4)}, "bias_1"),
            ("bnn", {"hidden_sizes": np.array([0])}, "hidden_sizes"),
            ("bnn", {"input_size": None}, "input_size"),
        ],
    )
    def test_rejected_with_the_field_named(self, tmp_path, kind, changes, field):
        path = _saved(tmp_path, kind, **changes)
        with pytest.raises(ArtifactError, match=repr(field)):
            KINDS[kind][2](path)

    def test_a_file_that_is_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(ArtifactError):
            load_svm(path)
        np.save(path, np.zeros(3))  # one array, not an archive
        with pytest.raises(ArtifactError):
            load_bnn(path)

    def test_a_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bnn(tmp_path / "absent.npz")

    def test_the_small_artifacts_round_trip(self, tmp_path):
        for kind, (make, save, load) in KINDS.items():
            path = _saved(tmp_path, kind)
            again = tmp_path / f"again-{kind}.npz"
            save(again, load(path))
            _assert_same_arrays(_arrays(again), _arrays(path))


def _mutated(rng, arrays: dict, path: Path) -> None:
    """Write to ``path`` a copy of the artifact ``arrays`` with one
    array deleted, retyped, reshaped, truncated or given a NaN, infinity
    or out-of-range value, or with 1-4 bits of the saved file flipped."""
    arrays = dict(arrays)
    name = str(rng.choice(sorted(arrays)))
    arr = arrays[name]
    kind = int(rng.integers(6))
    if kind == 0:
        del arrays[name]
    elif kind == 1:
        dtype = RETYPES[int(rng.integers(len(RETYPES)))]
        try:
            arrays[name] = arr.astype(dtype)
        except ValueError:  # text to numbers
            arrays[name] = np.zeros(arr.shape, dtype=dtype)
    elif kind == 2:
        arrays[name] = arr.reshape(-1) if arr.ndim > 1 else arr.reshape(1, -1)
    elif kind == 3:
        arrays[name] = arr[: int(rng.integers(len(arr)))]
    elif kind == 4:
        arr = arr.copy()
        i = int(rng.integers(arr.size))
        if arr.dtype.kind == "f":
            arr.flat[i] = rng.choice([np.nan, np.inf, -np.inf, 0.5])
        elif arr.dtype.kind in "iu":
            arr.flat[i] = rng.choice([-1, 0, 1, 2, 7])
        else:
            arr.flat[i] = ""
        arrays[name] = arr
    np.savez_compressed(path, **arrays)
    if kind == 5:
        data = bytearray(path.read_bytes())
        for _ in range(int(rng.integers(1, 5))):
            data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        path.write_bytes(bytes(data))


def _assert_same_arrays(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for name, arr in want.items():
        assert got[name].shape == arr.shape, name
        assert np.array_equal(got[name], arr), name


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("seed", range(FUZZ_SEEDS))
def test_fuzzed_artifacts_load_exactly_or_raise_artifact_error(kind, seed, tmp_path):
    """Each mutated artifact either raises :class:`ArtifactError` (a
    ValueError) or loads to a model that predicts and whose re-save
    holds the mutated file's arrays; both outcomes occur."""
    make, save, load = KINDS[kind]
    base = tmp_path / "base.npz"
    save(base, make())
    arrays = _arrays(base)
    rng = np.random.default_rng([seed, len(kind)])
    path, again = tmp_path / "fuzzed.npz", tmp_path / "again.npz"
    outcomes = set()
    for _ in range(FUZZ_CASES):
        _mutated(rng, arrays, path)
        try:
            model = load(path)
        except ArtifactError:
            outcomes.add("rejected")
            continue
        x = rng.integers(0, 2, (2, 6 if kind == "bnn" else 4))
        model.predict(x)
        save(again, model)
        _assert_same_arrays(_arrays(again), _arrays(path))
        outcomes.add("loaded")
    assert outcomes == {"rejected", "loaded"}
