"""Model persistence.

Trained models are produced offline and written into MOUSE before
deployment (Section IV-B: "The instructions are written into these
tiles before deployment") — so a deployment flow needs durable model
artifacts.  NumPy ``.npz`` files hold everything needed to rebuild the
inference pipeline: support vectors / dual coefficients / kernel
parameters for SVMs, latent weights and biases for BNNs.  The readers
accept what the writers write and raise :class:`ArtifactError`, naming
the array, for anything else.
"""

from __future__ import annotations

import io
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.ml.bnn import BNN, BNNConfig
from repro.ml.svm import OneVsRestSVM, PolyKernel, PolySVM


class ArtifactError(ValueError):
    """A file :func:`load_svm` or :func:`load_bnn` cannot rebuild a
    model from; the message names the array at fault."""


def save_svm(path: str | Path, model: OneVsRestSVM) -> None:
    """Persist a trained one-vs-rest SVM."""
    if not model.machines:
        raise ValueError("model is not fitted")
    payload: dict[str, np.ndarray] = {
        "format": np.array(["ovr-svm"]),
        "n_classes": np.array([model.n_classes]),
    }
    for index, machine in enumerate(model.machines):
        if machine.kernel_ is None:
            raise ValueError(f"classifier {index} is not fitted")
        payload[f"sv_{index}"] = machine.support_vectors_
        payload[f"coef_{index}"] = machine.dual_coef_
        payload[f"bias_{index}"] = np.array([machine.bias_])
        payload[f"kernel_{index}"] = np.array(
            [machine.kernel_.degree, machine.kernel_.gamma, machine.kernel_.coef0]
        )
    np.savez_compressed(path, **payload)


def load_svm(path: str | Path) -> OneVsRestSVM:
    """Rebuild a one-vs-rest SVM saved by :func:`save_svm`.

    Raises :class:`ArtifactError`, naming the array, for a file that
    is not such an artifact: unreadable, or an array missing,
    unexpected, of the wrong kind or shape, non-finite, or
    inconsistent with another (support vectors without one dual
    coefficient each, machines over different feature counts, a
    kernel whose degree is not a whole number >= 1 or whose gamma is
    not positive)."""
    arrays = _read(path)
    _check_format(arrays, "ovr-svm")
    n_classes = _count(arrays, "n_classes", 2)
    model = OneVsRestSVM(n_classes)
    for index in range(n_classes):
        sv = _array(arrays, f"sv_{index}", "f", 2)
        coef = _array(arrays, f"coef_{index}", "f", 1)
        if len(coef) != len(sv):
            raise ArtifactError(
                f"array 'coef_{index}' holds {len(coef)} coefficients for "
                f"{len(sv)} support vectors"
            )
        if model.machines:
            features = model.machines[0].support_vectors_.shape[1]
            if sv.shape[1] != features:
                raise ArtifactError(
                    f"array 'sv_{index}' has {sv.shape[1]} features, "
                    f"'sv_0' {features}"
                )
        kernel = _array(arrays, f"kernel_{index}", "f", 1, size=3)
        degree, gamma, coef0 = kernel.tolist()
        if degree < 1 or degree != int(degree) or gamma <= 0:
            raise ArtifactError(
                f"array 'kernel_{index}' holds degree {degree} and gamma "
                f"{gamma}, want a whole degree >= 1 and a positive gamma"
            )
        machine = PolySVM()
        machine.support_vectors_ = sv
        machine.dual_coef_ = coef
        machine.bias_ = float(_array(arrays, f"bias_{index}", "f", 1, size=1)[0])
        machine.kernel_ = PolyKernel(degree=int(degree), gamma=gamma, coef0=coef0)
        model.machines.append(machine)
    _check_names(
        arrays, ("format", "n_classes"), ("sv", "coef", "bias", "kernel"), n_classes
    )
    return model


def save_bnn(path: str | Path, model: BNN) -> None:
    """Persist a trained BNN (latent weights, biases, topology)."""
    config = model.config
    payload: dict[str, np.ndarray] = {
        "format": np.array(["bnn"]),
        "name": np.array([config.name]),
        "input_size": np.array([config.input_size]),
        "hidden_sizes": np.array(config.hidden_sizes),
        "n_classes": np.array([config.n_classes]),
        "input_bits": np.array([config.input_bits]),
        "output_bits": np.array([config.output_bits]),
    }
    for index, (latent, bias) in enumerate(zip(model.latent, model.bias)):
        payload[f"latent_{index}"] = latent
        payload[f"bias_{index}"] = bias
    np.savez_compressed(path, **payload)


def load_bnn(path: str | Path) -> BNN:
    """Rebuild a BNN saved by :func:`save_bnn`.

    Raises :class:`ArtifactError`, naming the array, for a file that
    is not such an artifact: unreadable, or an array missing,
    unexpected, of the wrong kind or shape (each layer's latent
    weights and biases must match the topology), or non-finite."""
    arrays = _read(path)
    _check_format(arrays, "bnn")
    hidden = _array(arrays, "hidden_sizes", "iuf", 1)
    # An empty topology saves as an empty float array.
    if hidden.size and (hidden.dtype.kind == "f" or hidden.min() < 1):
        raise ArtifactError("array 'hidden_sizes' must hold whole numbers >= 1")
    config = BNNConfig(
        name=_text(arrays, "name"),
        input_size=_count(arrays, "input_size", 1),
        hidden_sizes=tuple(int(h) for h in hidden),
        n_classes=_count(arrays, "n_classes", 1),
        input_bits=_count(arrays, "input_bits", 1),
        output_bits=_count(arrays, "output_bits", 1),
    )
    latent, bias = [], []
    for index, shape in enumerate(config.layer_shapes):
        latent.append(_array(arrays, f"latent_{index}", "f", 2, shape=shape))
        bias.append(_array(arrays, f"bias_{index}", "f", 1, shape=shape[1:]))
    names = ("format", "name", "input_size", "hidden_sizes", "n_classes",
             "input_bits", "output_bits")
    _check_names(arrays, names, ("latent", "bias"), len(latent))
    model = BNN(config)
    model.latent = latent
    model.bias = bias
    return model


def _read(path: str | Path) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` archive at ``path``.  A file that
    cannot be opened raises OSError; one that is not such an archive,
    :class:`ArtifactError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        with np.load(io.BytesIO(raw), allow_pickle=False) as data:
            return {name: data[name] for name in data.files}
    except (
        EOFError, KeyError, OSError, RuntimeError, TypeError, ValueError,
        zipfile.BadZipFile, zlib.error,
    ) as exc:
        raise ArtifactError(f"not an .npz archive of arrays: {exc}") from None


def _array(
    arrays: dict, name: str, kinds: str, ndim: int, size=None, shape=None
) -> np.ndarray:
    """Array ``name``, which must exist, have a dtype of one of the
    NumPy ``kinds``, ``ndim`` dimensions, ``size`` entries or the
    ``shape`` given, and only finite floats."""
    if name not in arrays:
        raise ArtifactError(f"missing array {name!r}")
    arr = arrays[name]
    if arr.dtype.kind not in kinds or arr.ndim != ndim:
        raise ArtifactError(
            f"array {name!r} is {arr.dtype} with {arr.ndim} dimensions, want "
            f"dtype kind {'/'.join(kinds)} with {ndim}"
        )
    if (size is not None and arr.size != size) or (
        shape is not None and arr.shape != tuple(shape)
    ):
        want = f"{size} entries" if shape is None else f"shape {tuple(shape)}"
        raise ArtifactError(f"array {name!r} has shape {arr.shape}, want {want}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ArtifactError(f"array {name!r} holds a NaN or infinity")
    return arr


def _text(arrays: dict, name: str) -> str:
    return str(_array(arrays, name, "U", 1, size=1)[0])


def _check_format(arrays: dict, want: str) -> None:
    got = _text(arrays, "format")
    if got != want:
        raise ArtifactError(f"array 'format' holds {got!r}, not {want!r}")


def _count(arrays: dict, name: str, low: int) -> int:
    value = int(_array(arrays, name, "iu", 1, size=1)[0])
    if value < low:
        raise ArtifactError(f"array {name!r} holds {value}, want >= {low}")
    return value


def _check_names(arrays: dict, names, prefixes, n: int) -> None:
    """Reject an array the writer does not write: one of ``names`` or
    ``prefix_i`` for each prefix and ``i < n``."""
    expected = set(names) | {f"{p}_{i}" for p in prefixes for i in range(n)}
    extra = sorted(set(arrays) - expected)
    if extra:
        raise ArtifactError(f"unexpected array {extra[0]!r}")
