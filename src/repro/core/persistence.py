"""Saving and loading trained SNS predictors.

A trained SNS bundles the Circuitformer weights, the Aggregation MLP
weights, both models' input/target scalers, and the sampler/model
configuration.  Everything is stored in a single ``.npz`` archive with a
JSON header, so a model trained once can ship with a repository and be
loaded without retraining.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from .circuitformer import Circuitformer, CircuitformerConfig, TargetScaler
from .predictor import SNS
from .sampler import PathSampler

__all__ = ["save_sns", "load_sns", "ModelFileError"]

_FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """A file that is not a loadable SNS archive; names the file and why."""


def save_sns(sns: SNS, path: str | os.PathLike) -> None:
    """Serialize a fitted SNS predictor to ``path`` (numpy ``.npz``)."""
    if not sns._fitted:
        raise ValueError("refusing to save an unfitted SNS predictor")
    header = {
        "format_version": _FORMAT_VERSION,
        "circuitformer_config": vars(sns.circuitformer.config).copy(),
        "sampler": {"k": sns.sampler.k, "max_len": sns.sampler.max_len,
                    "max_paths": sns.sampler.max_paths, "seed": sns.sampler.seed},
        "num_aggregators": len(sns.aggregators),
    }
    arrays: dict[str, np.ndarray] = {
        "__header__": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        "cf_scaler_mean": sns.circuitformer.scaler.mean,
        "cf_scaler_std": sns.circuitformer.scaler.std,
    }
    for name, value in sns.circuitformer.state_dict().items():
        arrays[f"cf::{name}"] = value
    for i, aggregator in enumerate(sns.aggregators):
        arrays[f"agg{i}_input_mean"] = aggregator.input_mean
        arrays[f"agg{i}_input_std"] = aggregator.input_std
        arrays[f"agg{i}_residual_mean"] = aggregator.residual_mean
        arrays[f"agg{i}_residual_std"] = aggregator.residual_std
        arrays[f"agg{i}_area_weights"] = aggregator.area_weights
        arrays[f"agg{i}_energy_weights"] = aggregator.energy_weights
        arrays[f"agg{i}_timing_scale"] = np.array([aggregator.timing_scale])
        for name, value in aggregator.state_dict().items():
            arrays[f"agg{i}::{name}"] = value
    np.savez(path, **arrays)


def load_sns(path: str | os.PathLike) -> SNS:
    """Load a predictor saved by :func:`save_sns`; ready to ``predict()``.

    A missing or unreadable file raises ``OSError``; any other file that
    :func:`save_sns` did not write raises :class:`ModelFileError`.
    """
    def bad(reason: str) -> ModelFileError:
        return ModelFileError(f"cannot load model {path}: {reason}")

    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise bad(f"not an .npz archive ({exc})") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise bad("not an .npz archive")
    with archive:
        if "__header__" not in archive.files:
            raise bad("no __header__ entry, so not written by save_sns")
        try:
            header = json.loads(bytes(archive["__header__"]).decode())
            version = header.get("format_version")
            if version == _FORMAT_VERSION:
                return _from_archive(archive, header)
        except (AttributeError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise bad(f"corrupt archive ({exc})") from exc
    raise bad(f"unsupported format_version {version!r} "
              f"(expected {_FORMAT_VERSION})")


def _from_archive(archive, header: dict) -> SNS:
    config = CircuitformerConfig(**header["circuitformer_config"])
    sampler = PathSampler(**header["sampler"])
    count = header.get("num_aggregators", 1)
    sns = SNS(sampler=sampler, circuitformer_config=config,
              num_aggregators=count)
    sns.circuitformer.load_state_dict(
        {k[len("cf::"):]: archive[k] for k in archive.files
         if k.startswith("cf::")})
    sns.circuitformer.scaler = TargetScaler(
        mean=archive["cf_scaler_mean"].copy(),
        std=archive["cf_scaler_std"].copy())
    for i, aggregator in enumerate(sns.aggregators):
        prefix = f"agg{i}::"
        aggregator.load_state_dict(
            {k[len(prefix):]: archive[k] for k in archive.files
             if k.startswith(prefix)})
        aggregator.input_mean = archive[f"agg{i}_input_mean"].copy()
        aggregator.input_std = archive[f"agg{i}_input_std"].copy()
        aggregator.residual_mean = archive[f"agg{i}_residual_mean"].copy()
        aggregator.residual_std = archive[f"agg{i}_residual_std"].copy()
        aggregator.area_weights = archive[f"agg{i}_area_weights"].copy()
        aggregator.energy_weights = archive[f"agg{i}_energy_weights"].copy()
        aggregator.timing_scale = float(archive[f"agg{i}_timing_scale"][0])
        aggregator._physics_fitted = True
    sns._fitted = True
    return sns
