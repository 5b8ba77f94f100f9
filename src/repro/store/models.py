"""Trained-model registry over the :class:`~repro.store.ArtifactStore`.

A fitted SNS predictor is itself a content-addressed artifact: its
weights fingerprint (``repro.runtime.fingerprint.fingerprint_model``)
is the key, the ``.npz`` archive :mod:`repro.core.persistence` writes is
the payload (carried base64-inside-JSON, since every stored payload is
a JSON object).  Two small pointer kinds ride along:

- ``model-index``: training-request fingerprint -> model fingerprint,
  which is what makes ``/train`` idempotent across server restarts —
  an identical request replays the stored model instead of retraining;
- ``model-alias``: mutable name -> model fingerprint pointers
  (``replace=True`` puts; the only non-write-once kind in the store).
"""

from __future__ import annotations

import base64
import io

from . import keys
from .store import ArtifactStore

__all__ = ["ModelStore"]

_FORMAT = "sns-npz-b64"


class ModelStore:
    """Weights + metadata registry on a shared artifact store."""

    def __init__(self, store: ArtifactStore):
        self.store = store

    @property
    def persistent(self) -> bool:
        return self.store.backend is not None

    # ------------------------------------------------------------------ #
    def save(self, sns, *, name: str | None = None,
             training_fp: str | None = None) -> str:
        """Persist a fitted model; returns its weights fingerprint.

        ``name`` registers a mutable alias; ``training_fp`` records the
        request -> model index entry used for cross-restart ``/train``
        dedup.
        """
        from ..core.persistence import save_sns
        from ..runtime.fingerprint import fingerprint_model

        model_fp = fingerprint_model(sns)
        buffer = io.BytesIO()
        save_sns(sns, buffer)
        payload = {
            "format": _FORMAT,
            "version": 1,
            "data_b64": base64.b64encode(buffer.getvalue()).decode("ascii"),
            "meta": {"name": name},
        }
        self.store.put("model", keys.model_key(model_fp), payload)
        if name:
            self.store.put("model-alias", keys.alias_key(name),
                           {"name": name, "model_fp": model_fp},
                           replace=True)
        if training_fp:
            self.store.put("model-index", training_fp,
                           {"model_fp": model_fp})
        return model_fp

    def load(self, model_fp: str):
        """Rehydrate the SNS stored under ``model_fp`` (or ``None``).

        A row whose archive is missing, is not base64 or is not a model
        raises :class:`~repro.core.persistence.ModelFileError` naming
        ``model/<fingerprint>``.
        """
        payload = self.store.get("model", keys.model_key(model_fp))
        if payload is None or payload.get("format") != _FORMAT:
            return None
        from ..core.persistence import ModelFileError, load_sns

        where = f"model/{model_fp}"
        encoded = payload.get("data_b64")
        if not isinstance(encoded, str):
            raise ModelFileError(where, "no data_b64 string")
        try:
            data = base64.b64decode(encoded, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise ModelFileError(
                where, f"data_b64 is not valid base64 ({exc})") from exc
        try:
            return load_sns(io.BytesIO(data))
        except ModelFileError as exc:
            raise ModelFileError(where, exc.reason) from exc

    # ------------------------------------------------------------------ #
    def resolve_alias(self, name: str) -> str | None:
        pointer = self.store.get("model-alias", keys.alias_key(name))
        return pointer.get("model_fp") if pointer else None

    def resolve_training(self, training_fp: str) -> str | None:
        pointer = self.store.get("model-index", training_fp)
        return pointer.get("model_fp") if pointer else None

    def find(self, ref: str) -> str | None:
        """Resolve a name, fingerprint, or fingerprint prefix (>= 8
        chars) to a stored model fingerprint."""
        model_fp = self.resolve_alias(ref)
        if model_fp is not None:
            return model_fp
        if self.store.contains("model", ref):
            return ref
        if len(ref) >= 8:
            matches = {fp for fp in self.store.keys("model")
                       if fp.startswith(ref)}
            if len(matches) == 1:
                return next(iter(matches))
            if len(matches) > 1:
                raise KeyError(f"model ref {ref!r} is ambiguous")
        return None

    def fingerprints(self) -> list[str]:
        """Fingerprints of every stored model."""
        return sorted(self.store.keys("model"))
