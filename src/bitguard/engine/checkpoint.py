"""Bit-exact JSON checkpoints for QuantizedModel.

Integer codes serialize as JSON integers and floats round-trip through
repr, so loading a checkpoint reproduces the model exactly.  Files written
from the same model are byte-identical (sorted keys, fixed separators).
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

from ..bitcodec import TcuCodeword
from ..errors import FormatError
from .layers import LAYER_KINDS, PARAMETRIC_KINDS, QuantizedModel
from .quantized import QuantizedTensor

FORMAT_VERSION = 1


def _layer_to_json(layer) -> dict:
    out = {"kind": layer.kind, "name": layer.name}
    if layer.kind == "conv2d":
        out.update(stride=layer.stride, pad=layer.pad)
    if layer.kind in PARAMETRIC_KINDS:
        out.update(
            shape=list(layer.weight.codes.shape),
            bits=layer.weight.bits,
            scale=layer.weight.scale,
            codes=layer.weight.codes.reshape(-1).tolist(),
        )
    elif layer.kind == "affine_norm":
        out.update(scale=layer.scale.tolist(), shift=layer.shift.tolist())
    return out


def model_to_json(model: QuantizedModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "head": model.head,
        "input_bits": model.input_bits,
        "layers": [_layer_to_json(l) for l in model.layers],
        "protected": {
            str(pidx): {str(i): w.to_json() for i, w in sorted(words.items())}
            for pidx, words in sorted(model.protected.items())
            if words
        },
    }


def model_from_json(obj: dict) -> QuantizedModel:
    if obj.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint format version {obj.get('format_version')!r}")
    layers: List = []
    for spec in obj["layers"]:
        kind = spec["kind"]
        if kind not in LAYER_KINDS:
            raise FormatError(f"unknown layer kind {kind!r} in checkpoint")
        args: List = []
        if kind in PARAMETRIC_KINDS:
            codes = np.array(spec["codes"], dtype=np.int64).reshape(spec["shape"])
            args = [QuantizedTensor(codes, float(spec["scale"]), int(spec["bits"]))]
            if kind == "conv2d":
                args += [int(spec["stride"]), int(spec["pad"])]
        elif kind == "affine_norm":
            args = [np.array(spec["scale"]), np.array(spec["shift"])]
        layers.append(LAYER_KINDS[kind](*args, name=spec["name"]))
    model = QuantizedModel(layers, head=obj["head"], input_bits=int(obj["input_bits"]))
    for pidx_s, words in obj.get("protected", {}).items():
        model.protected[int(pidx_s)] = {
            int(i): TcuCodeword.from_json(w) for i, w in words.items()
        }
    return model


def save_model(model: QuantizedModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, sort_keys=True, separators=(",", ":"))


def load_model(path: str) -> QuantizedModel:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "layers" not in obj:
        raise FormatError("checkpoint JSON lacks a layer list")
    return model_from_json(obj)
