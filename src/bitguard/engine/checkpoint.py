"""Bit-exact JSON checkpoints for QuantizedModel.

Integer codes serialize as JSON integers and floats round-trip through
repr, so loading a checkpoint reproduces the model exactly.  Files written
from the same model are byte-identical (sorted keys, fixed separators).
TCU-stored weights are listed under "protected" with the words that
bitcodec.tcu_layout lays out for their codes; the loader sets the tcu
masks from that list and rejects a word that does not encode its weight's
code.  The "head"
field is always "xent", the one loss; the loader rejects any other.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from ..bitcodec import tcu_layout
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


def _tcu_words(weight: QuantizedTensor, idx: np.ndarray) -> Dict[str, dict]:
    """The checkpoint form of the TCU words of the weights at flat indices idx."""
    polarity, width, ones = tcu_layout(weight.codes.reshape(-1)[idx], weight.bits)
    return {str(i): {"polarity": "ones" if p else "zeros", "width": w,
                     "word": "1" * o + "0" * (w - o)}
            for i, p, w, o in zip(idx.tolist(), polarity.tolist(), width.tolist(), ones.tolist())}


def model_to_json(model: QuantizedModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "head": "xent",
        "input_bits": model.input_bits,
        "layers": [_layer_to_json(l) for l in model.layers],
        "protected": {
            str(pidx): _tcu_words(layer.weight, np.flatnonzero(layer.weight.tcu))
            for pidx, layer in model.parametric()
            if layer.weight.tcu.any()
        },
    }


def _index(key: str, size: int, what: str) -> int:
    try:
        i = int(key)
    except ValueError:
        raise FormatError(f"{what} {key!r} is not an integer") from None
    if not 0 <= i < size:
        raise FormatError(f"{what} {i} outside [0, {size})")
    return i


def model_from_json(obj: dict) -> QuantizedModel:
    if not isinstance(obj, dict) or not isinstance(obj.get("layers"), list):
        raise FormatError("checkpoint JSON lacks a layer list")
    if obj.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint format version {obj.get('format_version')!r}")
    if obj.get("head") != "xent":
        raise FormatError(f"unsupported checkpoint head {obj.get('head')!r}")
    layers: List = []
    for pos, spec in enumerate(obj["layers"]):
        try:
            kind = spec["kind"]
            if kind not in LAYER_KINDS:
                raise FormatError(f"unknown layer kind {kind!r}")
            args: List = []
            if kind in PARAMETRIC_KINDS:
                codes = np.array(spec["codes"], dtype=np.int64).reshape(spec["shape"])
                args = [QuantizedTensor(codes, float(spec["scale"]), int(spec["bits"]))]
                if kind == "conv2d":
                    args += [int(spec["stride"]), int(spec["pad"])]
            elif kind == "affine_norm":
                args = [np.array(spec["scale"]), np.array(spec["shift"])]
            layers.append(LAYER_KINDS[kind](*args, name=spec["name"]))
        except (KeyError, TypeError, ValueError) as exc:  # InputError and FormatError too
            raise FormatError(f"checkpoint layer {pos} is malformed: {exc!r}") from exc
    try:
        model = QuantizedModel(layers, input_bits=int(obj["input_bits"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint header is malformed: {exc!r}") from exc
    protected = obj.get("protected", {})
    if not isinstance(protected, dict) or not all(isinstance(w, dict) for w in protected.values()):
        raise FormatError("checkpoint \"protected\" must map layers to objects of words")
    parametric = [layer for _, layer in model.parametric()]
    for pidx_s, words in protected.items():
        weight = parametric[_index(pidx_s, len(parametric), "protected layer")].weight
        idx = np.array([_index(i_s, weight.size, "protected weight") for i_s in words],
                       dtype=np.int64)
        want = _tcu_words(weight, idx)
        for i, word in zip(idx.tolist(), words.values()):
            if word != want[str(i)]:
                raise FormatError(f"TCU word {word!r} does not encode the code of "
                                  f"weight {i} of layer {pidx_s}")
        weight.tcu[idx] = True
    return model


def save_model(model: QuantizedModel, path: str) -> None:
    # json.dumps, unlike json.dump, runs the C encoder; the bytes are the same
    text = json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path: str) -> QuantizedModel:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"checkpoint is not valid JSON: {exc}") from exc
    return model_from_json(obj)
