"""JSON-able serialization of executable program images.

The compile-as-a-service daemon (:mod:`repro.service`) caches allocated
:class:`~repro.interp.machine.ProgramImage` objects by content hash and
optionally persists them to disk, so a restarted server answers repeat
requests without re-running parse -> sema -> pdg-build -> allocate.  That
needs a faithful, dependency-free wire form for images — this module is
it.

The format is deliberately plain data (dicts, lists, strings, numbers):

* a :class:`~repro.ir.iloc.Instr` becomes a dict holding only its
  non-default fields (``{"op": "add", "srcs": ["v1", "v2"], "dst": "p0"}``);
* registers are their printable names (``%v7`` / ``r3``) reparsed on
  load, symbols are ``"space:name"`` pairs;
* a :class:`~repro.interp.machine.FunctionImage` is its name, code, and
  parameter slots; a :class:`~repro.interp.machine.ProgramImage` adds the
  global-variable layout.

The stored and wire form of an image (:func:`dumps_image`) is its
*canonical JSON* (sorted keys, no whitespace) deflated with
:mod:`zlib`.  The JSON is encoded one function at a time and each piece
goes straight into the compressor, so neither the whole payload tree
nor the whole JSON text is ever built.  An artifact's identity
(:func:`image_sha256`) is the sha256 of the *inflated* canonical JSON,
so it does not depend on the compressor; the blob's own length is the
stored size.  Decoding (:func:`inflate_image`) is bounded and typed: a
blob that is not a complete deflate stream, or that inflates past the
caller's bound, raises :class:`ImageDecodeError`.

Round-trip fidelity is the contract: ``image_from_payload(
image_to_payload(img))`` must produce byte-identical listings
(:func:`repro.ir.printer.format_code`) and observably identical
execution, which `tests/interp/test_serialize.py` pins for every
bench-suite program and allocator.  Deserialized images rebuild their
label maps, decoded forms and compiled-tier translations lazily,
exactly like freshly allocated ones.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Iterator, Optional

from ..digest import sha256
from ..ir.iloc import Instr, Op, Reg, Symbol
from ..pdg.graph import GlobalVar
from .machine import FunctionImage, ProgramImage

#: Bumped whenever the wire form changes incompatibly; persisted payloads
#: with a different version are ignored (treated as cache misses).
FORMAT_VERSION = 1

_OPS_BY_VALUE = {op.value: op for op in Op}

#: The canonical encoder: the artifact's identity is a hash of its output.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class ImageDecodeError(ValueError):
    """A blob that is not a complete deflate stream, or that inflates
    past the caller's bound."""


# -- registers and symbols ----------------------------------------------------


def reg_to_str(reg: Reg) -> str:
    return str(reg)


def reg_from_str(text: str) -> Reg:
    if text.startswith("%v"):
        return Reg("v", int(text[2:]))
    if text.startswith("r"):
        return Reg("p", int(text[1:]))
    raise ValueError(f"unparsable register {text!r}")


def symbol_to_dict(symbol: Symbol) -> Dict[str, str]:
    return {"name": symbol.name, "space": symbol.space}


def symbol_from_dict(data: Dict[str, str]) -> Symbol:
    return Symbol(data["name"], data["space"])


# -- instructions -------------------------------------------------------------


def instr_to_dict(instr: Instr) -> Dict[str, Any]:
    """One instruction as a minimal dict (defaults omitted)."""
    out: Dict[str, Any] = {"op": instr.op.value}
    if instr.srcs:
        out["srcs"] = [reg_to_str(reg) for reg in instr.srcs]
    if instr.dst is not None:
        out["dst"] = reg_to_str(instr.dst)
    if instr.imm is not None:
        out["imm"] = instr.imm
    if instr.addr is not None:
        out["addr"] = symbol_to_dict(instr.addr)
    if instr.callee is not None:
        out["callee"] = instr.callee
    if instr.label is not None:
        out["label"] = instr.label
    if instr.label_false is not None:
        out["label_false"] = instr.label_false
    return out


def instr_from_dict(data: Dict[str, Any]) -> Instr:
    op = _OPS_BY_VALUE.get(data["op"])
    if op is None:
        raise ValueError(f"unknown opcode {data['op']!r}")
    return Instr(
        op,
        srcs=[reg_from_str(text) for text in data.get("srcs", [])],
        dst=reg_from_str(data["dst"]) if "dst" in data else None,
        imm=data.get("imm"),
        addr=symbol_from_dict(data["addr"]) if "addr" in data else None,
        callee=data.get("callee"),
        label=data.get("label"),
        label_false=data.get("label_false"),
    )


# -- images -------------------------------------------------------------------


def global_to_dict(var: GlobalVar) -> Dict[str, Any]:
    out: Dict[str, Any] = {"name": var.name, "base_type": var.base_type}
    if var.dims:
        out["dims"] = list(var.dims)
    if var.init is not None:
        out["init"] = var.init
    return out


def global_from_dict(data: Dict[str, Any]) -> GlobalVar:
    return GlobalVar(
        data["name"],
        data["base_type"],
        dims=list(data.get("dims", [])),
        init=data.get("init"),
    )


def function_to_dict(image: FunctionImage) -> Dict[str, Any]:
    return {
        "name": image.name,
        "param_slots": list(image.param_slots),
        "code": [instr_to_dict(instr) for instr in image.code],
    }


def function_from_dict(data: Dict[str, Any]) -> FunctionImage:
    return FunctionImage(
        data["name"],
        [instr_from_dict(item) for item in data["code"]],
        list(data["param_slots"]),
    )


def image_to_payload(image: ProgramImage) -> Dict[str, Any]:
    """A whole linked program as one JSON-able dict."""
    return {
        "version": FORMAT_VERSION,
        "globals": [global_to_dict(var) for var in image.globals],
        "functions": [
            function_to_dict(image.functions[name])
            for name in sorted(image.functions)
        ],
    }


def image_from_payload(payload: Dict[str, Any]) -> ProgramImage:
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"image payload version {payload.get('version')!r} "
            f"!= {FORMAT_VERSION}"
        )
    functions = {
        data["name"]: function_from_dict(data)
        for data in payload["functions"]
    }
    return ProgramImage(
        [global_from_dict(data) for data in payload["globals"]], functions
    )


def _canonical_pieces(image: ProgramImage) -> Iterator[str]:
    """The canonical JSON of :func:`image_to_payload`, one function at a
    time; joined, the pieces equal ``json.dumps(image_to_payload(image),
    sort_keys=True, separators=(",", ":"))``."""
    yield '{"functions":['
    for index, name in enumerate(sorted(image.functions)):
        if index:
            yield ","
        yield _CANONICAL.encode(function_to_dict(image.functions[name]))
    yield '],"globals":'
    yield _CANONICAL.encode([global_to_dict(var) for var in image.globals])
    yield ',"version":' + _CANONICAL.encode(FORMAT_VERSION) + "}"


def dumps_image(image: ProgramImage) -> bytes:
    """The stored form: canonical JSON (sorted keys, no whitespace
    churn), deflated.  Equal images serialize to equal bytes, so
    cached-vs-fresh byte diffs and cache size accounting are exact."""
    deflate = zlib.compressobj()
    chunks = [
        deflate.compress(piece.encode("utf-8"))
        for piece in _canonical_pieces(image)
    ]
    chunks.append(deflate.flush())
    return b"".join(chunks)


def inflate_image(blob: bytes, limit: Optional[int] = None) -> bytes:
    """The canonical JSON inside a :func:`dumps_image` blob.

    Raises :class:`ImageDecodeError` when ``blob`` is not exactly one
    complete deflate stream or inflates past ``limit`` bytes."""
    inflate = zlib.decompressobj()
    try:
        text = inflate.decompress(blob, 0 if limit is None else limit + 1)
    except zlib.error as err:
        raise ImageDecodeError(f"image blob is not deflated: {err}") from None
    if limit is not None and len(text) > limit:
        raise ImageDecodeError(f"image blob inflates past {limit} bytes")
    if not inflate.eof or inflate.unused_data:
        raise ImageDecodeError("image blob is not one complete deflate stream")
    return text


def image_sha256(blob: bytes, limit: Optional[int] = None) -> str:
    """An artifact's identity: the sha256 of its inflated canonical JSON
    (raises :class:`ImageDecodeError` like :func:`inflate_image`)."""
    return sha256(inflate_image(blob, limit)).hexdigest()


def loads_image(blob: bytes) -> Optional[ProgramImage]:
    """Parse :func:`dumps_image` output; None on version mismatch (a
    persisted cache written by an older format is simply cold).  Raises
    :class:`ImageDecodeError` like :func:`inflate_image`."""
    payload = json.loads(inflate_image(blob))
    if payload.get("version") != FORMAT_VERSION:
        return None
    return image_from_payload(payload)
