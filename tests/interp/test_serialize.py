"""Round-trip fidelity of the program-image wire form (`interp/serialize.py`).

The service's artifact cache persists allocated images through this
format, so the contract is exact: a deserialized image must print
byte-identically and execute observably identically to the original.
The stored form is deflated canonical JSON; an artifact's identity, the
sha256 of the inflated bytes, is pinned here against fixed values.
"""

import hashlib
import json
import zlib

import pytest

from perfbench.common import Outcome
from perfbench.workloads import compile as compile_workload
from perfbench.workloads.inputs import Program
from repro.bench.suite import program
from repro.compiler import compile_source, param_slots
from repro.interp.machine import FunctionImage, ProgramImage, run_program
from repro.interp.serialize import (
    ImageDecodeError,
    dumps_image,
    image_from_payload,
    image_to_payload,
    inflate_image,
    instr_from_dict,
    instr_to_dict,
    loads_image,
    reg_from_str,
    reg_to_str,
)
from repro.ir.iloc import Reg
from repro.ir.printer import format_code
from repro.resilience.pipeline import PassPipeline, PipelineConfig
from repro.service.server import compile_cold


def _allocated_image(source: str, allocator: str, k: int) -> ProgramImage:
    pipe = PassPipeline(PipelineConfig())
    prog = pipe.compile(source)
    module = prog.fresh_module()
    functions = {}
    for name, func in module.functions.items():
        result = pipe.allocate(func, allocator, k)
        functions[name] = FunctionImage(name, result.code, param_slots(func))
    return ProgramImage(list(module.globals.values()), functions)


def _listings(image: ProgramImage) -> dict:
    return {
        name: format_code(fi.code) for name, fi in image.functions.items()
    }


class TestRegRoundtrip:
    @pytest.mark.parametrize("text", ["%v0", "%v137", "r0", "r7"])
    def test_roundtrip(self, text):
        assert reg_to_str(reg_from_str(text)) == text

    def test_bad_register_rejected(self):
        with pytest.raises(ValueError):
            reg_from_str("x3")


class TestImageRoundtrip:
    @pytest.mark.parametrize("allocator", ["none", "gra", "rap", "linearscan"])
    def test_sieve_roundtrip_is_byte_identical(self, allocator):
        source = program("sieve").source()
        if allocator == "none":
            image = compile_source(source).reference_image()
        else:
            image = _allocated_image(source, allocator, 4)
        restored = image_from_payload(image_to_payload(image))
        assert _listings(restored) == _listings(image)
        assert [g.name for g in restored.globals] == [
            g.name for g in image.globals
        ]
        fresh = run_program(image, max_cycles=5_000_000)
        redone = run_program(restored, max_cycles=5_000_000)
        assert redone.output == fresh.output
        assert redone.total.cycles == fresh.total.cycles
        assert redone.total.loads == fresh.total.loads
        assert redone.total.stores == fresh.total.stores

    @pytest.mark.parametrize("name", ["hanoi", "queens", "matmul"])
    def test_suite_programs_roundtrip(self, name):
        image = _allocated_image(program(name).source(), "rap", 5)
        restored = image_from_payload(image_to_payload(image))
        assert _listings(restored) == _listings(image)

    def test_bytes_are_canonical_and_stable(self):
        image = _allocated_image(program("sieve").source(), "gra", 3)
        blob = dumps_image(image)
        again = dumps_image(loads_image(blob))
        assert blob == again

    @pytest.mark.parametrize("name", ["sieve", "perm", "matmul"])
    def test_loads_dumps_roundtrip(self, name):
        image = _allocated_image(program(name).source(), "rap", 3)
        restored = loads_image(dumps_image(image))
        assert _listings(restored) == _listings(image)
        assert [g.name for g in restored.globals] == [
            g.name for g in image.globals
        ]

    @pytest.mark.parametrize("name", ["hanoi", "livermore", "matmul"])
    def test_blob_inflates_to_the_whole_program_json(self, name):
        image = _allocated_image(program(name).source(), "rap", 5)
        canonical = json.dumps(
            image_to_payload(image), sort_keys=True, separators=(",", ":")
        ).encode()
        assert zlib.decompress(dumps_image(image)) == canonical

    def test_version_mismatch_is_a_cold_miss(self):
        image = compile_source("void main() { print(1); }").reference_image()
        payload = image_to_payload(image)
        payload["version"] = 999

        assert loads_image(zlib.compress(json.dumps(payload).encode())) is None
        with pytest.raises(ValueError):
            image_from_payload(payload)

    def test_instr_dict_drops_defaults(self):
        image = compile_source("void main() { print(1); }").reference_image()
        code = image.functions["main"].code
        for instr in code:
            data = instr_to_dict(instr)
            assert all(v is not None and v != [] for v in data.values())
            assert str(instr_from_dict(data)) == str(instr)


#: image_sha256 of fixed (program, rung, k) compiles, computed before the
#: stored form was deflated: the sha256 of the canonical JSON text.
PINNED_IMAGE_SHA256 = {
    ("hanoi", "rap", 3):
        "6ef8e9549d74d1f2e786bfeb20e44d2c449a72e786a8c5ddaa0af7f0657c1aee",
    ("sieve", "gra", 5):
        "ecc6c3fadc6a73fc34a1cd76a474d69e38023795b1f8ddcea69a49cf3960787a",
    ("queens", "linearscan", 8):
        "398d212865798e686106ac1755470950bb45a6c81f6a434e70e12a922250f420",
    ("matmul", "rap", 5):
        "0ca3e0ae1b4d27456b3aff91eaaffbf0f7515d9d72d89291d42ef9e9371ed5d0",
    ("perm", "ssaspill", 3):
        "af777ba2e5458c7c954ad78c4342a638968cabafef41b5fdba7f966ffb19ba79",
    ("sieve", "spillall", 3):
        "0c674200286730a0dad43b30565fa2736dee865abb604ef459fecf94292bdf0b",
}


class TestArtifactIdentity:
    @pytest.mark.parametrize("name,rung,k", sorted(PINNED_IMAGE_SHA256))
    def test_image_sha256_is_pinned(self, name, rung, k):
        spec = {
            "source": program(name).source(),
            "rung": rung,
            "k": k,
            "schedule": False,
            "execute": False,
            "entry": "main",
            "max_cycles": None,
            "filename": name,
        }
        body = compile_cold(PassPipeline(PipelineConfig()), spec)
        want = PINNED_IMAGE_SHA256[(name, rung, k)]
        assert body["allocator_used"] == rung
        assert body["image_sha256"] == want
        inflated = zlib.decompress(body["_blob"])
        assert hashlib.sha256(inflated).hexdigest() == want
        assert body["image_bytes"] == len(body["_blob"]) < len(inflated)

    def test_the_compile_digest_check_fires_on_an_altered_image(self, monkeypatch):
        # The compile workload's guard of compile_digest.json.  A deflated
        # blob holds no literal program text, so the image is altered in
        # its inflated canonical JSON and deflated again.
        hanoi = Program("hanoi", program("hanoi").source())
        results = compile_workload._compile_all([hanoi])
        inputs = compile_workload.Inputs(registered=[hanoi], generated=[])
        monkeypatch.setattr(
            compile_workload,
            "committed_digest",
            lambda: compile_workload.fold_digest(results),
        )

        healthy = Outcome()
        compile_workload._check(healthy, [(1.0, results)], inputs)
        assert healthy.correct and healthy.failed == 0

        altered = list(results)
        victim = altered[4]
        text = zlib.decompress(victim.blob)
        changed = text.replace(b"hanoi", b"hanoj", 1)
        assert changed != text
        assert hashlib.sha256(changed).hexdigest() != victim.sha256
        altered[4] = compile_workload.Compiled(
            victim.program,
            victim.rung,
            victim.k,
            victim.ms,
            sha256=hashlib.sha256(changed).hexdigest(),
            used=victim.used,
            blob=zlib.compress(changed),
        )
        broken = Outcome()
        compile_workload._check(broken, [(1.0, altered)], inputs)
        assert not broken.correct
        assert any("digest" in violation for violation in broken.violations)


class TestDecodeFailures:
    @pytest.fixture
    def blob(self):
        image = compile_source("void main() { print(1); }").reference_image()
        return dumps_image(image)

    def test_not_a_deflate_stream(self, blob):
        with pytest.raises(ImageDecodeError):
            loads_image(zlib.decompress(blob))

    def test_truncated_stream(self, blob):
        with pytest.raises(ImageDecodeError):
            loads_image(blob[:-5])

    def test_trailing_bytes(self, blob):
        with pytest.raises(ImageDecodeError):
            loads_image(blob + b"\0")

    def test_inflate_past_the_bound(self, blob):
        size = len(zlib.decompress(blob))
        assert inflate_image(blob, limit=size) == zlib.decompress(blob)
        with pytest.raises(ImageDecodeError):
            inflate_image(blob, limit=size - 1)
        with pytest.raises(ImageDecodeError):
            inflate_image(zlib.compress(b" " * 100_000), limit=size)

    def test_decode_error_is_a_value_error(self):
        assert issubclass(ImageDecodeError, ValueError)
