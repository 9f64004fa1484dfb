"""Bit-identity gate: fixed-seed runs must reproduce pinned sha256 digests.

Each digest covers one (config, seed) run end to end: every returned value,
every AccessRecord, every BuildReport (every build attempt, failed ones too),
the online and build trace bytes, and the final stored items.  A run that
raises BuildFailedError records the error and stops there.

The digests were recorded before the level store moved to one (k, n, c)
array, so they pin the behaviour of the per-table layout.  A change that is
meant to be behaviour-preserving (a perf rewrite, a refactor) must leave them
untouched.  To print the digests of the code as it is:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import pyramid_oram.pyramid as pyramid_mod
from pyramid_oram.core import BuildFailedError
from pyramid_oram.pyramid import PyramidConfig, PyramidOram
from pyramid_oram.trace import TraceRecorder

PAYLOAD = 8
CAPACITY = 256
SEEDS = (0, 1, 2)
KEY_SPACE = 200         # below capacity, so no write is refused
ACCESSES = 2 * CAPACITY

# (config fields, whether seeds 1 and 2 start with a bulk load).  One-slot
# single-table levels cannot hold a 64-item load, so k1c1-retry starts empty
# and reaches its build failures through the access path.
CONFIGS = {
    "p8": (dict(first_level_size=8), True),
    "p2": (dict(first_level_size=2), True),
    "k1c1-retry": (dict(first_level_size=8, k_override=1, c_override=1,
                        failure_policy="retry"), False),
}

GOLDEN = {
    ("p8", 0): "be281eb93ecb6e74911bc85db1e2a8743f5762d7bc5c20138f1abb357e501f06",
    ("p8", 1): "918cac59f72796f6189776a8bcaa961109a4a657048dcfc6a05b90a67902f85c",
    ("p8", 2): "e886e19aaaec3fcf49df4f8ca92f462fba667dad0c18e35d4afe528786482208",
    ("p2", 0): "d8ddda73dc1bb09d81917c65c8b97b97a13222076d010ab5bf19cc8e87dda06b",
    ("p2", 1): "748b3b23696a53e467236d1e0e6e0882e4a30399d98563e1eaf432e5752bbf9d",
    ("p2", 2): "c7bfa89ce23a36968ec173007ce7ae0cc053454eb17de25d46e166f17a71bf92",
    ("k1c1-retry", 0): "ac9082ba02dba993a21bffd0f99afe34290c3f5fece9a5893fd0bac98a011804",
    ("k1c1-retry", 1): "f3561d2117a2ae291a87ba26444543487e2bb541deae13f0b010c722d9f63cfe",
    ("k1c1-retry", 2): "eb9f5763dbd40ac118520b3c01416bd6177afe5c10ca0f1c1fc4d50b557edeeb",
}


def _trace_bytes(recorder: TraceRecorder) -> bytes:
    return b"".join(column.tobytes() for column in recorder.to_arrays())


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, default=int).encode()


def run_digest(name: str, seed: int) -> str:
    """sha256 over everything observable in one seeded run of CONFIGS[name]."""
    fields, bulk = CONFIGS[name]
    config = PyramidConfig(capacity=CAPACITY, payload_size=PAYLOAD, seed=seed,
                           **fields)
    gen = np.random.Generator(np.random.PCG64(1000 + seed))
    online, build = TraceRecorder(True), TraceRecorder(True)
    oram = PyramidOram(config, online, build)
    h = hashlib.sha256()
    reports = []
    real_build = pyramid_mod.oblivious_build

    def recording_build(*args, **kwargs):
        z, report = real_build(*args, **kwargs)
        reports.append(report.to_dict())
        return z, report

    pyramid_mod.oblivious_build = recording_build
    try:
        if bulk and seed != 0:
            keys = gen.choice(KEY_SPACE, size=CAPACITY // 4, replace=False)
            items = [(int(key), gen.bytes(PAYLOAD)) for key in keys]
            oram.bulk_load(items)
        for _ in range(ACCESSES):
            key = int(gen.integers(KEY_SPACE))
            if gen.random() < 0.5:
                op, value = "read", None
            else:
                op, value = "write", gen.bytes(PAYLOAD)
            result, record = oram.access_with_record(op, key, value)
            h.update(_canon([None if result is None else result.hex(),
                             dataclasses.asdict(record)]))
    except BuildFailedError as err:
        h.update(_canon(["build failed", str(err), err.report.to_dict()]))
    finally:
        pyramid_mod.oblivious_build = real_build
    h.update(_canon(reports))
    h.update(_trace_bytes(online))
    h.update(_trace_bytes(build))
    items = oram.stored_items()
    h.update(_canon(sorted((key, value.hex()) for key, value in items.items())))
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_run_matches_pinned_digest(name, seed):
    assert run_digest(name, seed) == GOLDEN[(name, seed)]


if __name__ == "__main__":
    for name in CONFIGS:
        for seed in SEEDS:
            print(f'    ("{name}", {seed}): "{run_digest(name, seed)}",')
