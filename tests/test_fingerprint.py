"""The bitwise fingerprint tool (`tools/fingerprint.py`): its kernel and config parts, batch
encoding and diff."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_kernels_at_16_cubed_give_the_same_bits_for_one_and_three_blocks():
    one, three = (fingerprint.kernel_entries(16, blocks) for blocks in (1, 3))
    assert sorted(one) == ["_advect", "_diffuse", "_drift/faces", "_drift/rate", "solve_potential_fast", "v"]
    assert one == three


def test_diff_names_each_differing_entry():
    a = {"same": "0x1.0p+0", "float": "0x1.0p+0", "column": ["0x1.0p+0", "0x1.0p+1"],
         "hash": "sha256:0", "gone": 1}
    b = {"same": "0x1.0p+0", "float": "0x1.0000000000001p+0", "column": ["0x1.0p+0", "0x1.8p+1"],
         "hash": "sha256:1", "new": 1}
    assert fingerprint.diff(a, b) == [
        "column: 1 of 2 values differ, largest relative difference 3.333e-01",
        "float: 1 of 1 values differ, largest relative difference 2.220e-16",
        "gone: only in A",
        'hash: "sha256:0" != "sha256:1"',
        "new: only in B",
    ]
    assert fingerprint.diff(a, a) == []


def test_batch_keeps_floats_measurable_and_hashes_the_rest():
    assert fingerprint._batch([1.0, np.float64(0.5)]) == ["0x1.0000000000000p+0", "0x1.0000000000000p-1"]
    # a verdict's numpy bool hashes as the Python bool it stands for
    hashed = fingerprint._batch([np.bool_(True), None])
    assert hashed.startswith("sha256:") and hashed == fingerprint._batch([True, None])


def test_config_part_records_each_rejection():
    entries = fingerprint.config_entries()
    assert sorted(entries) == sorted(f"config/{case}" for case in fingerprint.CONFIG_CASES)
    assert entries.pop("config/good") == "ok"
    assert all(": ConfigInvalid: " in outcome for outcome in entries.values()), entries
    # the descriptor is built, and checks itself, before the rest of the config
    assert entries["config/mass=-1,cfl=2"] == "parse_config: ConfigInvalid: mass must be positive, got -1.0"
    assert entries["config/file/epsilon=0.5"].startswith("make_initial_data: ")
