"""bench/layers.py's capture pass, untimed: the counts it reads from the package's own calls."""

import importlib.util
import pathlib
import sys

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("layers", _PATH)


def _load():
    """The script as a module; it puts bench/ and src/ first for its own
    imports, and sys.path is put back as it was."""
    saved, module = list(sys.path), importlib.util.module_from_spec(_SPEC)
    try:
        _SPEC.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


layers = _load()


def test_loading_the_script_leaves_sys_path_as_it_was():
    before = list(sys.path)
    _load()
    assert sys.path == before


def test_the_capture_pass_counts_what_the_package_calls():
    tables = {name: [row for row, *_ in rows] for name, rows in layers.capture().items()}
    pinned, e1_e2 = tables["solves"]  # the solve tests/test_geometry.py pins, then e1 -> e2
    assert (e1_e2["calls"], e1_e2["segments"]) == (2, [24, 1496])
    assert (pinned["sweeps"], pinned["stop_reason"], pinned["calls"],
            pinned["chunk_rows"]) == (17, "step-floor", 2, 9326)
    # per field and spec: the starts, a ladder of 17 x 88 single moves, two parity halves
    segments = [row["segments"] for row in tables["segment_kernel"]]
    assert segments == 3 * [24, 1496, 180, 150] + 3 * [36, 1496, 180, 150]
    assert [(row["nodes"], row["converged"]) for row in tables["simpson"]] == [
        (65, True), (65, True), (1025, False)]
    # per default probe: the zero-metric test's 32 rows, then one block of 4000
    # rows each for rho_g(h), the maps and the controls, all on one draw of 4000
    assert [(row["eval_batch_calls"], row["eval_batch_rows"], row["sample_pairs_rows"])
            for row in tables["probe"]] == 3 * [(4, 32 + 3 * 4000, 32 + 4000)]
    # per suite of 200 samples, at any dim: one eval_batch call per side
    assert [(row["eval_batch_calls"], row["eval_batch_rows"])
            for row in tables["invariance_suite"]] == 3 * [(2, 400)]
