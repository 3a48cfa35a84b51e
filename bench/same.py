"""Same results: a parent revision's outputs against HEAD's, task by task.

    python3 bench/same.py --parent REV

Exports the parent and the change, HEAD, as bench/ab.py does, and runs this
script's encoder once per tree, in a child interpreter with that tree's src/
and perfbench/ first on sys.path.  The encoder runs one period of the
geodesic, probe and sweep workloads at seeds 1, 2 and 7349, and encodes
each task's output: a float by float.hex, an array by its dtype, shape and
a digest of its bytes, a named tuple field by field, an object by its
attributes, and an exception by its type and message.  It also runs
perfbench's CLI_EXAMPLES as children of that tree, from a temporary
directory, and keeps each one's stdout, stderr, exit code and path.csv.
Prints the keys whose encodings differ and exits 1 when any do, 0 when
none do.  It writes nothing in the checkout.
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = (1, 2, 7349)
WORKLOADS = ("geodesic", "probe", "sweep")

# The child: the tree's src/ and perfbench/ first on sys.path, then this
# script's encoder, whose JSON goes to stdout.
CHILD = ("import sys; tree, work = sys.argv[1:3]; "
         "sys.path[:0] = [tree + '/src', tree + '/perfbench', sys.argv[3]]; "
         "import json, same; print(json.dumps(same.encode_tree(tree, work)))")


def encode(x):
    """x as JSON values that are equal exactly when x's bits are."""
    import numpy as np

    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    if isinstance(x, np.generic):
        return encode(x.item())
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{list(x.shape)}:{hashlib.sha256(np.ascontiguousarray(x)).hexdigest()}"
    if isinstance(x, enum.Enum):
        return encode(x.value)
    if isinstance(x, tuple) and hasattr(x, "_fields"):  # a named tuple
        return {type(x).__name__: {f: encode(getattr(x, f)) for f in x._fields}}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, dict):
        return {str(k): encode(v) for k, v in x.items()}
    if isinstance(x, BaseException):
        return {"raises": f"{type(x).__name__}: {x}"}
    names = getattr(type(x), "__slots__", None) or vars(x)
    return {type(x).__name__: {n: encode(getattr(x, n)) for n in names}}


def run_task(task) -> object:
    """The encoding of task.run()'s output, or of the exception it raises."""
    try:
        return encode(task.run())
    except Exception as exc:  # an exception is an output too
        return encode(exc)


def encode_tree(tree: str, work: str) -> dict:
    """Every key's encoding for the tree whose src/ and perfbench/ are first
    on sys.path: one period of each workload per seed, then the CLI
    examples, each run from the empty directory work."""
    import finsler_iso
    import workloads

    if not Path(finsler_iso.__file__).resolve().is_relative_to(Path(tree).resolve() / "src"):
        raise RuntimeError(f"imported {finsler_iso.__file__}, not {tree}/src")
    out = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            wl = workloads.make(name, seed, Path(work), {})
            for k in range(wl.period):
                for i, task in enumerate(wl.make_pass(k)):
                    out[f"{name}/seed{seed}/pass{k}/{i}:{task.name}"] = run_task(task)
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}
    path_csv = Path(work) / "path.csv"
    for i, (argv, _, _) in enumerate(workloads.CLI_EXAMPLES):
        path_csv.unlink(missing_ok=True)
        res = subprocess.run([sys.executable, "-c", workloads.ENTRY, *argv], cwd=work, env=env,
                             capture_output=True, text=True)
        out[f"cli/{i}:{' '.join(argv)}"] = {
            "code": res.returncode, "stdout": res.stdout, "stderr": res.stderr,
            "path.csv": path_csv.read_text(encoding="utf-8") if path_csv.exists() else None}
    return out


def differing(parent: dict, change: dict) -> list[str]:
    """The keys, in order, that one side lacks or whose encodings differ."""
    missing = object()
    return [k for k in dict.fromkeys([*parent, *change])
            if parent.get(k, missing) != change.get(k, missing)]


def main(argv: list[str] | None = None) -> int:
    import ab

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    args = parser.parse_args(argv)
    revisions = {}
    for side, rev in zip(ab.SIDES, (args.parent, "HEAD")):
        try:
            revisions[side] = ab.git("rev-parse", "--verify", f"{rev}^{{commit}}")
        except subprocess.CalledProcessError:
            parser.error(f"no commit {rev!r} in this repository")
    encodings = {}
    with tempfile.TemporaryDirectory(prefix="same-") as tmp:
        for side in ab.SIDES:
            tree, work = Path(tmp) / side, Path(tmp) / f"{side}-work"
            ab.export(revisions[side], tree)
            work.mkdir()
            res = subprocess.run([sys.executable, "-c", CHILD, str(tree), str(work), str(BENCH)],
                                 cwd=work, capture_output=True, text=True)
            if res.returncode != 0:
                raise RuntimeError(f"the {side} tree's encoder exited {res.returncode}:\n"
                                   f"{res.stderr}")
            encodings[side] = json.loads(res.stdout.splitlines()[-1])
    keys = differing(encodings["parent"], encodings["change"])
    for key in keys:
        print(key)
    print(f"{len(keys)} of {len(encodings['change'])} keys differ between "
          f"{revisions['parent'][:7]} and {revisions['change'][:7]}")
    return 1 if keys else 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
