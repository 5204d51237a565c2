"""Benchmark entry point.

    python3 perfbench/run.py --workload train_paper|session_paper|uda_desk \
        --seed N --seconds S --trace 0|1

Run from the repository root. It imports tmknet from `src/` and pins BLAS to
one thread. The next-to-last line of standard output is the full record
(environment, detail metrics, checks); the last line is the result:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`,
named and unit-labelled as `BENCHMARK.json` lists them.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def blas_info() -> dict:
    """OpenBLAS build string and the thread count in force, read from the
    library numpy loaded; None where numpy does not bundle OpenBLAS."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"blas": get_config().decode(), "blas_threads": get_threads()}
    return {"blas": None, "blas_threads": None}


def environment() -> dict:
    import platform

    import numpy as np

    cores = len(os.sched_getaffinity(0))
    return {"python": platform.python_version(), "numpy": np.__version__,
            **blas_info(), "cores": cores, "loadavg_start": os.getloadavg()[0]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one client, one BLAS thread; numpy is first imported below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "tmknet" / "__init__.py").is_file():
        print(f"perfbench: no tmknet sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench = workloads.WORKLOADS[args.workload](args.seed, args.seconds, Path(tmp),
                                                   workloads.FULL)
        out = bench.run(bool(args.trace))
    env["loadavg_end"] = os.getloadavg()[0]
    env["loaded"] = max(env["loadavg_start"], env["loadavg_end"]) >= env["cores"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = out.per_layer if args.trace else out.end_to_end
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in out.detail.items()},
        "unit_walls_s": out.unit_walls, "failures": out.failures,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
