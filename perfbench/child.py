"""One benchmark child: import the library from a source tree, run CLI calls.

    python child.py --src DIR [--trace SPANS --run-id N] [--setup-only]
                    [EXPERIMENT CONFIG OUT ...]

Prints ``PERFBENCH_READY <t>`` once ``shieldlab.cli`` is imported and the
first config is read, where ``t`` is CLOCK_MONOTONIC (shared with the
parent, which stamped the spawn). With ``--setup-only`` it then prints the
numeric environment as ``PERFBENCH_ENV {json}`` and exits. Otherwise it
calls ``shieldlab.cli.main`` once per (experiment, config, out) triple, in
order, and exits with the first nonzero exit code, or 0.
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("calls", nargs="*")
    args = parser.parse_args()
    if len(args.calls) % 3:
        parser.error("calls come in EXPERIMENT CONFIG OUT triples")
    triples = [args.calls[k:k + 3] for k in range(0, len(args.calls), 3)]

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(args.run_id)
    from shieldlab import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the tree under {src}",
              file=sys.stderr)
        return 3
    if triples:
        cli.load_config(triples[0][1])
    print(f"PERFBENCH_READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        print("PERFBENCH_ENV " + json.dumps(_environment()), flush=True)
        return 0

    code = 0
    try:
        for experiment, config, out in triples:
            rc = cli.main([experiment, "--config", config, "--out", out])
            code = code or rc
    finally:
        if tracer is not None:
            tracer.write(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
