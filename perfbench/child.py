"""One grid run of the benchmark, in a fresh interpreter.

Set-up (timed as ``setup_s``): import ``cfbench``, ingest the raw corpus with
``dataset.ingest_oulad`` and save the frame with ``save_csv``. Then the grid:
``cli.main(["run", ...])`` into a fresh output directory (timed as
``grid_s``). The result, with the process's peak RSS, goes to ``--result`` as
JSON. With ``--trace`` the layer wrappers of ``tracer.py`` are installed
before set-up and the spans are written to ``--trace``.

Usage: python3 perfbench/child.py --raw DIR --frame CSV --config CFG
       --out DIR --result JSON [--trace JSON]
"""

import argparse
import json
import resource
import time


def peak_rss_kib() -> float:
    """This process's peak resident set size in KiB.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would also count the
    parent's resident size at fork, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main() -> int:
    ap = argparse.ArgumentParser()
    for name in ("--raw", "--frame", "--config", "--out", "--result"):
        ap.add_argument(name, required=True)
    ap.add_argument("--trace", help="write spans and per-layer counts here")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import cfbench  # noqa: F401  (import time is part of set-up)
    from cfbench import cli, dataset

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    data = dataset.ingest_oulad(args.raw, "DDD", ["2013J", "2014J"])
    data.save_csv(args.frame)
    setup_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    code = cli.main(["run", "--config", args.config, "--out", args.out])
    grid_s = time.perf_counter() - t1

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace, grid_s)
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "grid_s": grid_s,
        "peak_rss_mb": peak_rss_kib() / 1024.0,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
