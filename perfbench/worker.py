"""Closed-loop operation runner, started by run.py as its own process.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the evofusion source tree, the CLI steps of one round
(one operation), the measuring time and whether to trace. Rounds run
back to back until the time is up and at least ``min_rounds`` ran. Each
step calls ``evofusion.cli.main`` in this process. The result (per-round
timings, output digests, peak RSS and, when traced, the per-layer
figures) is written as JSON to the spec's ``result`` path.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from checks import digest


def peak_rss_mb() -> float:
    """Peak resident memory of this process image. ``ru_maxrss`` would
    also count the parent's memory at fork, which Linux carries across
    exec; VmHWM belongs to the address space made by exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(spec: dict, tracer=None) -> dict:
    import evofusion.cli  # the caller has put the sources on sys.path

    work = Path(spec["work"])
    rounds, failed = [], []
    started = time.perf_counter()
    while len(rounds) < spec["min_rounds"] or time.perf_counter() - started < spec["seconds"]:
        index = len(rounds)
        round_dir = work / f"round{index}"
        round_dir.mkdir(parents=True)
        timings: dict[str, float] = {}
        outputs = {}
        for step in spec["steps"]:
            argv = [arg.replace("{round}", str(round_dir)) for arg in step["argv"]]
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = evofusion.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            timings[step["timer"]] = timings.get(step["timer"], 0.0) + time.perf_counter() - t0
            if code != 0:
                print(f"round {index}: {' '.join(argv)} exited {code}", file=sys.stderr)
                failed.append(index)
                break
            if step.get("keep_stdout"):
                outputs[step["keep_stdout"]] = buf.getvalue()
        (round_dir / "stdout.json").write_text(json.dumps(outputs, sort_keys=True))
        rounds.append({**timings, "digest": digest(round_dir.iterdir())})
        if index > 0:
            shutil.rmtree(round_dir)
            os.sync()  # keep the deletion's deferred work out of the next round
    result = {
        "rounds": rounds,
        "failed": sorted(set(failed)),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(rounds))
        result["silent_spans"] = [name for name in spec["spans"] if not tracer.fired(name)]
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["max_iter"])
        tracer.install()
    result = run_rounds(spec, tracer)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
