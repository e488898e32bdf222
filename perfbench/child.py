"""One benchmark child: import parafock, run a list of CLI calls, report.

Started by run.py in a fresh interpreter, with the job spec as a JSON
argument.  Each call goes through ``parafock.cli.main`` in this process, with
stdout captured, so later calls see the caches earlier calls filled.  The last
line of stdout is one JSON object with the timings, the per-call records the
correctness gate needs, and (when traced) the per-layer metrics.

Spec keys: ``calls`` (the job, timed as job_s and call by call), ``trace``
(install the layer wrappers), ``spans_out`` (where a traced child writes its
spans), ``t_spawn`` (the parent's CLOCK_MONOTONIC reading taken just before
starting this process) and ``spawn_scale`` (the parent's reading of the
host's speed, steady.host_scale, just before that).

Times are in reference seconds of steady.py, the host's speed taken out:
the calls on its running clock; the start-up, from ``t_spawn`` to the first
call, is scaled by the mean of the speeds read just before and just after
it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from steady import SteadyClock

SRC = Path(__file__).resolve().parent.parent / "src"


def payload_digest(text: str) -> tuple[str | None, str]:
    """(command named by the meta record, sha256 of every line after it)."""
    meta_line, _, payload = text.partition("\n")
    try:
        meta = json.loads(meta_line).get("meta")
    except (ValueError, AttributeError):
        meta = None
    return meta, hashlib.sha256(payload.encode()).hexdigest()


def run_call(main, argv: list[str], clock: SteadyClock) -> dict:
    buf = io.StringIO()
    start = clock.now()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # recorded as a failed call; the run goes on
        traceback.print_exc()
        code = None
    seconds = clock.now() - start
    text = buf.getvalue()
    meta, sha = payload_digest(text)
    return {"argv": list(argv), "exit": code, "meta": meta, "sha256": sha,
            "seconds": seconds, "records": text.count("\n"),
            "bytes": len(text.encode())}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import parafock
    from parafock import cli

    if not Path(parafock.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported parafock from {parafock.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = [list(argv) for argv in spec["calls"]]

    t_first = time.monotonic()
    clock = SteadyClock()
    start_scale = clock.start()
    t_job = time.perf_counter()
    job = [run_call(cli.main, argv, clock) for argv in calls]
    job_wall_s = time.perf_counter() - t_job - clock.probe_s
    clock.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setup_s = ((t_first - spec["t_spawn"])
               * (spec["spawn_scale"] + start_scale) / 2)
    result = {"setup_s": setup_s, "job_s": clock.total,
              "job_wall_s": job_wall_s, "probes": clock.probes,
              "probe_s": clock.probe_s, "peak_rss_mib": peak_rss_mib,
              "job": job}
    if tracer is not None:
        result["layers"] = tracer.metrics(job)
        tracer.write_spans(spec["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
