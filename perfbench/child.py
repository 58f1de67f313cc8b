"""One measured process of the verify benchmark; started by run.py.

    child.py verify JOB    run the job's `blockposets verify` invocations
    child.py setup JOB     time import + group + field + class algebra/blocks

JOB is a JSON object. For `verify`: {"argv": [[...], ...], "out": [paths],
"trace": path or null}. For `setup`: {"targets": [[spec, p], ...]}. The
child prints one JSON line on stdout, with its peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def run_verify(job):
    from blockposets import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer().install()
    codes = [cli.main(argv + ["--out", out])
             for argv, out in zip(job["argv"], job["out"])]
    if tracer is not None:
        tracer.write(job["trace"])
    return {"exit_codes": codes}


def run_setup(job):
    start = time.perf_counter()
    import blockposets                                       # noqa: F401
    from blockposets.cache import class_algebra_and_blocks
    from blockposets.cli import build_group, parse_group_spec
    from blockposets.gf import field_context

    for spec, p in job["targets"]:
        G = build_group(parse_group_spec(spec))
        F = field_context(p)
        class_algebra_and_blocks(G, F)
    return {"setup_s": time.perf_counter() - start}


def peak_rss_mb():
    """Peak resident memory of this process's own address space.

    ru_maxrss would also count the parent's peak, which Linux carries over
    into the child when it execs after a vfork. VmHWM does not.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    result = run_verify(job) if mode == "verify" else run_setup(job)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
