"""Run the cycsieve CLI in this interpreter the way its console script does,
and note when ``cycsieve.cli.main`` is entered.

    python3 perfbench/launch.py STAMP [--probe | --trace DIR] -- ARGS...

STAMP receives ``time.monotonic_ns()`` taken just before ``main`` is called,
so the caller can measure start-up plus imports from its spawn time, and,
once ``main`` returns, a second line with the peak resident set in KiB.
``--probe`` stops there (a set-up sample without the work).  ``--trace DIR``
wraps the package with ``tracer.Tracer`` first and writes one snapshot per
process into DIR.
"""

import os
import sys
import time


def _run(stamp, mode, trace_dir, argv):
    from cycsieve import cli

    tracer = None
    if mode == "--trace":
        from tracer import Tracer  # this script's directory is on sys.path

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cycsieve" or name.startswith("cycsieve.")]
        tracer = Tracer(trace_dir)
        tracer.patch(modules)
        missed = tracer.find_unpatched(modules)
        if missed:
            print("unpatched binding sites: " + ", ".join(missed),
                  file=sys.stderr)
            return 70
        os.register_at_fork(after_in_child=tracer.after_fork)

    entered = time.monotonic_ns()
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(str(entered))
    if mode == "--probe":
        return 0
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.write()
        with open(stamp, "a", encoding="utf-8") as fh:
            fh.write(f"\n{_peak_rss_kib()}")


def _peak_rss_kib():
    """Peak resident set of this process since exec and of its reaped
    children (the pool workers).  The rusage the caller gets from wait4
    would also count the caller's own peak, which the child inherits across
    fork and exec."""
    import resource

    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main():
    args = sys.argv[1:]
    split = args.index("--")
    head, argv = args[:split], args[split + 1:]
    stamp, mode = head[0], (head[1] if len(head) > 1 else None)
    trace_dir = head[2] if mode == "--trace" else None
    return _run(stamp, mode, trace_dir, argv)


if __name__ == "__main__":
    sys.exit(main())
