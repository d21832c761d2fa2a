"""CLI entry point: ``python -m repro.experiments <name> [--scale S]``."""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
import time

from . import EXPERIMENTS


def _run_experiments(names, args, serve_box=None) -> int:
    failures = 0
    for name in names:
        kwargs = {"scale": args.scale, "seed": args.seed}
        run_fn = EXPERIMENTS[name]
        run_params = inspect.signature(run_fn).parameters
        handle = None
        if serve_box is not None and "telemetry" in run_params:
            # Live-stream this experiment's bus through the control
            # plane: subscribers (dashboard, raw TCP) watch it run.
            from ..obs import TelemetryBus
            bus = TelemetryBus()
            handle = serve_box.service.register_external(name, bus)
            print(f"[{name} streaming as {handle.run_id} on "
                  f"{serve_box.host}:{serve_box.port}]")
            kwargs["telemetry"] = bus
        elif args.telemetry and "telemetry" in run_params:
            path = args.telemetry
            if len(names) > 1:
                stem, ext = os.path.splitext(path)
                path = f"{stem}.{name}{ext or '.jsonl'}"
            kwargs["telemetry"] = path
        started = time.time()
        try:
            result = run_fn(**kwargs)
        except BaseException:
            if handle is not None:
                serve_box.service.finish_external(handle, state="failed")
            raise
        if handle is not None:
            serve_box.service.finish_external(handle)
        elapsed = time.time() - started
        print(result.format_report())
        print(f"[{name} finished in {elapsed:.1f}s]\n")
        if args.out:
            result.save_json(os.path.join(args.out, f"{name}.json"))
        if not result.all_checks_pass:
            failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures (as tables/series).")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which figure to regenerate")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0 = paper-scale)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None,
                        help="directory for JSON result dumps")
    parser.add_argument("--telemetry", type=str, default=None, metavar="PATH",
                        help="write the telemetry-bus event log (JSONL) here; "
                             "with 'all', each experiment gets a "
                             "<stem>.<name>.jsonl next to this path")
    parser.add_argument("--serve", type=str, default=None,
                        metavar="[HOST:]PORT",
                        help="host a control-plane server for the duration of "
                             "the run; telemetry-capable experiments stream "
                             "events to TCP subscribers (e.g. "
                             "python -m repro.serve.dashboard --connect ...) "
                             "instead of a file")
    args = parser.parse_args(argv)
    if not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be finite and > 0, got {args.scale}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.serve and args.telemetry:
        parser.error("--serve and --telemetry are mutually exclusive "
                     "(the control plane streams events over TCP)")

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.serve:
        from ..serve import serve_in_thread
        host, _, port = args.serve.rpartition(":")
        with serve_in_thread(host=host or "127.0.0.1",
                             port=int(port)) as box:
            print(f"[control plane listening on {box.host}:{box.port}]")
            return _run_experiments(names, args, serve_box=box)
    return _run_experiments(names, args)


if __name__ == "__main__":
    sys.exit(main())
