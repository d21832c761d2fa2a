"""List the functions and methods of ``src/repro`` the program never calls.

Runs every way the program is driven from outside — the experiments CLI
(``all`` with ``--out``, the CI telemetry smoke and its ``read_events``
round trip, ``--serve``), the examples, the end-to-end benchmark at both
trace levels, every ``bench_*.py`` file and the e2e smoke tests, the
regression gates and the JSONL dashboard — with a profiler installed in
every Python process they start.  It then prints the top-level functions
and methods of ``src/repro`` that none of them called, per file, with
their line counts: code that only the test suite reaches.

    python benchmarks/reachability.py

Needs Python >= 3.11 (``co_qualname``).  Takes no flags and gates
nothing: it exits 1 only when an entry point crashes, since its list is
then incomplete.  The exit status of the experiment sweep, the two test
runs and ``check_regression.py`` is a verdict (a failed shape check, a
failed test, a gate; the profiler's overhead can trip the timed ones),
so for those only a traceback on stderr counts as a crash.  A run takes
several minutes on two cores.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXAMPLES = ("quickstart", "adaptive_task_compression",
            "image_reconstruction_pipeline", "wsn_environment_monitoring",
            "fleet_telemetry")
#: Seconds before an entry point is given up on (the dashboard tails a
#: file; the others all finish on their own).
TIMEOUT_S = 1800
#: Entry points whose non-zero exit status reports a verdict.
VERDICTS = ("experiments", "bench files", "e2e smoke tests",
            "regression gates")

#: Imported at start-up by every Python process that has the hook
#: directory on PYTHONPATH: records each code object called, in every
#: thread, and on exit appends the ``src/repro`` ones to a file of its own.
HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = os.environ["REPRO_REACH_SRC"]
    names = sorted({f"{code.co_filename}\\t{code.co_qualname}"
                    for code in _seen if code.co_filename.startswith(prefix)})
    path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "a", encoding="utf-8") as out:
        out.write("".join(name + "\\n" for name in names))


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def definitions() -> Iterator[Tuple[Path, str, int]]:
    """``(file, qualname, lines)`` of every top-level function and method."""
    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.")

    for path in sorted(SRC.rglob("*.py")):
        for qualname, node in visit(ast.parse(path.read_text()).body, ""):
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield path, qualname, node.end_lineno - start + 1


def run(label: str, command: List[str], env: Dict[str, str]) -> bool:
    print(f"[{label}] {' '.join(command[1:])}", flush=True)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"[{label}] timed out after {TIMEOUT_S} s", flush=True)
        return False
    if done.returncode != 0:
        print(f"[{label}] exit {done.returncode}\n{done.stderr[-2000:]}",
              flush=True)
    if label in VERDICTS:
        return "Traceback" not in done.stderr
    return done.returncode == 0


def trace(tmp: Path) -> Tuple[Set[Tuple[str, str]], List[str]]:
    """Run every entry point; the ``(file, qualname)`` pairs they called
    and the labels of the entry points that failed."""
    hook, out = tmp / "hook", tmp / "reached"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(hook), str(ROOT / "src")]),
               REPRO_REACH_OUT=str(out), REPRO_REACH_SRC=str(SRC) + os.sep,
               REPRO_EXAMPLE_SCALE="0.05")
    py, log = sys.executable, tmp / "telemetry_smoke.jsonl"
    steps = [
        ("experiments", [py, "-m", "repro.experiments", "all", "--scale",
                         "0.02", "--seed", "0", "--out", str(tmp / "out")]),
        *[(f"example {name}", [py, f"examples/{name}.py"])
          for name in EXAMPLES],
        ("example control_plane", [py, "examples/control_plane.py", "--out",
                                   str(tmp / "control_plane.jsonl")]),
        *[(f"e2e trace {level}", [py, "benchmarks/e2e/run.py", "--seconds",
                                  "1", "--trace", level])
          for level in ("0", "1")],
        ("bench files", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "--benchmark-disable",
                         *sorted(str(p.relative_to(ROOT)) for p in
                                 (ROOT / "benchmarks").glob("bench_*.py"))]),
        ("e2e smoke tests", [py, "-m", "pytest", "-q", "-p",
                             "no:cacheprovider",
                             "benchmarks/e2e/test_e2e_smoke.py"]),
        ("regression gates", [py, "benchmarks/check_regression.py", "--gate",
                              "all"]),
        ("telemetry smoke", [py, "-m", "repro.experiments", "multicluster",
                             "--scale", "0.05", "--telemetry", str(log)]),
        ("read_events", [py, "-c", "from repro.obs import read_events; "
                         f"assert list(read_events({str(log)!r}))"]),
        ("serve", [py, "-m", "repro.experiments", "multicluster", "--scale",
                   "0.02", "--serve", "127.0.0.1:0"]),
    ]
    failed = [label for label, command in steps
              if not run(label, command, env)]
    events = len(log.read_text().splitlines()) if log.exists() else 1
    if not run("dashboard", [py, "-m", "repro.serve.dashboard", "--follow",
                             str(log), "--max-events", str(events)], env):
        failed.append("dashboard")
    reached = set()
    for record in out.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, qualname = line.split("\t")
            reached.add((filename, qualname))
    return reached, failed


def main() -> int:
    if sys.version_info < (3, 11):
        print("needs Python >= 3.11 (co_qualname)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        reached, failed = trace(Path(tmp))
    unreached: Dict[Path, List[Tuple[str, int]]] = defaultdict(list)
    total = total_lines = 0
    for path, qualname, lines in definitions():
        total += 1
        total_lines += lines
        if (str(path), qualname) not in reached:
            unreached[path].append((qualname, lines))
    print()
    for path, names in unreached.items():
        print(f"{path.relative_to(ROOT)}  ({sum(n for _, n in names)} lines)")
        for qualname, lines in names:
            print(f"  {lines:5d}  {qualname}")
    count = sum(len(names) for names in unreached.values())
    lines = sum(n for names in unreached.values() for _, n in names)
    print(f"\n{count} of {total} top-level functions and methods unreached "
          f"({lines} of {total_lines} lines)")
    if failed:
        print(f"incomplete: {', '.join(failed)} failed", file=sys.stderr)
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
