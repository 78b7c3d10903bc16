#!/usr/bin/env python3
"""End-to-end benchmark of the `nocliques` CLI, with a traced per-layer split.

Run from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

It builds the CLI and the in-process harness (perfbench/layers.ml) with
dune into .bench_build/, writes generated inputs and child output to
.bench_work/, and then, for S seconds, runs one child at a time:

  --trace 0  the workload's `nocliques` command, timed from outside
             (wall clock, CPU time and peak RSS from wait4), interleaved
             with the same command at zero engine work for setup_s;
  --trace 1  the harness, which times the calls into each library and
             reads the program's counters, interleaved with the CLI
             command for the wall time the layers are subtracted from.

Every output is checked against references that `nocliques` does not
produce (README.md lists them). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import obqa  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BUILD = ".bench_build"
WORK = Path(".bench_work")
CLI = f"{BUILD}/default/bin/nocliques.exe"
CHILD_TIMEOUT_S = 60
MIN_SAMPLES = 3
# Far above every workload's size: workloads stop on depth or on the
# number of fresh elements, never on the atom cap.
NO_CAP = ["--max-atoms", "10000000"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- checks

class Checks:
    """Named reference checks. Every check that runs is recorded, so the
    self-check can assert that none was skipped."""

    def __init__(self):
        self.scope = ""  # which command's output: main, setup or layers
        self.ran = set()
        self.failures = []

    def expect(self, name, ok, detail=""):
        name = f"{self.scope}/{name}"
        self.ran.add(name)
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


VERDICT = re.compile(
    r"^depth=(\d+) atoms=(\d+) max-tournament=(\d+) loop=(true|false)", re.M)


def tournament_refs(checks, out, depth, atoms, size, paper_loop):
    """The Theorem-1 verdict line: the paper's verdict (loop or not, and
    a tournament of size at least 4 where the paper says the bdd chase
    grows them) and the atom and tournament counts pinned for the rule
    set. At depth 0 only the input instance, one atom, is reported."""
    m = VERDICT.search(out)
    if not checks.expect("verdict-line", m is not None, out[:200]):
        return
    got = (int(m[1]), int(m[2]), int(m[3]), m[4] == "true")
    if depth == 0:
        checks.expect("setup-input", got[:2] == (0, 1), str(got))
        return
    checks.expect("depth", got[0] == depth, f"{got[0]} != {depth}")
    checks.expect("paper-loop", got[3] == paper_loop,
                  f"loop={got[3]}, paper says {paper_loop}")
    if paper_loop:
        checks.expect("paper-tournament>=4", got[2] >= 4, str(got[2]))
    checks.expect("pin-atoms", got[1] == atoms, f"{got[1]} != {atoms}")
    checks.expect("pin-tournament", got[2] == size, f"{got[2]} != {size}")


def fm_refs(checks, out, fresh):
    checks.expect(
        "paper-no-loop-free-model",
        f"no such finite model with {fresh} extra elements" in out,
        out[:200])


def obqa_refs(checks, out, expected, saturated):
    got = obqa.summary(obqa.parse_printed(out))
    checks.expect("naive-atom-count", got[0] == expected[0],
                  f"{got[0]} != {expected[0]}")
    checks.expect("naive-ground-atoms", got[1] == expected[1],
                  "null-free atoms differ")
    checks.expect("naive-null-atoms", got[2] == expected[2],
                  "atoms with nulls differ up to renaming")
    if saturated:
        checks.expect("saturated", " saturated" in out.split("\n", 1)[0],
                      out[:200])


# ------------------------------------------------------------- workloads

class Workload:
    """A workload: the CLI command, its zero-work twin for setup_s, the
    reference checks of each, and the harness invocation. `prepare`
    makes the inputs from the seed; its cost is outside every metric."""

    setup_reps = 10  # setup commands per measured command

    def prepare(self, seed, tiny):
        return {}


class Tournament(Workload):
    """`tournament RULES -d DEPTH`, with the paper's verdict (`loop`) and
    the atom and tournament counts pinned for the rule set."""

    def __init__(self, rules, depth, atoms, size, loop):
        self.rules, self.depth = rules, depth
        self.pins = (atoms, size, loop)

    def argv(self, _, depth=None):
        return ["tournament", self.rules, "-d",
                str(self.depth if depth is None else depth)] + NO_CAP

    def setup_argv(self, inp):
        return self.argv(inp, depth=0)

    def check(self, checks, out, _):
        atoms, size, loop = self.pins
        tournament_refs(checks, out, self.depth, atoms, size, paper_loop=loop)

    def check_setup(self, checks, out, _):
        tournament_refs(checks, out, 0, None, None, None)

    def layers_args(self, _):
        return ["tournament", self.rules, str(self.depth)]

    def check_layers(self, checks, fields, _):
        checks.expect("layers-verdict",
                      (fields["atoms"], fields["tournament"], fields["loop"])
                      == self.pins, str(fields))


class FmUnsat(Workload):
    fresh = 9

    def argv(self, _):
        return ["finite", "example1", "--fresh", str(self.fresh),
                "--forbid-loop", "--engine", "sat"]

    def setup_argv(self, _):
        return ["finite", "example1", "--fresh", "0", "--forbid-loop",
                "--engine", "sat"]

    def check(self, checks, out, _):
        fm_refs(checks, out, self.fresh)

    def check_setup(self, checks, out, _):
        fm_refs(checks, out, 0)

    def layers_args(self, _):
        return ["finite", "example1", str(self.fresh)]

    def check_layers(self, checks, fields, _):
        checks.expect("layers-verdict", fields["verdict"] == "no_model",
                      str(fields))


class ObqaLoad(Workload):
    setup_reps = 2

    def prepare(self, seed, tiny):
        sizes = {"edges": 600, "unary": 150} if tiny else {}
        text, facts = obqa.generate(seed, **sizes)
        path = WORK / f"obqa-{seed}.nca"
        path.write_text(text)
        instance, _ = obqa.chase(facts)
        expected = obqa.summary(instance)
        print(f"obqa_load input: seed={seed} facts={len(facts)} "
              f"bytes={len(text.encode())} chase_atoms={expected[0]} "
              f"answers={sum(1 for p, _ in expected[1] if p == 'D')}")
        return {"path": str(path), "facts": obqa.summary(facts),
                "expected": expected}

    def argv(self, inp):
        return ["chase", inp["path"], "-d", "8", "--print"] + NO_CAP

    def setup_argv(self, inp):
        return ["chase", inp["path"], "-d", "0", "--print"] + NO_CAP

    def check(self, checks, out, inp):
        obqa_refs(checks, out, inp["expected"], saturated=True)

    def check_setup(self, checks, out, inp):
        obqa_refs(checks, out, inp["facts"], saturated=False)

    def layers_args(self, inp):
        return ["chase", inp["path"], "8"]

    def check_layers(self, checks, fields, inp):
        checks.expect("layers-atoms", fields["atoms"] == inp["expected"][0],
                      str(fields))
        checks.expect("layers-saturated", fields["saturated"] is True,
                      str(fields))


WORKLOADS = {
    "bdd_tournament": Tournament("example1_bdd", 7, 4080, 34, loop=True),
    "example1_tournament": Tournament("example1", 12, 67503, 13, loop=False),
    "fm_unsat": FmUnsat(),
    "obqa_load": ObqaLoad(),
}


# ----------------------------------------------------------------- build

def build():
    """Build the CLI and the harness from this source tree."""
    if not (Path("dune-project").is_file() and Path("bin/nocliques.ml").is_file()):
        die("run from the root of a nocliques source tree")
    rel = HERE.relative_to(Path.cwd().resolve())
    layers = f"{BUILD}/default/{rel}/layers.exe"
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD,
         "--profile", "bench", "./bin/nocliques.exe", f"./{rel}/layers.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        capture_output=True, text=True, timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")
    return layers


def git(*args):
    """stdout of a git command run in this source tree, or None when the
    tree is not the top of a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode or Path(top.stdout.strip()).resolve() != Path.cwd().resolve():
            return None
        r = subprocess.run(["git", *args], capture_output=True, text=True,
                           timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """A digest of the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    files = [Path("dune-project")] + sorted(
        p for d in ("bin", "lib", HERE.name)
        for p in Path(d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p).encode() + b"\0" + p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def host_record():
    """The commit and host a result belongs to: the git commit, marked
    dirty and followed by a digest of the sources when the work tree has
    changes; a source tree without git history by the digest alone."""
    commit = git("rev-parse", "HEAD")
    if commit is None:
        commit = source_digest()
    elif git("status", "--porcelain"):
        commit = f"{commit}-dirty+{source_digest()}"
    ocaml = subprocess.run(["ocamlopt", "-version"],
                           capture_output=True, text=True).stdout.strip()
    return {"commit": commit, "nproc": os.cpu_count(), "ocaml": ocaml}


# ------------------------------------------------------------ measuring

class Child:
    """One child process, run to completion: its exit code, stdout,
    wall time, CPU time and peak RSS."""

    def __init__(self, argv):
        out_path = WORK / "stdout"
        with open(out_path, "wb") as out, open(WORK / "stderr", "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()


class Runner:
    """Runs children one at a time and checks each output. Outputs are
    checked in full once per distinct content; a byte-identical output
    shares the verdict of the first."""

    def __init__(self):
        self.checks = Checks()
        self.attempted = 0
        self.failed = 0
        self.verdicts = {}

    def run(self, argv, scope, check):
        child = Child(argv)
        self.attempted += 1
        key = (child.code, hashlib.sha256(child.stdout.encode()).digest())
        if key not in self.verdicts:
            before = len(self.checks.failures)
            self.checks.scope = scope
            if self.checks.expect("exit-0", child.code == 0, f"exit {child.code}"):
                check(self.checks, child.stdout)
            self.verdicts[key] = len(self.checks.failures) == before
        if not self.verdicts[key]:
            self.failed += 1
        return child


def metrics_of(values):
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def measure_e2e(w, inp, runner, seconds):
    cli = [str(Path(CLI).resolve())]

    def main():
        return runner.run(cli + w.argv(inp), "main",
                          lambda c, o: w.check(c, o, inp))

    def setup():
        return runner.run(cli + w.setup_argv(inp), "setup",
                          lambda c, o: w.check_setup(c, o, inp))

    main(), setup()  # warm-up: page cache, lazy set-up; not timed
    runs, setups = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs) < MIN_SAMPLES:
        runs.append(main())
        setups.extend(setup() for _ in range(w.setup_reps))
    med = statistics.median
    print(f"samples: main={len(runs)} setup={len(setups)}")
    print("wall_s: " + " ".join(f"{c.wall_s:.4f}" for c in runs))
    return metrics_of({
        "wall_s": med(c.wall_s for c in runs),
        "cpu_s": med(c.cpu_s for c in runs),
        "peak_rss_mb": med(c.rss_mb for c in runs),
        "setup_s": med(c.wall_s for c in setups),
        "pass_frac": (runner.attempted - runner.failed) / runner.attempted,
    })


def measure_layers(w, inp, runner, seconds, layers):
    layers_argv = [str(Path(layers).resolve())] + w.layers_args(inp)
    cli = [str(Path(CLI).resolve())] + w.argv(inp)
    samples = []

    def fields_of(out):
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None

    def check(checks, out):
        fields = fields_of(out)
        if checks.expect("layers-output", fields is not None, out[:200]):
            w.check_layers(checks, fields, inp)

    def traced():
        child = runner.run(layers_argv, "layers", check)
        fields = fields_of(child.stdout)
        if child.code == 0 and fields is not None:
            samples.append(fields)

    traced()  # warm-up
    samples.clear()
    walls = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_SAMPLES:
        traced()
        walls.append(
            runner.run(cli, "main", lambda c, o: w.check(c, o, inp)).wall_s)
    if not samples:
        return {}
    print(f"samples: traced={len(samples)} cli={len(walls)}")
    med = statistics.median
    values = {name: med(s["metrics"][name] for s in samples)
              for name in samples[0]["metrics"]}
    values["traced.gap_s"] = med(walls) - med(s["layers_s"] for s in samples)
    return metrics_of(values)


# ------------------------------------------------------------------ main

def run(args):
    w = WORKLOADS[args.workload]
    layers = build()
    WORK.mkdir(exist_ok=True)
    print("host: " + json.dumps(dict(host_record(), workload=args.workload,
                                     seed=args.seed, seconds=args.seconds,
                                     trace=args.trace)))
    inp = w.prepare(args.seed, args.tiny)
    runner = Runner()
    if args.trace:
        metrics = measure_layers(w, inp, runner, args.seconds, layers)
    else:
        metrics = measure_e2e(w, inp, runner, args.seconds)
    for failure in runner.checks.failures:
        print(f"check failed: {failure}")
    print("checks: " + json.dumps(sorted(runner.checks.ran)))
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.checks.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


# The reference checks each workload runs, per command: the workload
# command and its set-up twin with --trace 0, the command and the harness
# with --trace 1.
TOURNAMENT_CHECKS = {"exit-0", "verdict-line", "depth", "paper-loop",
                     "pin-atoms", "pin-tournament"}
EXPECTED_CHECKS = {
    "bdd_tournament": {
        "main": TOURNAMENT_CHECKS | {"paper-tournament>=4"},
        "setup": {"exit-0", "verdict-line", "setup-input"},
        "layers": {"exit-0", "layers-output", "layers-verdict"}},
    "example1_tournament": {
        "main": TOURNAMENT_CHECKS,
        "setup": {"exit-0", "verdict-line", "setup-input"},
        "layers": {"exit-0", "layers-output", "layers-verdict"}},
    "fm_unsat": {
        "main": {"exit-0", "paper-no-loop-free-model"},
        "setup": {"exit-0", "paper-no-loop-free-model"},
        "layers": {"exit-0", "layers-output", "layers-verdict"}},
    "obqa_load": {
        "main": {"exit-0", "naive-atom-count", "naive-ground-atoms",
                 "naive-null-atoms", "saturated"},
        "setup": {"exit-0", "naive-atom-count", "naive-ground-atoms",
                  "naive-null-atoms"},
        "layers": {"exit-0", "layers-output", "layers-atoms",
                   "layers-saturated"}},
}


def self_check():
    """Run each workload once per mode, obqa_load at a tiny size, and
    assert the result line carries exactly the metrics BENCHMARK.json
    names and that every reference check ran."""
    if [w["name"] for w in SPEC["workloads"]] != list(WORKLOADS):
        die("BENCHMARK.json workloads differ from run.py", 1)
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", "1",
                 "--seconds", "0", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600)
            lines = r.stdout.strip().splitlines()
            tag = f"{name} --trace {trace}"
            if r.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {r.returncode}\n{r.stderr}")
                continue
            result = json.loads(lines[-1])
            ran = set(json.loads(next(l for l in lines
                                      if l.startswith("checks: "))[8:]))
            want = {m["name"] for m in SPEC[key]}
            if set(result["metrics"]) != want:
                problems.append(f"{tag}: metrics {sorted(result['metrics'])}")
            expected = {f"{scope}/{check}"
                        for scope in ("main", "layers" if trace else "setup")
                        for check in EXPECTED_CHECKS[name][scope]}
            if not expected <= ran:
                problems.append(f"{tag}: checks not run: {expected - ran}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: incorrect\n{r.stdout}")
            print(f"{tag}: ok ({len(result['metrics'])} metrics, "
                  f"{len(ran)} checks)")
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one sample per command, obqa_load at a tiny size")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        self_check()
    if args.workload is None:
        ap.error("--workload is required")
    global MIN_SAMPLES
    if args.tiny:
        MIN_SAMPLES = 1
    run(args)


if __name__ == "__main__":
    main()
