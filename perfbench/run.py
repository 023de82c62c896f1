#!/usr/bin/env python3
"""The repository benchmark: one TARDiS workload, measured end to end.

Run from the repository root:

    python3 perfbench/run.py --workload branch-merge --seed 1 --seconds 10 --trace 0

Builds the TARDiS sources and the perfbench generator with
perfbench/CMakeLists.txt (into $CARGO_TARGET_DIR, default .bench_build),
runs one workload, and prints a table of its metrics followed, as the last
line, by one JSON object:

    {"correct": true, "attempted": n, "failed": n, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. For site-pair this script starts and stops
the two tardisd sites; every process it starts is killed and waited for on
every exit path, and its scratch directory is removed. See README.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("branch-merge", "restart-read", "site-pair")

# site-pair set-up (two daemons up and meshed) is repeated this many times
# per run and the median reported; the last pair carries the load.
SITE_PAIR_SETUPS = 7
MESH_TIMEOUT_S = 20.0
# perfbench itself; the whole run must end within 180 s.
GENERATOR_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_quiet(cmd):
    """Runs a build step, its output to stderr so stdout stays the report."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def build(build_dir):
    run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", str(build_dir), "-j",
               str(os.cpu_count() or 1)])


def free_ports(n):
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def ask(port, line):
    """One line-protocol request; the first reply line, or None."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as s:
            s.sendall((line + "\n").encode())
            data = b""
            while b"\n" not in data:
                chunk = s.recv(4096)
                if not chunk:
                    break
                data += chunk
            return data.split(b"\n")[0].decode().strip()
    except OSError:
        return None


PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Runs in the child before exec: the kernel kills it if this script
    dies first, even by SIGKILL, which no finally block survives."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Processes:
    """Every child process of this run, killed and reaped on exit."""

    def __init__(self):
        self.live = []

    def spawn(self, cmd, **kwargs):
        proc = subprocess.Popen(cmd, preexec_fn=die_with_parent, **kwargs)
        self.live.append(proc)
        return proc

    def stop(self, procs):
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for proc in procs:
            proc.wait()
            if proc in self.live:
                self.live.remove(proc)

    def stop_all(self):
        self.stop(list(self.live))


def start_site_pair(procs, tardisd, scratch, attempt):
    """Starts two meshed tardisd sites; returns (processes, client ports,
    seconds from spawn until both report their peer connected)."""
    repl0, repl1, client0, client1 = free_ports(4)
    peers = "127.0.0.1:%d,127.0.0.1:%d" % (repl0, repl1)
    start = time.monotonic()
    pair = []
    for site, port in ((0, client0), (1, client1)):
        log = open(scratch / ("tardisd-%d-site%d.log" % (attempt, site)), "wb")
        pair.append(procs.spawn(
            [str(tardisd), "--site=%d" % site, "--peers=" + peers,
             "--client-port=%d" % port],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT))
        log.close()
    ready = set()
    while len(ready) < 2:
        for i, port in enumerate((client0, client1)):
            if pair[i].poll() is not None:
                raise BenchError("tardisd site %d exited with %d during start"
                                 % (i, pair[i].returncode))
            if i not in ready and ask(port, "peers") == "PEERS 1":
                ready.add(i)
        if time.monotonic() - start > MESH_TIMEOUT_S:
            raise BenchError("tardisd pair did not mesh within %.0f s"
                             % MESH_TIMEOUT_S)
        if len(ready) < 2:
            time.sleep(0.001)
    return pair, (client0, client1), time.monotonic() - start


def remove_stale_scratch(root):
    """Removes scratch directories left by runs that were killed outright."""
    for path in root.glob("perfbench-run-*"):
        pid = path.name.rsplit("-", 1)[1]
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def run_generator(procs, cmd):
    proc = procs.spawn(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=GENERATOR_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench did not finish within %.0f s"
                         % GENERATOR_TIMEOUT_S)
    finally:
        procs.stop([proc])
    if proc.returncode != 0:
        raise BenchError("perfbench exited with %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return lines[:-1], json.loads(lines[-1])


def measure(args, build_dir, scratch, procs):
    binary = build_dir / "perfbench"
    traces = build_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace, "--workdir=" + str(scratch),
           "--trace-out=" + str(traces / (args.workload + ".jsonl"))]
    if args.workload != "site-pair":
        return run_generator(procs, cmd)

    setups = []
    for attempt in range(SITE_PAIR_SETUPS):
        pair, ports, seconds = start_site_pair(
            procs, build_dir / "tardisd", scratch, attempt)
        setups.append(seconds)
        if attempt + 1 < SITE_PAIR_SETUPS:
            procs.stop(pair)
    cmd += ["--site0=127.0.0.1:%d" % ports[0], "--site1=127.0.0.1:%d" % ports[1]]
    info, result = run_generator(procs, cmd)
    procs.stop(pair)
    for proc in pair:
        if proc.returncode not in (0, -signal.SIGKILL):
            raise BenchError("tardisd exited with %d" % proc.returncode)
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    info.append("site-pair: set-up (spawn until meshed) %s s"
                % ", ".join("%.3f" % s for s in setups))
    return info, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    wanted = layer_names if args.trace else [m["name"] for m in spec["end_to_end"]]

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    build_dir = build_root() / "perfbench"
    build(build_dir)
    remove_stale_scratch(build_root())
    scratch = build_root() / ("perfbench-run-%d" % os.getpid())
    procs = Processes()
    try:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        info, result = measure(args, build_dir, scratch, procs)
    finally:
        procs.stop_all()
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise BenchError("perfbench did not report " + ", ".join(missing))
    for line in info:
        print(line)
    # The untraced table adds the workload-specific end-to-end figures
    # (undotted names) this workload measured to the bounded metrics.
    shown = wanted if args.trace else [
        n for n in metrics if n in wanted or n == "failed_frac"
        or ("." not in n and metrics[n]["value"] != 0)]
    for name in shown:
        print("  %-40s %16.6g %s" % (name, metrics[name]["value"],
                                     metrics[name]["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": attempted, "failed": failed,
                      "metrics": {n: metrics[n] for n in wanted}}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(1)
