#!/usr/bin/env python3
"""End-to-end simulator benchmark: build, run, check and report.

    python3 perfbench/run.py --workload soak|table4|dcscale --seed N \
        --seconds S --trace 0|1

Builds perfbench/probe.exe with dune, then measures the workload in
fresh probe processes, one run per process, for S seconds of runs. The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. See perfbench/README.md for every
metric's unit and source.

Exits non-zero without a result line when the probe cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe.exe")
TMP_PARENT = os.path.join(ROOT, ".perfbench-tmp")
WORKLOADS = ("soak", "table4", "dcscale")

# Fresh processes timed for set-up alone, spread evenly over the
# measuring window; each reports the median of its warm set-ups.
SETUP_SAMPLES = 12
# Inputs per invocation: soak's heavy-tailed traffic makes events and
# peak heap vary 4-10% from seed to seed, so it runs five sub-seeds
# derived from --seed and reports the median over them. dcscale's
# streams and table4 (fixed seed 42) do not depend on the seed.
SUBSEEDS = {"soak": 5, "table4": 1, "dcscale": 1}
SUBSEED_STRIDE = 7919
# Rounds (one run of every sub-seed) repeat until --seconds have passed
# and every input has run twice at least, so it has a repeat to compare
# slices with.
MIN_ROUNDS = 2
MAX_ROUNDS = 12
PROBE_TIMEOUT_S = 150

# lib/ libraries, in the order the per-layer self times are printed.
LIBRARIES = (
    "compute", "dcsim", "experiments", "fabric", "fastrak", "faults", "host",
    "netcore", "nic", "obs", "openflow", "rules", "shaping", "tcpmodel",
    "tor", "vswitch", "workloads",
)
# Module splits of the hot layers: "<library>.<module>".
MODULES = (
    "dcsim.event_queue", "dcsim.engine", "dcsim.cluster", "tor.vrf",
    "tor.tor_switch", "vswitch.ovs", "vswitch.flow_cache",
    "vswitch.flow_stats", "compute.cpu_pool",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def probe_env(events_dir):
    env = dict(os.environ)
    # The GC settings are part of what is measured: run every probe
    # under the runtime's defaults whatever the caller's shell sets.
    env.pop("OCAMLRUNPARAM", None)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events_dir
    return env


def spin():
    """Host seconds for a fixed CPU-bound loop: a gauge of how fast the
    current core runs right now."""
    t = time.perf_counter()
    x = 0
    for i in range(50000):
        x += i * i
    return time.perf_counter() - t


def quietest_cpu():
    """The CPU the next probe is pinned to. On a shared host each vCPU's
    speed swings with its neighbours' load, often one fast while the
    other is slow, so every probe starts on the one that spins fastest
    right now (about 20 ms of gauging). None where affinity is not
    supported or only one CPU is available."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(spin() for _ in range(3))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(speed, key=speed.get)


def build():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"  # keep every build artefact in the checkout
    # dune from PATH, or through opam when only opam is on PATH.
    dune = (["dune"] if shutil.which("dune") or not shutil.which("opam")
            else ["opam", "exec", "--", "dune"])
    cmd = dune + ["build", "--root", ".", "--display", "quiet",
                  "perfbench/probe.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=780)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    if p.returncode != 0 or not os.path.exists(PROBE):
        log(f"perfbench: build failed (dune exit {p.returncode})")
        return False
    return True


class Prober:
    """Runs probe processes one at a time and records failures."""

    def __init__(self, workload, events_dir):
        self.workload = workload
        self.events_dir = events_dir
        self.attempted = 0
        self.failures = []

    def run(self, mode, seed):
        self.attempted += 1
        cmd = [PROBE, self.workload, mode, str(seed)]
        cpu = quietest_cpu()
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=probe_env(self.events_dir),
                               capture_output=True, text=True,
                               timeout=PROBE_TIMEOUT_S, preexec_fn=pin)
        except subprocess.TimeoutExpired:
            return self.fail(mode, "timed out")
        if p.returncode != 0:
            return self.fail(mode, f"exit {p.returncode}: {p.stderr.strip()[-300:]}")
        try:
            out = json.loads(p.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.fail(mode, "no JSON result")
        if not out.get("ok"):
            return self.fail(mode, out.get("error") or out.get("violations"))
        return out

    def fail(self, mode, why):
        self.failures.append(f"{mode}: {why}")
        log(f"perfbench: FAILED {self.workload} {mode}: {why}")
        return None

    def check(self, cond, what):
        if not cond:
            self.failures.append(what)
            log(f"perfbench: FAILED {self.workload}: {what}")


def source_digest():
    """sha256 over the sources the probe is built from, for provenance
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=30)
        return p.stdout.strip() if p.returncode == 0 else None
    except OSError:
        return None


def provenance(args, pinned):
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "git_rev": rev or "unavailable (not a git checkout)",
        "source_sha256_16": source_digest(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]),
        "flambda": command_output(["ocamlfind", "ocamlopt", "-config-var",
                                   "flambda"]),
        "nproc": os.cpu_count(),
        "domains": 1,
        "workload": args.workload,
        "seed": args.seed,
        "table4_seed": "42 (Memcached_eval.build takes no seed; --seed "
                       "does not reach table4)",
        "pinned": pinned,
    }


def heap_mb(r):
    return r["top_heap_words"] * r["word_bytes"] / 1e6


def slices(runs):
    """Host seconds per slice of the simulated span (20 equal slices),
    taking for each slice the fastest of the input's repeats. Repeats
    do identical work in each slice, and co-tenants on a shared host
    only ever slow a slice down (a 2-vCPU guest was seen to flip
    between 1.0x and ~1.5x CPU speed for seconds at a time), so the
    per-slice minimum is the estimate of the program's own cost that
    least depends on the neighbours."""
    return [min(c) for c in zip(*(x["chunks_s"] for x in runs))]


def fastest(runs):
    """run_s of one input: its fastest slices, summed."""
    return sum(slices(runs))


def end_to_end(setups, runs):
    print("setup_s per process: " + " ".join(
        f"{s['setup_s']:.6f}" for s in setups))
    for seed, rs in runs.items():
        each = " ".join(f"{x['run_s']:.4f}" for x in rs)
        print(f"input seed={seed}: run_s {each}; slice-wise fastest "
              f"{fastest(rs):.4f}")
    return {
        "run_s": (median([fastest(rs) for rs in runs.values()]), "s"),
        "setup_s": (min(s["setup_s"] for s in setups), "s"),
        # Soak's start-detecting tick lands at a point that varies from
        # run to run and can move the heap ~1%: each input's figure is
        # its repeats' median.
        "peak_heap_mb": (median([median([heap_mb(x) for x in rs])
                                 for rs in runs.values()]), "MB"),
    }


def per_layer(setups, own, traced):
    r = own[0]  # simulated counts repeat exactly; digests are checked
    c = r["counters"]
    run_s = fastest(own)
    m = {
        "dcsim.events": (r["events"], "count"),
        "dcsim.events_per_s": (r["events"] / run_s, "1/s"),
        "dcsim.windows": (r["windows"], "count"),
        "dcsim.events_per_window": (
            r["events"] / r["windows"] if r["windows"] else 0.0, "count"),
        "tor.forwarded": (c["tor.forwarded"], "count"),
        "tor.vrf_entries_end": (
            c["tor.vrf.installs"] - c["tor.vrf.removes"], "count"),
        "tor.vrf_installs": (c["tor.vrf.installs"], "count"),
        "tor.vrf_removes": (c["tor.vrf.removes"], "count"),
        "tor.drops": (c["tor.acl_drops"] + c["tor.no_route_drops"], "count"),
        "tor.tcam_rejections": (c["tor.tcam.rejections"], "count"),
        "vswitch.tx_packets": (c["vswitch.tx_packets"], "count"),
        "vswitch.cache_hit_ratio": (c["vswitch.cache_hit_ratio"], "ratio"),
        "vswitch.cache_entries_end": (c["vswitch.cache_entries_end"], "count"),
        "vswitch.upcalls": (c["vswitch.upcalls"], "count"),
        "fastrak.promotions": (c["fastrak.promotions"], "count"),
        "fastrak.demotions": (c["fastrak.demotions"], "count"),
        "fastrak.decide_calls": (c["fastrak.decide.calls"], "count"),
        "fastrak.me_epochs": (c["fastrak.me.epochs"], "count"),
        "fastrak.directive_retries": (c["fastrak.directive_retries"], "count"),
        "fabric.core_routed": (c["fabric.core.routed"], "count"),
        "fabric.drops": (c["fabric.link.drops"] + c["fabric.channel.drops"]
                         + c["fabric.core.no_route_drops"]
                         + c["fabric.core.port_drops"], "count"),
        "nic.vf_tx_packets": (c["nic.vf_tx_packets"], "count"),
        "workloads.flows_attempted": (c["workloads.flows_attempted"], "count"),
        "workloads.flows_completed": (c["workloads.flows_completed"], "count"),
        "workloads.flows_shed": (c["workloads.flows_shed"], "count"),
        "runtime.minor_words_per_event": (
            r["minor_words_run"] / r["events"], "words"),
        "runtime.major_collections": (r["major_collections"], "count"),
        "setup.first_s": (median([s["setup_first_s"] for s in setups]), "s"),
        "setup.build_s": (median([s["build_s"] for s in setups]), "s"),
        "setup.controllers_s": (
            median([s["controllers_s"] for s in setups]), "s"),
        "experiments.paper_gap": (r.get("paper_gap", 0.0), "ratio"),
    }
    # Stack samples scaled to the traced run's wall time: the layers
    # sum to profile.run_s by construction.
    t_run = traced["run_s"]
    samples = traced["samples"]
    total = traced["samples_total"]

    def share(pred):
        n = sum(v for k, v in samples.items() if pred(k))
        return t_run * n / total if total else 0.0

    for lib in LIBRARIES:
        m[f"{lib}.self_s"] = (share(lambda k, lib=lib: k.split(".")[0] == lib), "s")
    m["other.self_s"] = (share(lambda k: k == "other"), "s")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (share(lambda k, mod=mod: k == mod), "s")
    m["profile.samples"] = (total, "count")
    m["profile.coverage"] = (
        1.0 - samples.get("other", 0) / total if total else 0.0, "ratio")
    m["profile.run_s"] = (t_run, "s")
    m["runtime.minor_s"] = (traced["minor_s"], "s")
    m["runtime.major_s"] = (traced["major_s"], "s")
    # Host seconds per simulated second, last quarter of the span over
    # the first, from the untraced runs' fastest slices.
    sl = slices(own)
    q = len(sl) // 4
    m["dcsim.slowdown"] = (sum(sl[-q:]) / sum(sl[:q]), "ratio")
    m["runtime.heap_growth_words_per_sim_s"] = (
        traced["heap_growth_words_per_sim_s"], "words/s")
    # Both sides single runs: the traced run against the median of the
    # same input's untraced repeats.
    m["trace_overhead"] = (t_run / median([x["run_s"] for x in own]), "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # On SIGTERM, unwind like an exception: subprocess.run kills and
    # reaps the running probe, and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        sys.exit(1)
    os.makedirs(TMP_PARENT, exist_ok=True)
    events_dir = tempfile.mkdtemp(prefix="events-", dir=TMP_PARENT)
    try:
        result = measure(args, events_dir)
    finally:
        leftover = [f for f in os.listdir(events_dir) if f.endswith(".events")]
        shutil.rmtree(events_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    if leftover:
        log(f"perfbench: removed leftover runtime-events files {leftover}")
    print(json.dumps(result))


def measure(args, events_dir):
    prober = Prober(args.workload, events_dir)
    subseeds = [args.seed + SUBSEED_STRIDE * i
                for i in range(SUBSEEDS[args.workload])]
    replay = (prober.run("replay", args.seed) if args.workload == "dcscale"
              else None)

    # Rounds of runs, with set-up samples taken at even steps of the
    # window between them, so every figure samples the whole window.
    runs = {s: [] for s in subseeds}
    setups = []
    start = time.monotonic()

    def take_setups(upto):
        while len(setups) < upto:
            x = prober.run("setup", args.seed)
            if x is None:
                return
            setups.append(x)

    def enough():
        return (time.monotonic() - start >= args.seconds
                and all(len(rs) >= MIN_ROUNDS for rs in runs.values()))

    for _ in range(MAX_ROUNDS):
        if enough():
            break
        for seed in subseeds:
            if enough():
                break
            r = prober.run("run", seed)
            elapsed = time.monotonic() - start
            take_setups(min(SETUP_SAMPLES,
                            int(SETUP_SAMPLES * elapsed / args.seconds)))
            if r is None:
                continue
            # A run whose simulated statistics differ from the first
            # run of this build and seed is a failure, not a sample.
            first = runs[seed][0] if runs[seed] else r
            if r["digest"] != first["digest"]:
                prober.check(False, f"seed {seed}: digest {r['digest']} != "
                                f"{first['digest']}")
                continue
            if replay is not None:
                prober.check(r["delivered_bytes"] == replay["delivered_bytes"],
                         "dcscale: sharded delivered bytes != single-engine "
                         f"replay ({r['delivered_bytes']} vs "
                         f"{replay['delivered_bytes']})")
            runs[seed].append(r)
            print(f"run seed={seed}: run_s={r['run_s']:.4f} "
                  f"events={r['events']} "
                  f"heap_mb={heap_mb(r):.3f} digest={r['digest']}")
    take_setups(SETUP_SAMPLES)
    own = runs[args.seed]

    traced = None
    if args.trace == 1 and own:
        traced = prober.run("traced", args.seed)
        if traced is not None:
            prober.check(traced["digest"] == own[0]["digest"],
                     "traced run's simulated digest differs from untraced")

    print("provenance: " + json.dumps(provenance(
        args, own[0]["pinned"] if own else None)))
    print(f"failed_share: {len(prober.failures)}/{prober.attempted}")

    # Without a successful run, set-up, replay (dcscale) or traced run
    # (--trace 1) there is nothing to report; the probe that failed is
    # already counted.
    metrics = {}
    if all(runs.values()) and setups and (
            replay is not None or args.workload != "dcscale"):
        if args.trace == 0:
            metrics = end_to_end(setups, runs)
        elif traced is not None:
            metrics = per_layer(setups, own, traced)
    return {
        "correct": not prober.failures and bool(metrics),
        "attempted": prober.attempted,
        "failed": len(prober.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    main()
