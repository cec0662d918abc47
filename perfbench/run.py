#!/usr/bin/env python3
"""dwt97 repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the library, the shipped tools and the benchmark helper from the
sources of this checkout (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), generates the workload's inputs from --seed,
computes golden answers through the reference paths, then measures.

--trace 0 drives the shipped binaries from outside: `dwt97d serve` as a
child process fed over loopback TCP by the helper's load generator, or
`faultcampaign` processes.  It prints the end-to-end metrics.
--trace 1 runs a short daemon session for the server counters and then the
helper's in-process layer probe, which wraps each library call in a span
and writes the spans as Chrome trace-event JSON.  It prints the per-layer
metrics.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
Exit status 0 on a correct run, 1 on any correctness failure, 2 when the
sources or the build are missing.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
TOOLS = os.path.join(BUILD, "tools")
PROBE = os.path.join(BUILD, "perfbench_probe")
DEFAULT_SEED = 1

# serve_frame: `dwt97d serve --workers 2` fed by 2 closed-loop connections.
FRAME_WORKERS = FRAME_CONNS = 2
# campaign: (design, hardening, trials) per faultcampaign run; one pair of
# runs is one request of the workload.
CAMPAIGNS = [(3, "none", 500000), (5, "tmr", 150000)]
CAMPAIGN_SAMPLES = 64          # faultcampaign's default samples per trial
FAULTS = "seu,glitch,sa0,sa1"
SETUP_REPEATS = {"serve_frame": 3, "campaign": 9}  # a 4K answer takes ~1 s
# The reference host's `perfbench_probe calib` time.  Timed end-to-end
# metrics are reported at that host speed: a run's wall times are scaled by
# REF_CALIB_MS over the median calib time of that run, which is sampled
# between its timed units.  The speed of a shared host drifts by tens of
# percent within an hour; the scaling takes most of that drift out.
REF_CALIB_MS = 30.0

WORKLOADS = ("serve_frame", "campaign")

END_TO_END = [
    ("throughput_mpix_s", "Mpix/s"), ("throughput_rps", "1/s"),
    ("trials_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("server.latency_p50_us", "us"), ("server.transport_ms", "ms"),
    ("server.decode_request_ms", "ms"), ("server.execute_request_ms", "ms"),
    ("server.encode_response_ms", "ms"), ("server.requests_ok", "count"),
    ("server.rejected", "count"), ("server.protocol_errors", "count"),
    ("dsp.read_pgm_ms", "ms"), ("dsp.level_shift_ms", "ms"),
    ("dsp.write_pgm_ms", "ms"), ("hw.tile_forward_ms", "ms"),
    ("hw.tile_inverse_ms", "ms"), ("hw.core_cycles", "count"),
    ("hw.line_passes", "count"), ("hw.tiles", "count"),
    ("hw.host_ns_per_cycle", "ns"), ("codec.encode_ms", "ms"),
    ("core.design_build_ms", "ms"), ("core.tape_build_ms", "ms"),
    ("core.native_build_ms", "ms"), ("core.cone_build_ms", "ms"),
    ("core.mapped_build_ms", "ms"), ("core.cache_builds", "count"),
    ("core.cache_hits", "count/req"), ("rtl.tape_instructions", "count"),
    ("rtl.interp_over_native", "ratio"), ("rtl.threaded_over_interp", "ratio"),
    ("explore.instructions_full", "count"), ("explore.instructions_cone", "count"),
    ("explore.cone_instr_ratio", "ratio"), ("explore.masked", "count"),
    ("explore.detected", "count"), ("explore.sdc", "count"),
    ("explore.full_over_cone", "ratio"),
    ("fpga.d3.logic_elements", "count"), ("fpga.d3.fmax_mhz", "MHz"),
    ("fpga.d3.logic_elements_abs_err_pct", "%"), ("fpga.d3.fmax_abs_err_pct", "%"),
    ("fpga.d5.logic_elements", "count"), ("fpga.d5.fmax_mhz", "MHz"),
    ("fpga.d5.logic_elements_abs_err_pct", "%"), ("fpga.d5.fmax_abs_err_pct", "%"),
    ("trace.overhead_pct", "%"), ("host.parallel_capacity", "cores"),
]

# Simulated statistics that must repeat exactly.  SHAPE_PINNED depend only
# on request shapes and designs; SEED_PINNED also on the fault schedule, so
# they are checked for the default seed only.
SHAPE_PINNED = ("hw.core_cycles", "hw.line_passes", "hw.tiles",
                "rtl.tape_instructions", "fpga.d3.logic_elements",
                "fpga.d3.fmax_mhz", "fpga.d5.logic_elements", "fpga.d5.fmax_mhz")
SEED_PINNED = ("explore.masked", "explore.detected", "explore.sdc",
               "explore.instructions_full", "explore.instructions_cone")

LIVE = []  # child processes still running


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    """Missing sources or a failed build: no result line, exit 2."""
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def run(cmd, **kw):
    """Runs a helper command to completion; raises on a nonzero exit."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       env=child_env(), timeout=kw.pop("timeout", 170), **kw)
    if p.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (os.path.basename(cmd[0]),
                                                 p.returncode,
                                                 p.stderr.decode()[-400:]))
    return p.stdout


def child_env():
    env = dict(os.environ)
    env.pop("DWT_EXEC_TIER", None)  # every tier choice stays the shipped default
    return env


# --------------------------------------------------------------------------
# Build

def build():
    for rel in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/dwt97d.cpp",
                "tools/faultcampaign.cpp", "tools/dwt97cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail_setup("repository sources missing (%s); run from a full checkout" % rel)
    if shutil.which("cmake") is None:
        fail_setup("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logf, "ab") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "dwt97d", "dwt97cli", "faultcampaign", "perfbench_probe"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                fail_setup("build failed; see " + logf)


# --------------------------------------------------------------------------
# Host fingerprint

def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    spin = json.loads(run([PROBE, "spin", str(nproc)]))
    log("host: cpu=%r nproc=%d parallel_capacity=%.2f of %d (serial %.1f ms, "
        "%d threads %.1f ms)" % (model, nproc, spin["capacity"], nproc,
                                 spin["serial_ms"], nproc, spin["parallel_ms"]))
    if spin["capacity"] < 0.75 * nproc:
        log("host: note: %d threads deliver %.2f cores; concurrent load shares "
            "them, so timings here do not show thread scaling"
            % (nproc, spin["capacity"]))
    return spin["capacity"]


class Calibration:
    """Host-speed samples of one run (`perfbench_probe calib`: a fixed
    single-thread spin, streaming pass and dependent walk, none of it the
    code under test)."""

    def __init__(self):
        self.ms = []

    def sample(self):
        self.ms.append(json.loads(run([PROBE, "calib"]))["ms"])

    def scale(self):
        """Reference-host seconds per wall second of this run."""
        return REF_CALIB_MS / statistics.median(self.ms)

    def report(self, workload):
        log("%s: calib median %.3f ms over %d samples (min %.3f, max %.3f); "
            "timings scaled by %.4f to the %.1f ms reference" % (
                workload, statistics.median(self.ms), len(self.ms), min(self.ms),
                max(self.ms), self.scale(), REF_CALIB_MS))


# --------------------------------------------------------------------------
# Inputs and golden answers

def derive(seed, k):
    return seed * 1000003 + k


class Case:
    def __init__(self, name, weight, op, backend, design, octaves, image):
        self.name, self.weight, self.op = name, weight, op
        self.backend, self.design, self.octaves = backend, design, octaves
        self.image = image
        self.expected = image + "." + op + "-" + (backend or "default") + \
            "-d%d-o%d.gold" % (design, octaves)

    def line(self):
        return "%s %r %s %s %d %d %s %s" % (
            self.name, self.weight, self.op, self.backend or "-", self.design,
            self.octaves, self.image, self.expected)

    def config(self):
        return (self.backend, self.design, self.octaves)


def make_cases(workload, seed, work):
    """Seeded requests as Case objects; the helper writes their images.
    `serve_frame` is the served workload.  `small` (thumbnails and odd
    sizes) rides along at weight 0 in its traced run, for the per-request
    server steps and the codec; `tile_rtl` (gate-level forwards) in the
    traced campaign run."""
    gens, cases = [], []

    def image(tag, w, h, k):
        path = os.path.join(work, "%s-%dx%d.pgm" % (tag, w, h))
        gens.append("gen %s %d %d %d" % (path, w, h, derive(seed, k)))
        return path

    if workload == "serve_frame":
        for k in range(2):
            cases.append(Case("frame%d_tile" % k, 1.0, "tile", "", 2, 2,
                              image("frame%d" % k, 3840, 2160, k)))
    elif workload == "small":
        thumbs = [image("thumb%d" % k, 64, 64, k) for k in range(8)]
        for op in ("tile", "forward", "compress"):
            for k, path in enumerate(thumbs):
                cases.append(Case("thumb%d_%s" % (k, op), 0.0, op, "", 2, 2, path))
        for (w, h, k) in ((33, 17, 20), (129, 97, 21), (511, 255, 22)):
            cases.append(Case("odd%dx%d_tile" % (w, h), 0.0, "tile", "", 2, 2,
                              image("odd", w, h, k)))
    elif workload == "tile_rtl":
        for k in range(4):
            design = 3 if k % 2 == 0 else 5
            cases.append(Case("plane%d_d%d_forward" % (k, design), 1.0, "forward",
                              "rtl-compiled", design, 2,
                              image("plane%d" % k, 256, 256, k)))
    with open(os.path.join(work, "gen.txt"), "w") as f:
        f.write("\n".join(gens) + "\n")
    run([PROBE, "batch", os.path.join(work, "gen.txt")])
    return cases


def make_goldens(cases, work, name="cases.txt"):
    """Reference answers: `dwt97cli tile --threads 1` for tile requests,
    `dwt97cli compress` for compress, and software-fixed hw::tile_forward
    (the helper's `forward`) for every forward request, whatever backend
    serves it."""
    forwards = []
    done = set()
    for c in cases:
        if c.expected in done or os.path.exists(c.expected):
            continue
        done.add(c.expected)
        if c.op == "tile":
            run([os.path.join(TOOLS, "dwt97cli"), "tile", c.image, c.expected,
                 "--octaves", str(c.octaves), "--threads", "1"])
        elif c.op == "compress":
            run([os.path.join(TOOLS, "dwt97cli"), "compress", c.image, c.expected,
                 "--octaves", str(c.octaves)])
        else:
            forwards.append("forward %s %s %d" % (c.image, c.expected, c.octaves))
    if forwards:
        path = os.path.join(work, "forward.txt")
        with open(path, "w") as f:
            f.write("\n".join(forwards) + "\n")
        run([PROBE, "batch", path])
    path = os.path.join(work, name)
    with open(path, "w") as f:
        f.write("\n".join(c.line() for c in cases) + "\n")
    return path


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_anchor(workload, work, pinned, result):
    """Builds the golden answers of the default seed and compares their
    digests with pinned.json, under every seed.  The reference paths share
    code with the measured program (the tile pipeline, the codec, the
    campaign engine), so a change that breaks that code would otherwise be
    wrong on both sides and pass."""
    anchor = os.path.join(work, "anchor")
    os.makedirs(anchor)
    if workload == "campaign":
        goldens = campaign_goldens(DEFAULT_SEED, anchor)
        check_campaign_pins(goldens, pinned, result)
        files = [p for pair in goldens for p in pair]
    else:
        cases = (make_cases(workload, DEFAULT_SEED, anchor) +
                 make_cases("small", DEFAULT_SEED, anchor))
        make_goldens(cases, anchor)
        files = sorted(set(c.expected for c in cases))
    got = {os.path.basename(p): sha256(p) for p in files}
    want = pinned["golden_sha256"][workload]
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            result["correct"] = False
            log("golden answer changed: %s %s sha256 %s, pinned %s" % (
                workload, name, got.get(name), want.get(name)))
    shutil.rmtree(anchor)


# --------------------------------------------------------------------------
# dwt97d driving

OPS = {"tile": 1, "forward": 2, "compress": 3, "metrics": 4, "shutdown": 5}


def request_frame(op, backend="", design=2, octaves=2, payload=b""):
    """A length-prefixed protocol v1 request (see src/server/protocol.hpp):
    version, op, format PGM, design, opt level 2, octaves, tile, width and
    height 0 (the PGM carries them), backend name, payload."""
    name = backend.encode()
    body = struct.pack("<BBBBBBHHHB", 1, OPS[op], 1, design, 2, octaves, 0, 0, 0,
                       len(name)) + name + payload
    return struct.pack("<I", len(body)) + body


def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise RuntimeError("dwt97d closed the connection")
        buf += chunk
    return bytes(buf)


def exchange(port, frame):
    """One request on a fresh connection: (status, payload)."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.sendall(frame)
        (n,) = struct.unpack("<I", recv_exact(s, 4))
        body = recv_exact(s, n)
    status = body[1]
    return status, body[7:] if status == 0 else body[2:]


class Daemon:
    """`dwt97d serve` on a kernel-assigned loopback port."""

    def __init__(self, workers):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(TOOLS, "dwt97d"), "serve", "--port", "0", "--workers",
             str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env())
        LIVE.append(self.proc)
        self.maxrss_mb, self.cpu_s = 0.0, 0.0
        # The daemon announces "listening on 127.0.0.1:PORT" once it accepts;
        # blocking on that line times the start without polling.
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "127.0.0.1:" not in line:
            raise RuntimeError("dwt97d did not start")
        self.port = int(line.split("127.0.0.1:")[1].split()[0])

    def metrics(self):
        """Server records of the `metrics` op, by metric name."""
        status, payload = exchange(self.port, request_frame("metrics"))
        if status != 0:
            raise RuntimeError("metrics op failed")
        out = {}
        for rec in json.loads(payload)["records"]:
            if rec["design"] == "server":
                out[rec["metric"]] = rec["value"]
        return out

    def stop(self):
        exchange(self.port, request_frame("shutdown"))
        self.maxrss_mb, self.cpu_s = reap(self.proc, 60)


def reap(proc, timeout):
    """Waits for a child; returns its peak RSS in MB (ru_maxrss) and the
    CPU seconds it used."""
    if proc.returncode is not None:  # already reaped by Popen.poll()
        if proc in LIVE:
            LIVE.remove(proc)
        return 0.0, 0.0
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = -9
            break
        time.sleep(0.005)
    if proc in LIVE:
        LIVE.remove(proc)
    if proc.stdout is not None:
        proc.stdout.close()
    return ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime


def first_answers(daemon, cases):
    """Sends the first case of each configuration; True when every answer
    matches its golden bytes."""
    seen = set()
    ok = True
    for c in cases:
        if c.config() in seen:
            continue
        seen.add(c.config())
        with open(c.image, "rb") as f:
            payload = f.read()
        status, body = exchange(daemon.port, request_frame(
            c.op, c.backend, c.design, c.octaves, payload))
        with open(c.expected, "rb") as f:
            ok = ok and status == 0 and body == f.read()
    return ok


def load(cases_path, daemon, seconds):
    cmd = [PROBE, "load", "--port", str(daemon.port), "--cases", cases_path,
           "--conns", str(FRAME_CONNS), "--seconds", str(seconds)]
    return json.loads(run(cmd, timeout=150))


def tail(latencies):
    """The highest of p99.9, p99 and p90 with at least 50 samples beyond
    it, else p75.  Not the rank with ten beyond: on a shared host the
    slowest dozen answers of a run are its stalls.  Returns (quantile,
    value)."""
    s = sorted(latencies)
    q = next((q for q in (0.999, 0.99, 0.9) if round(len(s) * (1 - q), 6) >= 50), 0.75)
    return q, s[max(1, math.ceil(q * len(s))) - 1]


def run_served(seed, seconds, trace, work, result):
    cases = make_cases("serve_frame", seed, work)
    cases_path = make_goldens(cases, work)
    if trace:
        return traced_served(cases, seed, seconds, work, result)
    calib = Calibration()
    setups = []
    daemon = None
    repeats = SETUP_REPEATS["serve_frame"]
    for i in range(repeats):
        for _ in range(3):
            calib.sample()
        daemon = Daemon(FRAME_WORKERS)
        if not first_answers(daemon, cases):
            result["correct"] = False
            log("setup: first answer does not match its golden bytes")
        setups.append(time.perf_counter() - daemon.t0)
        if i + 1 < repeats:
            daemon.stop()
    stats = load(cases_path, daemon, seconds)
    server = daemon.metrics()
    daemon.stop()
    for _ in range(9):
        calib.sample()
    scale = calib.scale()
    calib.report("serve_frame")

    bad = stats["mismatched"] + stats["warmup_errors"]
    result["attempted"] += stats["attempted"]
    result["failed"] += (stats["attempted"] - stats["ok"])
    if bad or server.get("protocol_errors", 0):
        result["correct"] = False
    lat = stats["latency_ms"]
    if not lat:
        raise RuntimeError("no request completed")
    q, tail_ms = tail(lat)
    m = result["metrics"]
    m["throughput_mpix_s"] = stats["throughput_mpix_s"] / scale
    m["throughput_rps"] = stats["throughput_rps"] / scale
    m["trials_per_s"] = m["throughput_rps"]
    m["latency_p50_ms"] = statistics.median(lat) * scale
    m["latency_tail_ms"] = tail_ms * scale
    m["setup_s"] = statistics.median(setups) * scale
    m["peak_rss_mb"] = daemon.maxrss_mb
    log("serve_frame: unscaled p50 %.4f ms, tail %.4f ms, setup %.5f s, "
        "%.4f Mpix/s" % (statistics.median(lat), tail_ms, statistics.median(setups),
                         stats["throughput_mpix_s"]))
    log("serve_frame: %d attempted, %d ok, %d mismatched, %d rejected, %d failed; "
        "dwt97d used %.2f CPU s" % (stats["attempted"], stats["ok"],
                                    stats["mismatched"], stats["rejected"],
                                    stats["failed"], daemon.cpu_s))
    log("serve_frame: latency_tail_ms is p%.2f over %d samples; %.3f answers/s "
        "counted over the run; setups %s s" % (
            100 * q, len(lat), stats["count_rps"],
            ", ".join("%.4f" % s for s in setups)))
    for name, c in stats["per_case"].items():
        if c["n"]:
            log("  %-22s n=%-6d p50 %.3f ms" % (name, c["n"], c["p50_ms"]))


def traced_served(cases, seed, seconds, work, result):
    daemon = Daemon(FRAME_WORKERS)
    stats = load(os.path.join(work, "cases.txt"), daemon, max(2.0, seconds / 2.0))
    server = daemon.metrics()
    daemon.stop()
    # The small shapes ride along at weight 0: printed per shape, outside
    # the request mix, and the source of the codec figure.
    cases_path = make_goldens(cases + make_cases("small", seed, work), work,
                              "probe_cases.txt")
    result["attempted"] += stats["attempted"]
    result["failed"] += stats["attempted"] - stats["ok"]
    if stats["mismatched"] or stats["warmup_errors"]:
        result["correct"] = False
    m = result["metrics"]
    client_p50 = statistics.median(stats["latency_ms"])
    m["server.latency_p50_us"] = server["latency_p50_us"]
    m["server.transport_ms"] = client_p50 - server["latency_p50_us"] / 1000.0
    m["server.requests_ok"] = server["requests_ok"]
    m["server.rejected"] = server["rejected_queue_full"] + server["rejected_shutting_down"]
    m["server.protocol_errors"] = server["protocol_errors"]
    probe_trace(["--workload", "serve_frame", "--cases", cases_path,
                 "--budget", str(max(2.0, seconds / 2.0))], "serve_frame", seed, work,
                result)


# --------------------------------------------------------------------------
# faultcampaign driving

def campaign_cmd(design, harden, trials, seed, out, cone=True):
    cmd = [os.path.join(TOOLS, "faultcampaign"), "--design", str(design),
           "--faults", FAULTS, "--trials", str(trials), "--seed", str(seed),
           "--threads", "2", "--no-trial-list", "--out", out]
    if harden != "none":
        cmd += ["--harden", harden]
    if not cone:
        cmd.append("--no-cone")
    return cmd


def timed_campaign(cmd):
    """Runs one faultcampaign; returns (seconds, peak RSS MB, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=child_env())
    LIVE.append(proc)
    rss, _ = reap(proc, 170)
    return time.perf_counter() - t0, rss, proc.returncode


def same_file(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def campaign_goldens(seed, work):
    """Reference reports: each campaign, at full size and at 256 trials, with
    the cone restriction off.  Returns (full, small) paths per campaign."""
    goldens = []
    for k, (design, harden, trials) in enumerate(CAMPAIGNS):
        gold = os.path.join(work, "golden%d.json" % k)
        run(campaign_cmd(design, harden, trials, seed, gold, cone=False))
        small = os.path.join(work, "golden_small%d.json" % k)
        run(campaign_cmd(design, harden, 256, seed, small, cone=False))
        goldens.append((gold, small))
    return goldens


def run_campaign(seed, seconds, trace, work, result):
    if trace:
        # The compiled engine's streaming layer rides along: the tile_rtl
        # forwards through hw::tile_forward, checked against their goldens.
        cases_path = make_goldens(make_cases("tile_rtl", seed, work), work)
        spec = ",".join("%d:%s:%d" % c for c in CAMPAIGNS)
        return probe_trace(["--workload", "campaign", "--campaign", spec,
                            "--seed", str(seed), "--threads", "2",
                            "--cases", cases_path], "campaign", seed, work, result)
    goldens = campaign_goldens(seed, work)
    m = result["metrics"]
    out = os.path.join(work, "report.json")
    calib = Calibration()
    # Set-up: spawn to first correct report of each configuration.
    setups = []
    for _ in range(SETUP_REPEATS["campaign"]):
        calib.sample()
        total = 0.0
        for k, (design, harden, _) in enumerate(CAMPAIGNS):
            dt, _, rc = timed_campaign(campaign_cmd(design, harden, 256, seed, out))
            total += dt
            if rc != 0 or not same_file(out, goldens[k][1]):
                result["correct"] = False
        setups.append(total)
    pairs, rss, trials = [], 0.0, 0
    t_start = time.perf_counter()
    while not pairs or time.perf_counter() - t_start < seconds:
        calib.sample()
        pair = 0.0
        for k, (design, harden, n) in enumerate(CAMPAIGNS):
            result["attempted"] += 1
            dt, peak, rc = timed_campaign(campaign_cmd(design, harden, n, seed, out))
            pair += dt
            rss = max(rss, peak)
            if rc != 0:
                result["failed"] += 1
                result["correct"] = False
            elif not same_file(out, goldens[k][0]):
                result["failed"] += 1
                result["correct"] = False
            else:
                trials += n
        pairs.append(pair)
    # Rates from the median pair, so one stalled pair on a shared host does
    # not move them.
    scale = calib.scale()
    calib.report("campaign")
    elapsed = sum(pairs)
    pair_trials = sum(c[2] for c in CAMPAIGNS)
    p50 = statistics.median(pairs) * scale
    q, tail_s = tail(pairs)
    m["throughput_mpix_s"] = pair_trials * CAMPAIGN_SAMPLES / p50 / 1e6
    m["throughput_rps"] = 1.0 / p50
    m["trials_per_s"] = pair_trials / p50
    m["latency_p50_ms"] = p50 * 1e3
    m["latency_tail_ms"] = tail_s * scale * 1e3
    m["setup_s"] = statistics.median(setups) * scale
    m["peak_rss_mb"] = rss
    log("campaign: %d pairs (%s), %d trials in %.3f s; tail is p%.0f; unscaled "
        "pair p50 %.4f s; setups %s s" % (
            len(pairs), " + ".join("D%d/%s x%d" % c for c in CAMPAIGNS), trials,
            elapsed, 100 * q, statistics.median(pairs),
            ", ".join("%.4f" % s for s in setups)))


def check_campaign_pins(goldens, pinned, result):
    """Simulated statistics of the default seed's golden reports against the
    pinned ones."""
    got = {}
    for (design, _, _), (gold, _) in zip(CAMPAIGNS, goldens):
        with open(gold) as f:
            rep = json.load(f)
        got["fpga.d%d.logic_elements" % design] = rep["baseline"]["logic_elements"]
        got["fpga.d%d.fmax_mhz" % design] = rep["baseline"]["fmax_mhz"]
        for k in ("masked", "detected", "sdc"):
            got["explore." + k] = got.get("explore." + k, 0) + rep["outcomes"][k]
        for k in ("instructions_full", "instructions_cone"):
            got["explore." + k] = got.get("explore." + k, 0) + rep["cone"][k]
    compare_pins("campaign", got, DEFAULT_SEED, pinned, result)


def compare_pins(workload, got, seed, pinned, result):
    want = pinned.get(workload, {})
    names = list(SHAPE_PINNED) + (list(SEED_PINNED) if seed == DEFAULT_SEED else [])
    for name in names:
        if name in want and name in got and abs(got[name] - want[name]) > 1e-3:
            result["correct"] = False
            log("pinned statistic changed: %s %s = %r, pinned %r"
                % (workload, name, got[name], want[name]))


# --------------------------------------------------------------------------
# Traced in-process run

def probe_trace(args, workload, seed, work, result):
    spans = os.path.join(BUILD, "spans-%s-%d.json" % (workload, seed))
    out = json.loads(run([PROBE, "trace", "--spans", spans] + args, timeout=170))
    m = result["metrics"]
    m.update(out["metrics"])
    for d in (3, 5):
        acc = out["shapes"].get("fpga.d%d" % d)
        if acc:
            log("accuracy (unvalidated model, no silicon measurement): Design %d "
                "%d LEs / %.1f MHz modeled vs paper Table 3 %d LEs / %.1f MHz: "
                "%+.1f%% LEs, %+.1f%% f_max" % (
                    d, acc["logic_elements"], acc["fmax_mhz"],
                    acc["paper_logic_elements"], acc["paper_fmax_mhz"],
                    acc["logic_elements_err_pct"], acc["fmax_err_pct"]))
    checks = out["checks"]
    for name, n in checks.items():
        if n:
            log("trace check failed: %s = %d" % (name, n))
            if name != "prebuild_misses":
                result["correct"] = False
    result["attempted"] += 1
    compare_pins(workload, m, seed, load_pinned(), result)
    log("spans: %s (Chrome trace-event JSON)" % spans)
    log("self time by span (ms):")
    for name, ms in sorted(out["self_ms"].items(), key=lambda kv: -kv[1])[:16]:
        log("  %-36s %10.3f" % (name, ms))
    for shape, stages in out["shapes"].items():
        log("shape %s: %s" % (shape, ", ".join(
            "%s=%.4g" % kv for kv in sorted(stages.items()))))


def load_pinned():
    with open(os.path.join(BENCH_DIR, "pinned.json")) as f:
        return json.load(f)


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        capacity = host_fingerprint()
        check_anchor(args.workload, work, load_pinned(), result)
        if args.workload == "campaign":
            run_campaign(args.seed, args.seconds, args.trace, work, result)
        else:
            run_served(args.seed, args.seconds, args.trace, work, result)
    finally:
        for proc in list(LIVE):
            proc.kill()
            reap(proc, 10)
        shutil.rmtree(work, ignore_errors=True)  # inputs and goldens, up to 50 MB
    m = result["metrics"]
    if args.trace:
        m["host.parallel_capacity"] = capacity
        names = PER_LAYER
    else:
        names = END_TO_END
    metrics = {name: {"value": float(m.get(name, 0.0)), "unit": unit}
               for name, unit in names}
    for name, unit in names:
        log("%-40s %16.6f %s" % (name, metrics[name]["value"], unit))
    if result["attempted"] > 0:
        log("error_rate %.6f (%d failed of %d attempted)" % (
            result["failed"] / result["attempted"], result["failed"],
            result["attempted"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
