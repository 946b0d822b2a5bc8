"""Pure parts of the perfbench harness: workload table, seeded inputs,
per-round verification, order statistics and span-tree arithmetic.

run.py does the process work (build, spawn, time); everything here is a
function of its arguments, so perfbench/tests can check it on fixed data.
"""

import math
import random
import statistics

FACT10 = 3_628_800
FACT12 = 479_001_600

# Each sweep's input is a fixed graph whose node IDs the seed permutes; the
# totals checked below are invariant under that relabeling. rmat_bfs draws
# its graph and its random adversary from the seed instead.
WORKLOADS = {
    "sweep_exact": {
        "graph": "twocliques:5",
        "protocol": "two-cliques",
        "wbsim_adversary": "exhaustive:4:budget=4000000",
        "expect": {"executions": FACT10, "distinct": FACT10},
    },
    "fleet_hll": {
        "graph": "twocliques:5",
        "protocol": "two-cliques",
        "wbsim_adversary": "exhaustive:shards=4:budget=4000000:distinct=hll:14",
        "expect": {"executions": FACT10},
        "hll": {"precision": 14, "truth": FACT10},
    },
    "memo_grid": {
        "graph": "grid:3x4",
        "protocol": "anon-degree",
        "wbsim_adversary": "exhaustive:1:memoize:budget=1000000000",
        "expect": {"executions": FACT12, "distinct": 13_860},
    },
    "rmat_bfs": {
        "graph": "rmat:12:16:{seed}",
        "protocol": "sync-bfs",
        "wbsim_adversary": "random:{seed}",
    },
}


# --- Seeded inputs -----------------------------------------------------------

def permutation(n, seed):
    """perm[v - 1] is the new ID of node v (IDs are 1..n)."""
    perm = list(range(1, n + 1))
    random.Random(seed).shuffle(perm)
    return perm


def relabel_edge_list(text, seed):
    """Apply permutation(n, seed) to an "n m" + "u v" pairs edge list."""
    lines = text.split("\n")
    n, m = (int(x) for x in lines[0].split())
    perm = permutation(n, seed)
    edges = []
    for line in lines[1:]:
        if not line.strip():
            continue
        u, v = (perm[int(x) - 1] for x in line.split())
        edges.append((min(u, v), max(u, v)))
    if len(edges) != m:
        raise ValueError(f"edge list header says {m} edges, found {len(edges)}")
    edges.sort()
    return f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# --- Verification --------------------------------------------------------------

def hll_band(precision, truth):
    """3 standard errors of a 2^p-register HyperLogLog around `truth`."""
    return 3 * 1.04 / math.sqrt(2 ** precision) * truth


def verify_round(workload, exit_code, totals):
    """None if the round passes its workload's condition, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if totals is None:
        return "no result line"
    spec = WORKLOADS[workload]
    if workload == "rmat_bfs":
        if totals.get("status") != "success":
            return f"status {totals.get('status')}"
        if totals.get("correct") != 1 or "— valid" not in totals.get("verdict", ""):
            return "output is not a valid BFS forest"
        return None
    for key, want in spec["expect"].items():
        if totals.get(key) != want:
            return f"{key} = {totals.get(key)}, expected {want}"
    failures = totals.get("engine_failures", 0) + totals.get("wrong_outputs", 0)
    if failures != 0:
        return f"{failures} executions failed or were judged wrong"
    hll = spec.get("hll")
    if hll is not None:
        err = abs(totals.get("distinct", 0) - hll["truth"])
        if err > hll_band(hll["precision"], hll["truth"]):
            return f"hll estimate {totals.get('distinct')} outside 3 sigma of {hll['truth']}"
    return None


def crosscheck_lines(workload, wbsim_stdout):
    """The report lines of a `wbsim` run that a round's totals must equal."""
    keep = []
    for line in wbsim_stdout.splitlines():
        if workload == "rmat_bfs":
            if line.startswith("schedule   "):
                fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
                keep.append(f"rounds={fields.get('rounds')} writes={fields.get('writes')}")
            elif line.startswith("board      "):
                fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
                keep.append(f"bits={fields.get('bits')}")
            elif line.startswith("verdict    "):
                keep.append(line)
        elif line.startswith("schedules  ") or line.startswith("verdict    "):
            keep.append(line)
    return keep


def round_lines(workload, totals):
    """The same report lines, rendered from one round's totals."""
    if workload == "rmat_bfs":
        return [f"rounds={totals['engine_rounds']} writes={totals['writes']}",
                f"bits={totals['board_bits']}",
                totals["verdict"].rstrip("\n")]
    return totals["summary"].rstrip("\n").split("\n")


# --- Order statistics ------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values):
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


# --- Span-tree arithmetic -----------------------------------------------------

def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children(spans):
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] in kids:
            kids[s["parent"]].append(s)
    return kids


def self_times(spans):
    """Per span name: summed duration minus the part its children cover."""
    kids = children(spans)
    out = {}
    for s in spans:
        inner = [(c["start"], c["end"]) for c in kids[s["id"]]]
        own = (s["end"] - s["start"]) - covered(inner, s["start"], s["end"])
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def top_level_coverage(spans, wall_start, wall_end):
    """Share of the round's wall time covered by the spans under the root."""
    roots = [s for s in spans if s["parent"] == -1]
    kids = children(spans)
    inner = [(c["start"], c["end"]) for r in roots for c in kids[r["id"]]]
    return covered(inner, wall_start, wall_end) / (wall_end - wall_start)


def span_durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


# --- Per-layer metrics from one traced round ---------------------------------

def layer_metrics(trace):
    """Per-layer metrics of one traced round; layers that did not run read 0."""
    spans, counts = trace["spans"], trace["counts"]

    def span(name):
        return sum(span_durations(spans, name))

    def count(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0

    tasks = span_durations(spans, "exhaustive.task")
    shards = span_durations(spans, "fleet.shard")
    engine_rounds = count("engine.rounds")
    hits, states = count("memo.memo_hits"), count("memo.states_explored")
    return {
        "graph.build_s": span("graph.build"),
        "graph.bytes": count("graph.bytes"),
        "protocols.judge_s": count("protocols.judge_s"),
        "protocols.judge_calls": count("protocols.judge_calls"),
        "engine.rounds": engine_rounds,
        "engine.begin_round_s": count("engine.begin_round_s"),
        "engine.write_s": count("engine.write_s"),
        "engine.ns_per_round": ratio(span("engine.run") * 1e9, engine_rounds),
        "exhaustive.partition_s": span("exhaustive.partition"),
        "exhaustive.tasks": count("exhaustive.tasks"),
        "exhaustive.sweep_s": span("exhaustive.sweep"),
        "exhaustive.self_s": count("exhaustive.self_s"),
        "exhaustive.executions": count("exhaustive.executions"),
        "exhaustive.task_s.p50": median(tasks) if tasks else 0,
        "exhaustive.task_s.max": max(tasks) if tasks else 0,
        "exhaustive.worker_busy_frac": count("exhaustive.worker_busy_frac"),
        "distinct.inserts": count("distinct.inserts"),
        "distinct.insert_s": count("distinct.insert_s"),
        "distinct.merges": count("distinct.merges"),
        "distinct.merge_s": span("distinct.merge"),
        "distinct.key_bytes": count("distinct.key_bytes"),
        "distinct.useful_ratio": ratio(count("distinct.distinct"), count("distinct.inserts")),
        "memo.sweep_s": span("memo.sweep"),
        "memo.states_explored": states,
        "memo.memo_hits": hits,
        "memo.terminals_visited": count("memo.terminals_visited"),
        "memo.hit_ratio": ratio(hits, hits + states),
        "shard.plan_s": span("shard.plan"),
        "shard.serialize_s": span("shard.serialize"),
        "shard.parse_s": span("shard.parse"),
        "shard.merge_s": span("shard.merge"),
        "shard.spec_bytes": count("shard.spec_bytes"),
        "shard.result_bytes": count("shard.result_bytes"),
        "fleet.spawn_s": span("fleet.spawn"),
        "fleet.shard_s.p50": median(shards) if shards else 0,
        "fleet.shard_s.max": max(shards) if shards else 0,
        "fleet.tail_s": span("fleet.tail"),
        "fleet.reissues": count("fleet.reissues"),
        "fleet.workers_lost": count("fleet.workers_lost"),
    }


def serial_work_s(trace):
    """Sweep plus fold of a traced round: what exhaustive.speedup compares."""
    spans = trace["spans"]
    return sum(span_durations(spans, "exhaustive.sweep")) + \
        sum(span_durations(spans, "distinct.merge"))


def crosscheck(workload, wbsim_exit, wbsim_stdout, totals):
    """None if a verified round's totals render to the wbsim report's lines."""
    if wbsim_exit != 0:
        return f"wbsim exited {wbsim_exit}"
    if totals is None:
        return "no verified round to compare"
    want = crosscheck_lines(workload, wbsim_stdout)
    got = round_lines(workload, totals)
    return None if want == got else f"round {got} != wbsim {want}"


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s") or metric.startswith(("exhaustive.task_s.", "fleet.shard_s.")):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("ns_per_round"):
        return "ns"
    if metric.endswith(("_frac", "_ratio", ".speedup", ".coverage")):
        return "ratio"
    return "count"
