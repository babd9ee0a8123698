"""Host process of the edit-while-browsing workload.

Usage: ``python3 perfbench/edit_host.py PLAN_JSON RESULT_JSON``

The plan names the graph file, the rounds (edge edits by vertex label,
then searches), and what to run:

* ``"measure"``: set up ``setups`` times (upload, CL-tree build, truss
  maintainer attach; the last set-up is kept), then run rounds for
  ``seconds``;
* ``"traced"``: set up once and run rounds for ``seconds`` untraced,
  then install the layer wrappers, set up again and run the same
  rounds traced, so the two wall times give the tracing overhead.

The program runs in this process alone, so its VmHWM is the program's.
"""

import gc
import json
import sys
import time

import layers


def status_kb(field):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError("no {} in /proc/self/status".format(field))


def setup(graph_path):
    from repro import CExplorer
    start = time.perf_counter()
    explorer = CExplorer()
    explorer.upload(graph_path, name="bench")
    explorer.index()
    gateway = explorer.truss_maintainer()
    return explorer, gateway, time.perf_counter() - start


def counters(explorer):
    """The same counter document ``/v1/metrics`` serves, minus the
    server's own request accounting (there is no server here)."""
    return {"requests": {}, "errors": 0, "cache": explorer.cache.stats(),
            "engine": explorer.engine.snapshot()}


def run_rounds(explorer, gateway, rounds, seconds=None, count=None):
    graph = explorer.graph
    ops = []
    start = time.perf_counter()
    done = 0
    for number, (edits, searches) in enumerate(rounds):
        if count is not None and done >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        steps = [(gateway.insert_edge if kind == "insert"
                  else gateway.remove_edge, graph.id_of(u), graph.id_of(v))
                 for kind, u, v in edits]
        began = time.perf_counter()
        try:
            for apply, u, v in steps:
                apply(u, v)
            ops.append({"round": number, "cls": "write",
                        "latency": time.perf_counter() - began, "ok": True})
        except Exception as exc:  # a failed write is a failed operation
            ops.append({"round": number, "cls": "write", "ok": False,
                        "latency": time.perf_counter() - began,
                        "error": repr(exc)})
        for position, search in enumerate(searches):
            cls = "read_after_write" if position == 0 else "search"
            began = time.perf_counter()
            try:
                communities = explorer.search(
                    search["algorithm"], search["name"], k=search["k"],
                    keywords=search["keywords"])
                latency = time.perf_counter() - began
                ops.append({"round": number, "cls": cls, "ok": True,
                            "latency": latency, "position": position,
                            "answer": [c.member_names()
                                       for c in communities]})
            except Exception as exc:
                ops.append({"round": number, "cls": cls, "ok": False,
                            "latency": time.perf_counter() - began,
                            "position": position, "error": repr(exc)})
        done += 1
    return ops, done, time.perf_counter() - start


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    import repro  # noqa: F401  (import cost is not set-up cost)
    rounds = plan["rounds"]
    out = {}
    if plan["mode"] == "measure":
        setups = []
        for number in range(plan["setups"]):
            if number:
                # Drop the previous set-up first, so VmHWM holds one.
                explorer.engine.shutdown()
                del explorer, gateway
                gc.collect()
            explorer, gateway, seconds = setup(plan["graph"])
            setups.append(seconds)
        ops, done, wall = run_rounds(explorer, gateway, rounds,
                                     seconds=plan["seconds"])
        out.update(setups=setups, ops=ops, rounds=done, wall=wall,
                   peak_rss_kb=status_kb("VmHWM"))
    else:
        explorer, gateway, _ = setup(plan["graph"])
        ops, done, untraced_wall = run_rounds(explorer, gateway, rounds,
                                              seconds=plan["seconds"])
        explorer.engine.shutdown()
        del explorer, gateway
        gc.collect()
        recorder = layers.Recorder()
        layers.install(recorder)
        explorer, gateway, _ = setup(plan["graph"])
        before = counters(explorer)
        window_start = time.perf_counter()
        ops, _, wall = run_rounds(explorer, gateway, rounds, count=done)
        window = (window_start, time.perf_counter())
        out.update(ops=ops, rounds=done, wall=wall,
                   untraced_wall=untraced_wall, window=window,
                   counters=[before, counters(explorer)],
                   spans=recorder.spans,
                   observations=recorder.observations)
    explorer.engine.shutdown()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
