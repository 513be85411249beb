#!/usr/bin/env python3
"""Assert bench reports clear their acceptance bars.

Usage: scripts/bench_gate.py <BENCH_B3.json> [<BENCH_B5.json> ...]

Each report is dispatched on its "bench" field.

B3 gates (smoke and full mode alike):
  * census_states_match is true — the DFS engine's state count on the
    hot-path instance equals an independent reference explorer's, with
    and without table pre-sizing (differential soundness);
  * reduction_factor >= 5 — symmetry shrinks the symmetric reference
    instance by at least 5x;
  * ir_census_match is true — the IrMachine interpreter and the retired
    hand-written machines explore the identical state graph;
  * ir_overhead <= 0.02 — the ffgen-GENERATED machines machine_factory
    selects cost at most 2% over the hand-written machines, as the
    median of paired rounds of random-walk campaigns on the hot-path
    instance (a walk steps a machine on every transition; the
    exhaustive engines step memoized lanes and would time themselves).
    The rounds' min and max are printed beside it, not gated; the
    interpreter's cost is reported separately as interpreter_overhead,
    informational;
  * codegen_census_match is true — generated and interpreted machines
    produce the identical census for every simulable registry protocol;
  * immune_census_match is true — skipping overriding-fault branches on
    ffcheck's proved-immune objects leaves the census bit-identical for
    every simulable registry protocol;
  * immune_prune_factor >= 1.0 — the A2 pruning never adds work
    ((checks+skips)/checks; > 1 whenever an immunity proof fired).

B5 gates:
  * crash_free_census_match is true for every crash_growth_* section —
    crash budget 0 reproduces the non-recoverable original's census
    exactly (the crash plumbing is free when unused);
  * every growth_factor_* >= 1 and the budget-1 growth stays under
    MAX_CRASH_GROWTH_B1 — the crash branch grows the state space but
    must not blow it up on the reference instances;
  * every explore completed (complete_b0/b1/b2 all true);
  * recoverable_latency.all_ok is true and total_crashes > 0 — every
    thread trial reached consensus AND real crash/restart cycles ran.

B6 gates:
  * throughput.speedup >= 0.65 — the owner-computes frontier explorer
    on every hardware thread reaches at least 0.65x the states/sec of
    the sequential DFS on one thread, on the staged f=1 t=2
    distinct-inputs instance (median of paired per-round ratios; the min
    and max ratio are printed beside it, not gated).  The bar is the
    former one, 2.0x the states/sec of the deleted work-stealing
    parallel DFS, translated onto the DFS: that engine ran at
    r = 0.324x the DFS's states/sec (median of 30 paired rounds on a
    4-vCPU host), and 2.0 x r = 0.647, rounded up.  It is an interim
    floor: the frontier's exit bar, 2x the DFS, replaces it once the
    frontier meets that;
  * throughput.census_match is true — the frontier census stayed
    census_equal to the DFS's, the oracle, on every round;
  * throughput.complete is true — both engines covered the whole
    reachable space within limits on every round.
  throughput.bytes_ratio (frontier ÷ DFS peak_bytes) is printed beside
  them, not gated.

B7 gates:
  * speedup >= 100 — re-running the reference job against a warm census
    cache (cold_seconds / warm_seconds, warm = median of the warm reps)
    must beat re-exploring by two orders of magnitude;
  * report_match is true — the warm Report's canonical JSON is
    byte-identical to the cold run's;
  * cache_hit is true and zero_fresh_states is true — the warm runs
    were answered by the cache without expanding a single state;
  * cold_was_hit is false — the cold run really ran (fresh directory).

Exit status: 0 when all gates hold, 1 when any fails, 2 when a report
is unreadable or missing a gated field.
"""
import json
import sys

MIN_REDUCTION_FACTOR = 5.0
MAX_IR_OVERHEAD = 0.02
MAX_CRASH_GROWTH_B1 = 64.0
MIN_IMMUNE_PRUNE_FACTOR = 1.0
MIN_FRONTIER_SPEEDUP = 0.65
MIN_WARM_SPEEDUP = 100.0


def gate_b3(report):
    factor = float(report["reduction_factor"])
    census_ok = bool(report["census_states_match"])
    reduced = int(report["reduced"]["peak_states"])
    unreduced = int(report["unreduced"]["peak_states"])
    ir_overhead = float(report["ir_overhead"])
    ir_census_ok = bool(report["ir_census_match"])
    codegen_census_ok = bool(report["codegen_census_match"])
    interp_overhead = float(report.get("interpreter_overhead", 0.0))
    immune_census_ok = bool(report["immune_census_match"])
    immune_factor = float(report["immune_prune_factor"])

    overhead_min = float(report.get("ir_overhead_min", ir_overhead))
    overhead_max = float(report.get("ir_overhead_max", ir_overhead))

    mode = "smoke" if report.get("smoke") else "full"
    print(f"bench gate B3 ({mode}): reduction {unreduced} -> {reduced} "
          f"states ({factor:.2f}x), census match: {census_ok}, "
          f"generated overhead: {ir_overhead:.3f} (min {overhead_min:.3f}, "
          f"max {overhead_max:.3f}; interpreter: "
          f"{interp_overhead:.3f}), ir census match: {ir_census_ok}, "
          f"codegen census match: {codegen_census_ok}, immune prune "
          f"{immune_factor:.2f}x (census match: {immune_census_ok})")

    failed = False
    if not census_ok:
        print("bench_gate: FAIL — reduced census diverges from unreduced",
              file=sys.stderr)
        failed = True
    if factor < MIN_REDUCTION_FACTOR:
        print(f"bench_gate: FAIL — reduction factor {factor:.2f} < "
              f"{MIN_REDUCTION_FACTOR}", file=sys.stderr)
        failed = True
    if not ir_census_ok:
        print("bench_gate: FAIL — IR machines diverge from the hand-written "
              "state graph", file=sys.stderr)
        failed = True
    if not codegen_census_ok:
        print("bench_gate: FAIL — a generated machine diverges from the "
              "IrMachine oracle census", file=sys.stderr)
        failed = True
    if ir_overhead > MAX_IR_OVERHEAD:
        print(f"bench_gate: FAIL — generated-machine overhead "
              f"{ir_overhead:.3f} > {MAX_IR_OVERHEAD}", file=sys.stderr)
        failed = True
    if not immune_census_ok:
        print("bench_gate: FAIL — A2 immunity pruning changed the census "
              "of a registry protocol", file=sys.stderr)
        failed = True
    if immune_factor < MIN_IMMUNE_PRUNE_FACTOR:
        print(f"bench_gate: FAIL — immune prune factor {immune_factor:.2f} "
              f"< {MIN_IMMUNE_PRUNE_FACTOR}", file=sys.stderr)
        failed = True
    return failed


def gate_b5(report):
    failed = False
    mode = "smoke" if report.get("smoke") else "full"
    for key in ("crash_growth_staged", "crash_growth_cas"):
        growth = report[key]
        protocol = growth["protocol"]
        census_ok = bool(growth["crash_free_census_match"])
        factor_b1 = float(growth["growth_factor_b1"])
        factor_b2 = float(growth["growth_factor_b2"])
        complete = all(bool(growth[f"complete_b{b}"]) for b in (0, 1, 2))
        print(f"bench gate B5 ({mode}): {protocol} crash growth "
              f"b1 {factor_b1:.2f}x b2 {factor_b2:.2f}x, budget-0 census "
              f"match: {census_ok}, complete: {complete}")
        if not census_ok:
            print(f"bench_gate: FAIL — {protocol} budget-0 census diverges "
                  "from the non-recoverable original", file=sys.stderr)
            failed = True
        if factor_b1 < 1.0 or factor_b2 < factor_b1:
            print(f"bench_gate: FAIL — {protocol} crash growth not monotone "
                  f"(b1 {factor_b1:.2f}, b2 {factor_b2:.2f})",
                  file=sys.stderr)
            failed = True
        if factor_b1 > MAX_CRASH_GROWTH_B1:
            print(f"bench_gate: FAIL — {protocol} budget-1 growth "
                  f"{factor_b1:.2f}x > {MAX_CRASH_GROWTH_B1}x",
                  file=sys.stderr)
            failed = True
        if not complete:
            print(f"bench_gate: FAIL — {protocol} crash explore truncated",
                  file=sys.stderr)
            failed = True

    latency = report["recoverable_latency"]
    all_ok = bool(latency["all_ok"])
    crashes = int(latency["total_crashes"])
    print(f"bench gate B5 ({mode}): {latency['trials']} thread trials, "
          f"{crashes} crash/restart cycles, crash-free "
          f"{float(latency['crash_free_mean_ms']):.3f} ms vs crashed "
          f"{float(latency['crashed_mean_ms']):.3f} ms per trial, "
          f"all ok: {all_ok}")
    if not all_ok:
        print("bench_gate: FAIL — a recoverable-consensus thread trial "
              "violated consensus", file=sys.stderr)
        failed = True
    if crashes <= 0:
        print("bench_gate: FAIL — no crash/restart cycle ran: the latency "
              "campaign never exercised recovery", file=sys.stderr)
        failed = True
    return failed


def gate_b6(report):
    failed = False
    mode = "smoke" if report.get("smoke") else "full"
    throughput = report["throughput"]
    speedup = float(throughput["speedup"])
    speedup_min = float(throughput["speedup_min"])
    speedup_max = float(throughput["speedup_max"])
    bytes_ratio = float(throughput.get("bytes_ratio", 0.0))
    census_ok = bool(throughput["census_match"])
    complete = bool(throughput["complete"])

    print(f"bench gate B6 ({mode}): {throughput['protocol']} — "
          f"{int(throughput['states'])} states in "
          f"{int(throughput['waves'])} waves, frontier "
          f"{float(throughput['frontier_mean_seconds']):.3f} s on "
          f"{int(throughput['threads'])} threads vs dfs "
          f"{float(throughput['dfs_mean_seconds']):.3f} s "
          f"({speedup:.2f}x median, min {speedup_min:.2f}x, max "
          f"{speedup_max:.2f}x over {int(throughput['reps'])} paired "
          f"rounds), peak bytes {bytes_ratio:.2f}x the dfs's, "
          f"census match: {census_ok}, complete: {complete}")

    if speedup < MIN_FRONTIER_SPEEDUP:
        print(f"bench_gate: FAIL — frontier speedup {speedup:.2f} < "
              f"{MIN_FRONTIER_SPEEDUP} over the sequential DFS",
              file=sys.stderr)
        failed = True
    if not census_ok:
        print("bench_gate: FAIL — frontier census diverged from the "
              "sequential DFS", file=sys.stderr)
        failed = True
    if not complete:
        print("bench_gate: FAIL — a throughput round truncated its "
              "exploration", file=sys.stderr)
        failed = True
    return failed


def gate_b7(report):
    failed = False
    mode = "smoke" if report.get("smoke") else "full"
    speedup = float(report["speedup"])
    report_match = bool(report["report_match"])
    cache_hit = bool(report["cache_hit"])
    zero_fresh = bool(report["zero_fresh_states"])
    cold_was_hit = bool(report["cold_was_hit"])

    print(f"bench gate B7 ({mode}): {report['protocol']} — "
          f"{int(report['states'])} states, cold "
          f"{float(report['cold_seconds']):.3f} s vs warm "
          f"{float(report['warm_seconds']) * 1e3:.3f} ms "
          f"({speedup:.0f}x), report match: {report_match}, "
          f"cache hit: {cache_hit}, zero fresh states: {zero_fresh}")

    if speedup < MIN_WARM_SPEEDUP:
        print(f"bench_gate: FAIL — warm-cache speedup {speedup:.1f} < "
              f"{MIN_WARM_SPEEDUP}", file=sys.stderr)
        failed = True
    if not report_match:
        print("bench_gate: FAIL — warm Report is not byte-identical to the "
              "cold Report", file=sys.stderr)
        failed = True
    if not cache_hit:
        print("bench_gate: FAIL — a warm run missed the cache",
              file=sys.stderr)
        failed = True
    if not zero_fresh:
        print("bench_gate: FAIL — a warm run expanded fresh states",
              file=sys.stderr)
        failed = True
    if cold_was_hit:
        print("bench_gate: FAIL — the cold run hit a stale cache entry "
              "(directory was not fresh)", file=sys.stderr)
        failed = True
    return failed


def main(argv):
    if len(argv) < 2:
        print("usage: bench_gate.py <BENCH.json> [<BENCH.json> ...]",
              file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as err:
            print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
            return 2
        bench = report.get("bench")
        try:
            if bench == "B3":
                failed |= gate_b3(report)
            elif bench == "B5":
                failed |= gate_b5(report)
            elif bench == "B6":
                failed |= gate_b6(report)
            elif bench == "B7":
                failed |= gate_b7(report)
            else:
                print(f"bench_gate: {path} has unknown bench id {bench!r}",
                      file=sys.stderr)
                return 2
        except (KeyError, TypeError, ValueError) as err:
            print(f"bench_gate: {path} missing gated field: {err}",
                  file=sys.stderr)
            return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
