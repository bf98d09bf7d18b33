#!/usr/bin/env python3
"""Benchmark-regression gate for the committed benchmark reports.

Dispatches on the new report's schema:

 - ppk-bench-engines-v4 (bench/batch_throughput): engine-throughput
   gates, baseline BENCH_ENGINES.json -- see below.  The grid covers the
   agent, jump, batch and sharded engines, plus the "sampler_setup",
   "sharded_scale" and "auto_crossover" blocks.  Reports of the older
   engine schemas (v1-v3) fail the schema check.
 - ppk-bench-topology-v1 (bench/topology_sensitivity): topology gates,
   baseline BENCH_TOPOLOGY.json -- see check_topology().
 - ppk-bench-fairness-v1 (bench/fairness_matrix): the three-families
   trade-off gates, baseline BENCH_FAIRNESS.json -- see
   check_fairness().  Every gated figure there is an interaction COUNT
   (the model's own time unit), so this branch needs no calibration:
   complete-graph probe counts are pinned to EXACT equality against the
   baseline on any machine, live-edge probes on the same machine only.
 - ppk-bench-exact-v1 (bench/exact_vs_monte_carlo): the symmetry-lumped
   exact back end's gates, baseline BENCH_EXACT.json -- see
   check_exact().  Every figure is an exact count or solver answer, so
   this branch compares across machines with no calibration.

Engine-throughput gates.  Validates a fresh report and compares it
against the committed baseline:

 1. Schema: required top-level keys, well-formed result rows, the
    schema's full engine set present for every (k, n) point.
 2. Claim: the batch engine sustains at least MIN_BATCH_SPEEDUP x the
    agent engine's interactions/second at every measured point with
    k == 3 and n >= 1e5 (the headline o(1)-amortized claim against the
    fastest pairwise engine; generous against the ~640x actually
    measured).  Larger k is not gated: at k = 8 the |Q|^2 per-batch
    sampling cost has not amortized yet at n = 1e5 and the engines are
    merely comparable there.
 3. Regression: per (k, n), the batch engine did not drop more than
    MAX_REGRESSION below the baseline.  Rows that stabilized inside the
    wall cap in both reports compare drawn interactions/second (same
    seed => bit-identical total work).  Clock-capped rows compare
    *effective* interactions/second instead: the drawn rate at a capped
    point is hyper-sensitive to where the cap lands (null density grows
    without bound along the trajectory, so a small position deficit
    amplifies into orders of magnitude of drawn rate), while effective
    velocity measures actual progress linearly.  Points absent from the
    baseline (e.g. smoke vs full grids) are skipped -- the gate
    compares like with like.
 4. Observability overhead: when the new report declares that the
    observability hooks were compiled in with no sink attached
    (observability.compiled true, sink_attached false) AND the report
    came from the same machine as the baseline, the agent and batch
    engines (the hot pairwise and hot batch paths) must be within MAX_OBS_OVERHEAD of the baseline at every
    overlapping point where both reports stabilized inside the wall
    cap.  Only those rows are gated this tightly: stabilized rows
    repeat bit-identical work, so their timing floors are comparable,
    while clock-capped rows are skipped (gate 3 still bounds them).
    This enforces the zero-overhead-when-disabled design of src/obs/
    (docs/observability.md): the dormant hook is one predictable
    branch, so a drop beyond noise means a hook leaked onto a hot path.
    Cross-machine comparisons skip this gate (throughput is not
    comparable); use --reps >= 3 when generating reports for it.
 5. Sampler setup: warm engine construction costs less than
    MAX_WARM_FRACTION of the cold shared log-factorial table build --
    the hoisted-table amortization the bench also hard-asserts.
 6. Sharded scale: the deep exact-budget block at n = 1e8 must
    contain the batch baseline row and sharded rows at worker counts
    1/2/4/8; every sharded row's verdict fingerprint must be identical
    (bit-determinism across thread counts -- the report itself records
    per-rep determinism in "deterministic"); and the SLOWEST sharded
    row must sustain at least MIN_SHARDED_SPEEDUP x the batch row's
    rate.  The speedup is a same-run ratio over identical budgets, so
    machine frequency cancels without calibration.  Against a baseline
    with the same (k, n, budget, seed): calibrated per-thread-row
    regression gates, and -- same machine only, because the shared
    table's lgamma values are libm-specific -- fingerprint equality
    with the baseline's rows.
 7. Auto crossover: at every (family, k, n) point of the block both
    candidate engines below the batch band (agent, jump) ran the same
    fixed-seed trials to stabilization, and every trial stabilized.
    Where kAuto picks jump (n >= kJumpCrossover) its pick takes at most
    MAX_AUTO_PICK_RATIO x the faster engine's time.  Below the crossover
    kAuto picks agent, and the block must show why the n-only constant
    cannot move down: at the largest grid n below the crossover, agent
    is still the faster engine at some point (k = 16 on the paper's
    protocol at n = 256, 1.1-1.2x best-of-3 on a 4-vCPU host, with
    kJumpCrossover = 320), so picking jump there would pick the slower
    engine.  Smaller |Q| favours jump further down (the
    report's pick_ratio column shows by how much); choosing by |Q| too
    is the open ROADMAP item.  Both checks compare two engines of one
    run, so they need no baseline and no calibration.

 Calibration and noise.  Machines -- especially shared/virtualized
 ones -- drift in effective speed under sustained load, by far more
 than the margins gates 3 and 4 police.  The bench therefore
 interleaves slices of a fixed xoshiro256** kernel with every
 measurement and reports the aggregate as calibration_rate; whenever
 both rows carry one, gates 3 and 4 compare rates DIVIDED by it
 ("calibrated"), which cancels the machine-speed term.  Each row also
 carries rep_spread, the fractional spread of its per-rep calibrated
 rates: the measurement's own uncertainty.  Both gates widen their
 tolerance by the two rows' spreads, so thresholds are tight exactly
 when the machine was quiet enough to support them and honest when it
 was not -- a 2% claim cannot be made from a 10%-noisy measurement.
 Rows without calibration fall back to raw rates with a printed note;
 generate gate-quality reports with --reps >= 3.

Usage:
  scripts/check_bench_regression.py NEW.json [BASELINE.json]

Baseline defaults to the committed report matching NEW.json's schema
(BENCH_ENGINES.json or BENCH_TOPOLOGY.json).  Exits non-zero with a
reason on the first violated check.  Stdlib only.
"""

import json
import sys
from pathlib import Path

ENGINE_SCHEMA = "ppk-bench-engines-v4"
TOPOLOGY_SCHEMA = "ppk-bench-topology-v1"
ENGINES = {"agent", "jump", "batch", "sharded"}
REQUIRED_TOP = {"schema", "bench", "git_rev", "smoke", "wall_cap_seconds",
                "seed", "machine", "results", "sampler_setup",
                "sharded_scale", "auto_crossover"}
REQUIRED_ROW = {"engine", "k", "n", "interactions", "effective", "seconds",
                "stabilized", "interactions_per_second"}
REQUIRED_SCALE_ROW = {"engine", "threads", "interactions", "effective",
                      "seconds", "interactions_per_second",
                      "calibration_rate", "rep_spread", "fingerprint"}
MIN_BATCH_SPEEDUP = 5.0       # vs agent engine, at k == SPEEDUP_K, n >= ...
SPEEDUP_K = 3
SPEEDUP_MIN_N = 100_000
MAX_REGRESSION = 0.20         # fractional drop vs baseline batch throughput
MAX_OBS_OVERHEAD = 0.02       # dormant observability hooks: <= 2% drop
OBS_GATED_ENGINES = ("agent", "batch")  # hot pairwise path + hot batch path
MACHINE_KEYS = ("hardware_threads", "compiler", "assertions_disabled",
                "os", "arch")

# Sharded gates.
MIN_SHARDED_SPEEDUP = 1.25    # slowest sharded row vs batch, same budget
MAX_WARM_FRACTION = 0.5       # warm engine ctor vs cold log-fact build
SHARDED_THREADS = (1, 2, 4, 8)

# Auto-crossover gate.
MAX_AUTO_PICK_RATIO = 1.2     # kAuto's pick vs the faster of agent/jump
REQUIRED_CROSSOVER_POINT = {"family", "k", "n", "pick", "agent_seconds",
                            "jump_seconds", "stabilized"}

# Fairness-report gates (schema ppk-bench-fairness-v1).
FAIRNESS_SCHEMA = "ppk-bench-fairness-v1"
FAIRNESS_FAMILIES = {"kpartition", "weak-kpartition", "graph-bipartition"}
FAIRNESS_POLICIES = {"uniform-random", "epsilon-fair", "weak-round-robin"}
# The families' state counts as a function of k -- the trade-off table's
# first column, machine-checked against the protocol objects.
FAMILY_STATES = {
    "kpartition": lambda k: 3 * k - 2,
    "weak-kpartition": lambda k: 3 * k + 1,
    "graph-bipartition": lambda k: 5,
}
# The exhaustive weak-fairness ground truth (verify/weak_fairness.hpp):
# only the weak family survives weak fairness.
EXPECTED_WEAK_VERDICT = {
    "kpartition": False,
    "weak-kpartition": True,
    "graph-bipartition": False,
}
REQUIRED_FAIRNESS_TOP = {"schema", "bench", "git_rev", "smoke", "interrupted",
                         "seed", "machine", "tradeoff", "matrix", "topology",
                         "verifier"}
REQUIRED_FAIRNESS_ROW = {"family", "k", "n", "states", "policy", "epsilon",
                         "topology", "engine", "trials", "budget",
                         "stabilized_rate", "stalled_rate",
                         "mean_interactions_stabilized", "probe_interactions",
                         "probe_stabilized"}
REQUIRED_VERDICT_ROW = {"family", "k", "n", "fairness", "solves",
                        "exploration_complete", "reachable_configs",
                        "bottom_sccs"}

# Exact-report gates (schema ppk-bench-exact-v1, bench/exact_vs_monte_carlo).
# Every gated figure is an exact count or solver answer, so this branch
# needs no timing calibration and compares across machines.
EXACT_SCHEMA = "ppk-bench-exact-v1"
EXACT_FAMILIES = {"kpartition", "weak-kpartition", "bipartition"}
EXACT_AGREEMENT_TOL = 1e-9    # lumped vs dense relative error, per row
EXACT_CEILING_FACTOR = 10     # lumped rows sit >= this x the dense cap
EXACT_BASELINE_TOL = 1e-9     # same chain, same exact answer, any machine
REQUIRED_EXACT_TOP = {"schema", "bench", "git_rev", "smoke", "interrupted",
                      "seed", "machine", "dense_cap", "monte_carlo",
                      "agreement", "ceiling"}
REQUIRED_AGREEMENT_ROW = {"family", "k", "n", "dense", "lumped", "rel_error",
                          "configs", "orbits", "group_order"}
REQUIRED_CEILING_ROW = {"family", "k", "n", "reachable_configs", "orbits",
                        "group_order", "expected_interactions", "solved",
                        "sweeps", "row_updates"}

# Topology-report gates (schema ppk-bench-topology-v1).
MIN_WEDGE_SPEEDUP = 50.0      # live-edge vs per-draw on the wedged ring
WEDGE_MIN_N = 100_000         # the acceptance-bar problem size
ER_MIN_N = 1_000_000
GRAPH_ENGINES = {"graph", "live-edge"}
REQUIRED_TOPOLOGY_TOP = {"schema", "bench", "git_rev", "smoke", "seed",
                         "machine", "sweep", "wedged_ring_speedup",
                         "er_generation"}
REQUIRED_SWEEP_ROW = {"k", "topology", "engine", "avg_degree",
                      "stabilized_rate", "stalled_rate",
                      "mean_interactions_stabilized", "trials"}


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")


def validate_schema(doc, path):
    if doc.get("schema") != ENGINE_SCHEMA:
        fail(f"{path}: schema {doc.get('schema')!r}, expected "
             f"{ENGINE_SCHEMA!r}")
    missing = REQUIRED_TOP - doc.keys()
    if missing:
        fail(f"{path}: missing top-level keys {sorted(missing)}")
    if not isinstance(doc["results"], list) or not doc["results"]:
        fail(f"{path}: results must be a non-empty array")
    points = {}
    for i, row in enumerate(doc["results"]):
        missing = REQUIRED_ROW - row.keys()
        if missing:
            fail(f"{path}: results[{i}] missing {sorted(missing)}")
        if row["engine"] not in ENGINES:
            fail(f"{path}: results[{i}] unknown engine {row['engine']!r}")
        if row["seconds"] <= 0 or row["interactions_per_second"] <= 0:
            fail(f"{path}: results[{i}] non-positive measurement")
        points.setdefault((row["k"], row["n"]), {})[row["engine"]] = row
    for (k, n), rows in points.items():
        if set(rows) != ENGINES:
            fail(f"{path}: point (k={k}, n={n}) has engines {sorted(rows)}, "
                 f"expected all of {sorted(ENGINES)}")
    validate_sharded_scale(doc, path)
    validate_auto_crossover(doc, path)
    return points


def validate_sharded_scale(doc, path):
    """Structural checks on the deep-trial block: every expected row
    present and well-formed.  Gating happens in check_sharded_scale()."""
    scale = doc["sharded_scale"]
    for key in ("k", "n", "budget", "seed", "deterministic", "rows"):
        if key not in scale:
            fail(f"{path}: sharded_scale missing {key!r}")
    if not scale["deterministic"]:
        fail(f"{path}: sharded_scale reports deterministic=false (a rep "
             f"reproduced a different verdict fingerprint)")
    rows = scale["rows"]
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: sharded_scale.rows must be a non-empty array")
    sharded = {}
    batch = None
    for i, row in enumerate(rows):
        missing = REQUIRED_SCALE_ROW - row.keys()
        if missing:
            fail(f"{path}: sharded_scale.rows[{i}] missing {sorted(missing)}")
        if row["seconds"] <= 0 or row["interactions_per_second"] <= 0:
            fail(f"{path}: sharded_scale.rows[{i}] non-positive measurement")
        if row["engine"] == "batch":
            batch = row
        elif row["engine"] == "sharded":
            sharded[row["threads"]] = row
        else:
            fail(f"{path}: sharded_scale.rows[{i}] unknown engine "
                 f"{row['engine']!r}")
    if batch is None:
        fail(f"{path}: sharded_scale has no batch baseline row")
    missing_threads = set(SHARDED_THREADS) - sharded.keys()
    if missing_threads:
        fail(f"{path}: sharded_scale missing sharded rows at thread "
             f"counts {sorted(missing_threads)}")
    verdicts = {row["fingerprint"] for row in sharded.values()}
    if len(verdicts) != 1:
        fail(f"{path}: sharded_scale verdict fingerprints differ across "
             f"thread counts: {sorted(verdicts)} -- the sharded engine "
             f"must be bit-identical at 1/2/4/8 workers")
    return batch, sharded


def validate_auto_crossover(doc, path):
    """Structural checks on the auto_crossover block.  Gating happens
    in check_auto_crossover()."""
    block = doc["auto_crossover"]
    points = block.get("points") if isinstance(block, dict) else None
    if not isinstance(points, list) or not points:
        fail(f"{path}: auto_crossover.points must be a non-empty array")
    for i, point in enumerate(points):
        missing = REQUIRED_CROSSOVER_POINT - point.keys()
        if missing:
            fail(f"{path}: auto_crossover.points[{i}] missing "
                 f"{sorted(missing)}")
        if point["pick"] not in ("agent", "jump"):
            fail(f"{path}: auto_crossover.points[{i}] pick "
                 f"{point['pick']!r} is neither agent nor jump")
        if point["agent_seconds"] <= 0 or point["jump_seconds"] <= 0:
            fail(f"{path}: auto_crossover.points[{i}] non-positive time")
    return points


def crossover_label(point):
    return f"{point['family']} k={point['k']} n={point['n']}"


def check_auto_crossover(new_doc, new_path):
    """Gate 7: kAuto's agent/jump pick is within MAX_AUTO_PICK_RATIO of
    the faster engine wherever it picks jump, and agent still wins some
    point at the grid n just below the crossover."""
    points = validate_auto_crossover(new_doc, new_path)
    for point in points:
        if not point["stabilized"]:
            fail(f"auto_crossover ({crossover_label(point)}): a trial did "
                 f"not stabilize; the times are not to stabilization")
    jump_points = [p for p in points if p["pick"] == "jump"]
    for point in jump_points:
        best = min(point["agent_seconds"], point["jump_seconds"])
        ratio = point["jump_seconds"] / best
        if ratio > MAX_AUTO_PICK_RATIO:
            fail(f"auto_crossover ({crossover_label(point)}): kAuto picks "
                 f"jump, which takes {ratio:.2f}x the faster engine "
                 f"(agent {point['agent_seconds']:.3g} s, jump "
                 f"{point['jump_seconds']:.3g} s); the gate allows "
                 f"{MAX_AUTO_PICK_RATIO}x -- raise pp::kJumpCrossover")
    print(f"ok: auto_crossover kAuto's jump pick within "
          f"{MAX_AUTO_PICK_RATIO}x of the faster engine at all "
          f"{len(jump_points)} point(s) of the jump band")
    if not jump_points:
        return
    crossover = min(p["n"] for p in jump_points)
    below = [p for p in points if p["n"] < crossover]
    if any(p["pick"] != "agent" for p in below):
        fail(f"auto_crossover: kAuto's picks are not monotone in n around "
             f"n = {crossover}")
    if not below:
        print("skip: auto-crossover lower-bound check (no grid n below the "
              "crossover)")
        return
    edge = max(p["n"] for p in below)
    needs_agent = [p for p in below if p["n"] == edge and
                   p["jump_seconds"] > p["agent_seconds"]]
    if not needs_agent:
        fail(f"auto_crossover: jump is the faster engine at every point of "
             f"n = {edge}; the crossover (n = {crossover}) could move down")
    worst = max(needs_agent, key=lambda p: p["jump_seconds"] /
                p["agent_seconds"])
    print(f"ok: auto_crossover agent still wins below the crossover "
          f"n = {crossover} ({crossover_label(worst)}: jump "
          f"{worst['jump_seconds'] / worst['agent_seconds']:.2f}x agent)")


def calibration_scales(new_row, base_row):
    """(new_scale, base_scale, label_prefix): divisors that cancel the
    machines' momentary frequency when both rows carry a calibration
    rate, else identity with a note-worthy empty prefix."""
    new_cal = new_row.get("calibration_rate", 0)
    base_cal = base_row.get("calibration_rate", 0)
    if new_cal > 0 and base_cal > 0:
        return new_cal, base_cal, "calibrated "
    return 1.0, 1.0, ""


def comparable_rate(new_row, base_row):
    """Returns (metric_name, new_rate, base_rate) for a fair comparison.

    Stabilized-in-both rows did bit-identical work (same seed, same
    trajectory), so drawn interactions/second compares directly.  Capped
    rows stopped mid-trajectory at different positions; their drawn rate
    diverges super-linearly with position (null runs grow without bound),
    so effective interactions/second -- linear in actual progress -- is
    the honest metric there.  Both are divided by the rows' calibration
    rates when available (see the module docstring).
    """
    new_scale, base_scale, prefix = calibration_scales(new_row, base_row)
    if new_row["stabilized"] and base_row["stabilized"]:
        return (prefix + "throughput",
                new_row["interactions_per_second"] / new_scale,
                base_row["interactions_per_second"] / base_scale)
    return (prefix + "effective velocity",
            new_row["effective"] / new_row["seconds"] / new_scale,
            base_row["effective"] / base_row["seconds"] / base_scale)


def noise_margin(new_row, base_row):
    """Combined measured uncertainty of the two rows being compared."""
    return (new_row.get("rep_spread", 0.0) + base_row.get("rep_spread", 0.0))


def same_machine(new_doc, base_doc):
    new_machine = new_doc.get("machine", {})
    base_machine = base_doc.get("machine", {})
    return all(new_machine.get(key) == base_machine.get(key)
               for key in MACHINE_KEYS)


def check_obs_overhead(new_doc, base_doc, new_points, base_points):
    obs = new_doc.get("observability")
    if not obs or not obs.get("compiled") or obs.get("sink_attached"):
        print("skip: observability-overhead gate (new report does not "
              "declare dormant hooks)")
        return
    if not same_machine(new_doc, base_doc):
        print("skip: observability-overhead gate (machine differs from "
              "baseline; throughput not comparable)")
        return
    gated = 0
    for (k, n), rows in sorted(new_points.items()):
        base = base_points.get((k, n))
        if base is None:
            continue
        for engine in OBS_GATED_ENGINES:
            if not (rows[engine]["stabilized"] and
                    base[engine]["stabilized"]):
                print(f"skip: (k={k}, n={n}, {engine}) clock-capped; the "
                      f"{MAX_OBS_OVERHEAD:.0%} gate needs the bit-identical "
                      f"work of stabilized rows")
                continue
            new_scale, base_scale, prefix = calibration_scales(
                rows[engine], base[engine])
            if not prefix:
                print(f"note: (k={k}, n={n}, {engine}) comparing raw rates "
                      f"(a report lacks calibration_rate); frequency drift "
                      f"may masquerade as overhead")
            new_tp = rows[engine]["interactions_per_second"] / new_scale
            base_tp = base[engine]["interactions_per_second"] / base_scale
            drop = 1.0 - new_tp / base_tp
            allowed = MAX_OBS_OVERHEAD + noise_margin(rows[engine],
                                                      base[engine])
            if drop > allowed:
                fail(f"(k={k}, n={n}, {engine}): {prefix}throughput dropped "
                     f"{drop:.1%} with dormant observability hooks "
                     f"({new_tp:.3g} vs {base_tp:.3g}); the zero-overhead "
                     f"gate allows {allowed:.1%} ({MAX_OBS_OVERHEAD:.0%} "
                     f"budget + measured rep spread)")
            print(f"ok: (k={k}, n={n}, {engine}) dormant-hook overhead "
                  f"{max(drop, 0.0):.1%} (<= {allowed:.1%})")
            gated += 1
    if gated == 0:
        fail("observability-overhead gate applied but no stabilized "
             "(k, n) point overlapped the baseline")


def validate_topology_schema(doc, path):
    missing = REQUIRED_TOPOLOGY_TOP - doc.keys()
    if missing:
        fail(f"{path}: missing top-level keys {sorted(missing)}")
    if doc["schema"] != TOPOLOGY_SCHEMA:
        fail(f"{path}: schema {doc['schema']!r}, expected {TOPOLOGY_SCHEMA!r}")
    if not isinstance(doc["sweep"], list) or not doc["sweep"]:
        fail(f"{path}: sweep must be a non-empty array")
    points = {}
    for i, row in enumerate(doc["sweep"]):
        missing = REQUIRED_SWEEP_ROW - row.keys()
        if missing:
            fail(f"{path}: sweep[{i}] missing {sorted(missing)}")
        if row["engine"] not in GRAPH_ENGINES:
            fail(f"{path}: sweep[{i}] unknown engine {row['engine']!r}")
        for rate in ("stabilized_rate", "stalled_rate"):
            if not 0.0 <= row[rate] <= 1.0:
                fail(f"{path}: sweep[{i}] {rate} outside [0, 1]")
        if row["engine"] == "graph" and row["stalled_rate"] != 0.0:
            fail(f"{path}: sweep[{i}] per-draw engine reports stalled "
                 f"trials; it cannot detect stalls by construction")
        if row["topology"] == "complete" and row["stabilized_rate"] != 1.0:
            fail(f"{path}: sweep[{i}] complete graph stabilized only "
                 f"{row['stabilized_rate']:.0%} of trials (Theorem 1 says "
                 f"always)")
        points.setdefault((row["k"], row["topology"]), {})[row["engine"]] = row
    for (k, topology), rows in points.items():
        if set(rows) != GRAPH_ENGINES:
            fail(f"{path}: point (k={k}, {topology}) has engines "
                 f"{sorted(rows)}, expected both of {sorted(GRAPH_ENGINES)}")
    return points


def gate_rate_drop(label, new_rate, new_cal, new_spread,
                   base_rate, base_cal, base_spread):
    """Fails if `new_rate` dropped more than MAX_REGRESSION (plus measured
    rep spread) below `base_rate`, dividing by the calibration rates when
    both reports carry one (cancels machine-frequency drift)."""
    if new_cal > 0 and base_cal > 0:
        prefix = "calibrated "
        new_rate, base_rate = new_rate / new_cal, base_rate / base_cal
    else:
        prefix = ""
        print(f"note: {label}: comparing raw rates (a report lacks "
              f"calibration_rate); frequency drift may masquerade as "
              f"regression")
    drop = 1.0 - new_rate / base_rate
    allowed = MAX_REGRESSION + new_spread + base_spread
    if drop > allowed:
        fail(f"{label}: {prefix}rate dropped {drop:.0%} vs baseline "
             f"({new_rate:.3g} vs {base_rate:.3g}); the gate allows "
             f"{allowed:.0%} ({MAX_REGRESSION:.0%} budget + measured rep "
             f"spread)")
    print(f"ok: {label} {prefix}rate {new_rate:.3g} "
          f"({-drop:+.0%} vs baseline)")


def validate_exact_schema(doc, path):
    if doc.get("schema") != EXACT_SCHEMA:
        fail(f"{path}: schema {doc.get('schema')!r}, expected {EXACT_SCHEMA}")
    missing = REQUIRED_EXACT_TOP - doc.keys()
    if missing:
        fail(f"{path}: missing top-level keys {sorted(missing)}")
    if doc["interrupted"]:
        fail(f"{path}: report marked interrupted; regenerate before gating")
    for key, required in (("agreement", REQUIRED_AGREEMENT_ROW),
                          ("ceiling", REQUIRED_CEILING_ROW)):
        rows = doc[key]
        if not isinstance(rows, list) or not rows:
            fail(f"{path}: {key} must be a non-empty array")
        for i, row in enumerate(rows):
            row_missing = required - row.keys()
            if row_missing:
                fail(f"{path}: {key}[{i}] missing {sorted(row_missing)}")
        families = {row["family"] for row in rows}
        if families != EXACT_FAMILIES:
            fail(f"{path}: {key} covers families {sorted(families)}, "
                 f"expected exactly {sorted(EXACT_FAMILIES)}")


def check_exact(new_doc, base_doc, new_path, base_path):
    """Gates for the exact report (schema ppk-bench-exact-v1):

     1. Schema: agreement and ceiling rows for all three families
        (kpartition, weak-kpartition, bipartition).
     2. Agreement: at every size both back ends reach, the lumped answer
        matches dense elimination to <= EXACT_AGREEMENT_TOL relative
        error.  This is the correctness claim of the whole lumped path.
     3. Ceiling: every family's ceiling row solved a chain whose
        reachable configuration space is >= EXACT_CEILING_FACTOR x the
        dense solver's cap -- the reach claim.
     4. Baseline: exact answers are machine-independent, so any row the
        committed BENCH_EXACT.json shares (same family, k, n) must agree
        to EXACT_BASELINE_TOL, and no family's ceiling may shrink below
        the baseline's.  No calibration, no same-machine carve-outs.
     5. Solver work: a ceiling row the baseline shares (same family, k,
        n) may not take more sweeps or row updates than the baseline's.
        Both are exact counts of the hitting solve, with no host noise,
        so the bound has no slack.
    """
    validate_exact_schema(new_doc, new_path)
    validate_exact_schema(base_doc, base_path)

    worst = max(new_doc["agreement"], key=lambda row: row["rel_error"])
    for row in new_doc["agreement"]:
        label = (f"agreement {row['family']} (k={row['k']}, n={row['n']})")
        if row["dense"] <= 0 or row["lumped"] <= 0:
            fail(f"{label}: missing back-end answer "
                 f"(dense={row['dense']}, lumped={row['lumped']})")
        if row["rel_error"] > EXACT_AGREEMENT_TOL:
            fail(f"{label}: lumped diverges from dense by "
                 f"{row['rel_error']:.3g} relative "
                 f"(> {EXACT_AGREEMENT_TOL:.0e}); the lumped back end is "
                 f"giving different exact answers")
    print(f"ok: {len(new_doc['agreement'])} lumped-vs-dense rows agree "
          f"(worst rel error {worst['rel_error']:.3g} at "
          f"{worst['family']} n={worst['n']})")

    dense_cap = new_doc["dense_cap"]
    floor = EXACT_CEILING_FACTOR * dense_cap
    base_ceiling = {row["family"]: row for row in base_doc["ceiling"]}
    for row in new_doc["ceiling"]:
        label = f"ceiling {row['family']} (n={row['n']})"
        if not row["solved"]:
            fail(f"{label}: the lumped back end failed to solve it")
        if row["reachable_configs"] < floor:
            fail(f"{label}: {row['reachable_configs']} reachable "
                 f"configurations, below the acceptance bar "
                 f"{EXACT_CEILING_FACTOR}x dense cap = {floor}")
        base = base_ceiling.get(row["family"])
        if base is None:
            continue
        if row["reachable_configs"] < base["reachable_configs"]:
            fail(f"{label}: ceiling shrank to {row['reachable_configs']} "
                 f"configurations (baseline "
                 f"{base['reachable_configs']})")
        if (row["n"] == base["n"] and row["k"] == base["k"]
                and base["solved"]):
            drift = (abs(row["expected_interactions"]
                         - base["expected_interactions"])
                     / base["expected_interactions"])
            if drift > EXACT_BASELINE_TOL:
                fail(f"{label}: exact answer drifted {drift:.3g} relative "
                     f"from the baseline ({row['expected_interactions']!r} "
                     f"vs {base['expected_interactions']!r}); exact answers "
                     f"are machine-independent, so this is a solver change")
            for count in ("sweeps", "row_updates"):
                if row[count] > base[count]:
                    fail(f"{label}: the hitting solve took {row[count]} "
                         f"{count.replace('_', ' ')}, more than the "
                         f"baseline's {base[count]}; these are exact "
                         f"counts, so the solver does more work")
        print(f"ok: {label} solved {row['reachable_configs']} configurations "
              f"as {row['orbits']} orbits (|G|={row['group_order']})")

    base_agreement = {(row["family"], row["k"], row["n"]): row
                      for row in base_doc["agreement"]}
    compared = 0
    for row in new_doc["agreement"]:
        base = base_agreement.get((row["family"], row["k"], row["n"]))
        if base is None:
            continue
        drift = abs(row["lumped"] - base["lumped"]) / base["lumped"]
        if drift > EXACT_BASELINE_TOL:
            fail(f"agreement {row['family']} (k={row['k']}, n={row['n']}): "
                 f"lumped answer drifted {drift:.3g} relative from the "
                 f"baseline")
        compared += 1
    print(f"ok: {compared} agreement rows match the baseline to "
          f"{EXACT_BASELINE_TOL:.0e}")


def check_topology(new_doc, base_doc, new_path, base_path):
    """Gates for the topology report (schema ppk-bench-topology-v1):

     1. Schema: both graph engines at every sweep point; the per-draw
        engine never claims a stalled trial (it cannot detect one); the
        complete graph stabilizes every trial (Theorem 1).
     2. Wedge detection: some live-edge sweep row reports stalled_rate
        > 0 (the detector actually fires on sparse topologies), and the
        wedged-ring block confirms every live-edge trial proved the
        wedge at 0 interactions.
     3. Speedup claim: live-edge beats the per-draw engine by at least
        MIN_WEDGE_SPEEDUP x on the wedged ring at n >= 1e5.  This is a
        same-run ratio, so machine frequency cancels without
        calibration; it understates the real gap because the per-draw
        engine's cost is linear in its charged budget.
     4. ER generation: connected G(n, 2 ln n / n) at n >= 1e6 was built
        (the expected-O(n + m) sampler's acceptance bar).
     5. Regressions vs the committed BENCH_TOPOLOGY.json, calibrated
        and noise-widened exactly like the engine gates: wedge proofs
        per second (live-edge setup + O(1) detection; budget-
        independent, so smoke and full reports compare), per-draw
        drawn-interactions per second, and ER edges per second.
    """
    new_points = validate_topology_schema(new_doc, new_path)
    validate_topology_schema(base_doc, base_path)

    detected = [(k, topology)
                for (k, topology), rows in sorted(new_points.items())
                if rows["live-edge"]["stalled_rate"] > 0]
    if not detected:
        fail("no live-edge sweep row reports stalled_rate > 0: exact wedge "
             "detection never fired on any sparse topology")
    print(f"ok: live-edge wedge detection fired at {len(detected)} sweep "
          f"point(s), e.g. (k={detected[0][0]}, {detected[0][1]})")

    wedge = new_doc["wedged_ring_speedup"]
    if wedge["n"] < WEDGE_MIN_N:
        fail(f"wedged-ring block ran at n={wedge['n']}, below the "
             f"acceptance bar n >= {WEDGE_MIN_N}")
    if not wedge.get("live_detected_wedge"):
        fail("wedged-ring block: a live-edge trial advanced or stabilized; "
             "the hand-wedged configuration must be proven dead at 0 "
             "interactions")
    if wedge["speedup"] < MIN_WEDGE_SPEEDUP:
        fail(f"wedged ring (n={wedge['n']}): live-edge is only "
             f"{wedge['speedup']:.1f}x the per-draw engine; the gate "
             f"requires >= {MIN_WEDGE_SPEEDUP:.0f}x")
    print(f"ok: wedged ring (n={wedge['n']}) live-edge speedup "
          f"{wedge['speedup']:.0f}x (>= {MIN_WEDGE_SPEEDUP:.0f}x; per-draw "
          f"charged {wedge['graph_budget']:.2g} draws)")

    er = new_doc["er_generation"]
    if er["n"] < ER_MIN_N:
        fail(f"er_generation ran at n={er['n']}, below the acceptance bar "
             f"n >= {ER_MIN_N}")
    if not er["connected"]:
        fail(f"er_generation: G(n={er['n']}, p={er['p']:.3g}) came out "
             f"disconnected")
    print(f"ok: connected G(n={er['n']}, p=2ln(n)/n) built: {er['edges']} "
          f"edges in {er['seconds']:.2f}s")

    base_wedge = base_doc["wedged_ring_speedup"]
    if wedge["n"] == base_wedge["n"]:
        gate_rate_drop(
            f"wedged ring (n={wedge['n']}) live-edge wedge proofs",
            1.0 / wedge["live_seconds"], wedge.get("calibration_rate", 0),
            wedge.get("live_rep_spread", 0.0),
            1.0 / base_wedge["live_seconds"],
            base_wedge.get("calibration_rate", 0),
            base_wedge.get("live_rep_spread", 0.0))
        gate_rate_drop(
            f"wedged ring (n={wedge['n']}) per-draw drawn interactions",
            wedge["graph_budget"] / wedge["graph_seconds"],
            wedge.get("calibration_rate", 0),
            wedge.get("graph_rep_spread", 0.0),
            base_wedge["graph_budget"] / base_wedge["graph_seconds"],
            base_wedge.get("calibration_rate", 0),
            base_wedge.get("graph_rep_spread", 0.0))
    else:
        print(f"skip: wedged-ring regression (n={wedge['n']} vs baseline "
              f"n={base_wedge['n']}; costs not comparable)")

    base_er = base_doc["er_generation"]
    if er["n"] == base_er["n"]:
        gate_rate_drop(
            f"ER generation (n={er['n']}) edges",
            er["edges"] / er["seconds"], er.get("calibration_rate", 0),
            er.get("rep_spread", 0.0),
            base_er["edges"] / base_er["seconds"],
            base_er.get("calibration_rate", 0),
            base_er.get("rep_spread", 0.0))
    else:
        print(f"skip: ER-generation regression (n={er['n']} vs baseline "
              f"n={base_er['n']}; costs not comparable)")


def validate_fairness_schema(doc, path):
    """Structural checks on a ppk-bench-fairness-v1 report; returns the
    rows of the three measured blocks keyed for baseline matching."""
    if doc.get("schema") != FAIRNESS_SCHEMA:
        fail(f"{path}: schema {doc.get('schema')!r}, expected "
             f"{FAIRNESS_SCHEMA!r}")
    missing = REQUIRED_FAIRNESS_TOP - doc.keys()
    if missing:
        fail(f"{path}: missing top-level keys {sorted(missing)}")
    if doc["interrupted"]:
        fail(f"{path}: report flagged interrupted; partial sweeps cannot "
             f"be gated or become baselines")
    rows = {}
    for block in ("tradeoff", "matrix", "topology"):
        if not isinstance(doc[block], list) or not doc[block]:
            fail(f"{path}: {block} must be a non-empty array")
        for i, row in enumerate(doc[block]):
            missing = REQUIRED_FAIRNESS_ROW - row.keys()
            if missing:
                fail(f"{path}: {block}[{i}] missing {sorted(missing)}")
            if row["family"] not in FAIRNESS_FAMILIES:
                fail(f"{path}: {block}[{i}] unknown family "
                     f"{row['family']!r}")
            if row["policy"] not in FAIRNESS_POLICIES:
                fail(f"{path}: {block}[{i}] unknown policy "
                     f"{row['policy']!r}")
            for rate in ("stabilized_rate", "stalled_rate"):
                if not 0.0 <= row[rate] <= 1.0:
                    fail(f"{path}: {block}[{i}] {rate} outside [0, 1]")
            expected_states = FAMILY_STATES[row["family"]](row["k"])
            if row["states"] != expected_states:
                fail(f"{path}: {block}[{i}] {row['family']} (k={row['k']}) "
                     f"reports {row['states']} states, the family formula "
                     f"says {expected_states}")
            key = (block, row["family"], row["k"], row["n"], row["policy"],
                   row["epsilon"], row["topology"], row["engine"],
                   row["budget"])
            if key in rows:
                fail(f"{path}: duplicate {block} row {key}")
            rows[key] = row
    if not isinstance(doc["verifier"], list) or not doc["verifier"]:
        fail(f"{path}: verifier must be a non-empty array")
    for i, row in enumerate(doc["verifier"]):
        missing = REQUIRED_VERDICT_ROW - row.keys()
        if missing:
            fail(f"{path}: verifier[{i}] missing {sorted(missing)}")
    return rows


def check_fairness(new_doc, base_doc, new_path, base_path):
    """Gates for the fairness report (schema ppk-bench-fairness-v1):

     1. Schema: all four blocks present and well-formed; every row's
        state count matches its family's formula (3k-2 / 3k+1 / 5) --
        the trade-off table's state column, machine-checked.
     2. Trade-off block: every family stabilizes every trial on its
        common ground (complete graph, uniform-random scheduler).
     3. Fairness matrix: every cell stabilizes -- including the
        global-fairness families under the weak-round-robin adversary.
        That is the methodology pin (docs/fairness.md): greedy
        simulation cannot refute a fairness assumption, so a matrix
        where some cell suddenly livelocks means the scheduler changed,
        not the theory.
     4. Topology block: graph-bipartition stabilizes every trial on
        EVERY topology (its paper's claim); the complete-graph
        k-partition protocol fails some trials on each sparse topology
        (the negative control -- if it stops failing, the sweep is not
        exercising sparse graphs at all).
     5. Verifier block: the exhaustive weak-fairness verdicts match the
        ground truth (only weak-kpartition solves), each from a
        complete exploration.
     6. Probe regression vs the committed BENCH_FAIRNESS.json: every
        row's probe_interactions (trial 0's drawn-pair count, a pure
        function of the seed) must EXACTLY equal the baseline's on
        matching rows.  Counts are the model's own time unit --
        machine-independent for the complete-graph engines, so this
        pins bit-reproducibility across machines; live-edge rows are
        pinned on the same machine only (the skip-ahead sampler calls
        libm).  Rows whose configuration differs from the baseline
        (different seed, budget or grid) are skipped.
    """
    new_rows = validate_fairness_schema(new_doc, new_path)
    validate_fairness_schema(base_doc, base_path)

    for (block, family, k, n, policy, *_), row in sorted(new_rows.items()):
        where = f"{block} ({family}, k={k}, n={n}, {policy}, " \
                f"{row['topology']})"
        if block == "tradeoff" and row["stabilized_rate"] != 1.0:
            fail(f"{where}: stabilized only {row['stabilized_rate']:.0%} of "
                 f"trials on the family's home ground")
        if block == "matrix" and row["stabilized_rate"] != 1.0:
            fail(f"{where}: stabilized only {row['stabilized_rate']:.0%}; "
                 f"every matrix cell must stabilize (simulation cannot "
                 f"refute -- see docs/fairness.md)")
        if block == "topology":
            if (family == "graph-bipartition"
                    and row["stabilized_rate"] != 1.0):
                fail(f"{where}: graph-bipartition stabilized only "
                     f"{row['stabilized_rate']:.0%}; its paper claims every "
                     f"connected topology")
            if (family == "kpartition" and row["topology"] != "complete"
                    and row["stabilized_rate"] >= 1.0):
                fail(f"{where}: the complete-graph protocol stabilized every "
                     f"trial on a sparse topology -- the negative control "
                     f"stopped failing")
    print(f"ok: all {len(new_rows)} measured rows satisfy their family's "
          f"stabilization claims (state counts match the formulas)")

    for row in new_doc["verifier"]:
        expected = EXPECTED_WEAK_VERDICT.get(row["family"])
        if expected is None:
            fail(f"verifier row for unknown family {row['family']!r}")
        if not row["exploration_complete"]:
            fail(f"verifier ({row['family']}, n={row['n']}): exploration "
                 f"incomplete; the verdict is not ground truth")
        if row["solves"] != expected:
            fail(f"verifier ({row['family']}, n={row['n']}): solves="
                 f"{row['solves']} under weak fairness, ground truth says "
                 f"{expected}")
    print(f"ok: {len(new_doc['verifier'])} exhaustive weak-fairness "
          f"verdicts match the ground truth (only weak-kpartition solves)")

    if new_doc.get("seed") != base_doc.get("seed"):
        print(f"skip: probe regression (seed {new_doc.get('seed')} vs "
              f"baseline {base_doc.get('seed')}; probes not comparable)")
        return
    base_rows = validate_fairness_schema(base_doc, base_path)
    on_same_machine = same_machine(new_doc, base_doc)
    pinned = 0
    for key, row in sorted(new_rows.items()):
        base = base_rows.get(key)
        block, family, k, n, policy = key[:5]
        where = f"{block} ({family}, k={k}, n={n}, {policy}, " \
                f"{row['topology']})"
        if base is None:
            print(f"skip: {where} not in baseline grid")
            continue
        if row["engine"] == "live-edge" and not on_same_machine:
            print(f"skip: {where} live-edge probe (machine differs; the "
                  f"skip-ahead sampler's libm calls are platform-specific)")
            continue
        if row["probe_interactions"] != base["probe_interactions"]:
            fail(f"{where}: probe interactions {row['probe_interactions']} "
                 f"!= baseline {base['probe_interactions']} -- trial 0 is a "
                 f"pure function of the seed, so the schedule is no longer "
                 f"bit-reproducible")
        pinned += 1
    if pinned == 0:
        fail("no fairness row overlapped the baseline -- nothing was pinned")
    print(f"ok: {pinned} probe count(s) exactly match the baseline "
          f"(bit-reproducible schedules)")


def check_sampler_setup(new_doc):
    """Gate 5: per-engine sampler setup stays amortized out."""
    setup = new_doc["sampler_setup"]
    fraction = setup.get("warm_fraction")
    if fraction is None:
        fail("sampler_setup block lacks warm_fraction")
    if fraction >= MAX_WARM_FRACTION:
        fail(f"sampler setup: warm engine construction costs {fraction:.0%} "
             f"of the cold log-factorial build (>= {MAX_WARM_FRACTION:.0%}); "
             f"the shared table is not being reused across engines")
    print(f"ok: sampler setup amortized (warm/cold {fraction:.2%}, "
          f"gate < {MAX_WARM_FRACTION:.0%})")


def check_sharded_scale(new_doc, base_doc, new_path, base_path):
    """Gate 6: the deep-trial block's speedup, determinism and (when the
    baseline ran the identical configuration) regression gates."""
    scale = new_doc["sharded_scale"]
    batch, sharded = validate_sharded_scale(new_doc, new_path)

    # The committed claim: even the slowest sharded row beats batch by the
    # committed multiple.  Same run, same exact budget -- machine frequency
    # cancels in the ratio, no calibration needed.
    slowest = min(sharded.values(), key=lambda r: r["interactions_per_second"])
    speedup = (slowest["interactions_per_second"] /
               batch["interactions_per_second"])
    if speedup < MIN_SHARDED_SPEEDUP:
        fail(f"sharded_scale (k={scale['k']}, n={scale['n']}): slowest "
             f"sharded row (threads={slowest['threads']}) is only "
             f"{speedup:.2f}x the batch baseline; the gate requires "
             f">= {MIN_SHARDED_SPEEDUP}x")
    print(f"ok: sharded_scale (k={scale['k']}, n={scale['n']}) slowest "
          f"sharded/batch speedup {speedup:.2f}x "
          f"(>= {MIN_SHARDED_SPEEDUP}x)")

    base_scale = base_doc["sharded_scale"]
    same_config = all(base_scale.get(key) == scale.get(key)
                      for key in ("k", "n", "budget", "seed"))
    if not same_config:
        print(f"skip: sharded-scale baseline comparison (configuration "
              f"differs: n={scale['n']}/budget={scale['budget']} vs baseline "
              f"n={base_scale.get('n')}/budget={base_scale.get('budget')})")
        return
    base_batch, base_sharded = validate_sharded_scale(base_doc, base_path)
    for threads in SHARDED_THREADS:
        row, base_row = sharded[threads], base_sharded[threads]
        gate_rate_drop(
            f"sharded_scale (n={scale['n']}, threads={threads})",
            row["interactions_per_second"], row.get("calibration_rate", 0),
            row.get("rep_spread", 0.0),
            base_row["interactions_per_second"],
            base_row.get("calibration_rate", 0),
            base_row.get("rep_spread", 0.0))
    # Verdict fingerprints hash the final configuration, whose trajectory
    # runs through shared-table lgamma values below the table bound; those
    # are libm-specific, so equality with the baseline is only a claim on
    # the same machine.
    if same_machine(new_doc, base_doc):
        for threads in SHARDED_THREADS:
            new_fp = sharded[threads]["fingerprint"]
            base_fp = base_sharded[threads]["fingerprint"]
            if new_fp != base_fp:
                fail(f"sharded_scale (threads={threads}): verdict "
                     f"fingerprint {new_fp} != baseline {base_fp} on the "
                     f"same machine and configuration -- the trajectory is "
                     f"no longer bit-reproducible")
        print(f"ok: sharded_scale verdict fingerprints match the baseline "
              f"({sharded[SHARDED_THREADS[0]]['fingerprint']})")
    else:
        print("skip: sharded-scale fingerprint-vs-baseline check (machine "
              "differs; shared-table lgamma values are libm-specific)")


def check_engines(new_doc, base_doc, new_path, base_path):
    new_points = validate_schema(new_doc, new_path)
    base_points = validate_schema(base_doc, base_path)

    for (k, n), rows in sorted(new_points.items()):
        if k != SPEEDUP_K or n < SPEEDUP_MIN_N:
            continue
        batch = rows["batch"]["interactions_per_second"]
        agent = rows["agent"]["interactions_per_second"]
        speedup = batch / agent
        if speedup < MIN_BATCH_SPEEDUP:
            fail(f"(k={k}, n={n}): batch is only {speedup:.2f}x the agent "
                 f"engine ({batch:.3g} vs {agent:.3g} int/s); the gate "
                 f"requires >= {MIN_BATCH_SPEEDUP}x")
        print(f"ok: (k={k}, n={n}) batch/agent speedup {speedup:.1f}x")

    # Both the batch engine and its sharded rebuild are regression-gated
    # against the baseline grid.
    compared = 0
    for (k, n), rows in sorted(new_points.items()):
        base = base_points.get((k, n))
        if base is None:
            print(f"skip: (k={k}, n={n}) not in baseline grid")
            continue
        for engine in ("batch", "sharded"):
            metric, new_tp, base_tp = comparable_rate(rows[engine],
                                                      base[engine])
            drop = 1.0 - new_tp / base_tp
            allowed = MAX_REGRESSION + noise_margin(rows[engine],
                                                    base[engine])
            if drop > allowed:
                fail(f"(k={k}, n={n}): {engine} {metric} dropped "
                     f"{drop:.0%} vs baseline ({new_tp:.3g} vs "
                     f"{base_tp:.3g}); the gate allows {allowed:.0%} "
                     f"({MAX_REGRESSION:.0%} budget + measured rep spread)")
            print(f"ok: (k={k}, n={n}) {engine} {metric} {new_tp:.3g} "
                  f"({-drop:+.0%} vs baseline)")
            compared += 1
    if compared == 0:
        fail("no (k, n) point overlapped the baseline -- nothing was gated")

    check_obs_overhead(new_doc, base_doc, new_points, base_points)
    check_sampler_setup(new_doc)
    check_sharded_scale(new_doc, base_doc, new_path, base_path)
    check_auto_crossover(new_doc, new_path)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    new_path = Path(argv[1])
    new_doc = load(new_path)
    schema = new_doc.get("schema")
    if schema == TOPOLOGY_SCHEMA:
        default_baseline = "BENCH_TOPOLOGY.json"
    elif schema == FAIRNESS_SCHEMA:
        default_baseline = "BENCH_FAIRNESS.json"
    elif schema == EXACT_SCHEMA:
        default_baseline = "BENCH_EXACT.json"
    else:
        default_baseline = "BENCH_ENGINES.json"
    base_path = (Path(argv[2]) if len(argv) == 3 else
                 Path(__file__).resolve().parent.parent / default_baseline)
    base_doc = load(base_path)
    if schema == TOPOLOGY_SCHEMA:
        check_topology(new_doc, base_doc, new_path, base_path)
    elif schema == FAIRNESS_SCHEMA:
        check_fairness(new_doc, base_doc, new_path, base_path)
    elif schema == EXACT_SCHEMA:
        check_exact(new_doc, base_doc, new_path, base_path)
    else:
        check_engines(new_doc, base_doc, new_path, base_path)
    print("all benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
