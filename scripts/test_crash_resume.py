#!/usr/bin/env python3
"""SIGKILL crash-resume integration test for the campaign runner.

Runs `campaign_cli` (tests/campaign_cli_main.cpp) three ways and demands
byte-identical reports:

  1. Uninterrupted, single-threaded (the reference).
  2. Uninterrupted at a higher thread count (merge order must not matter).
  3. Killed with SIGKILL at randomized points and resumed from its
     checkpoint until it exits complete -- at both thread counts.

It first checks that an unknown engine name (including "count", the
spelling of the deleted count-vector engine) is rejected with a clean
non-zero exit, never an abort and never an alias for another engine.

SIGKILL cannot be caught, so this exercises the real crash contract: the
atomic checkpoint (write-temp-then-rename) is either the old state or the
new state, never a torn file, and no completed trial is ever lost or
recomputed differently.  The kill schedule is drawn from a seeded RNG so
failures reproduce with --seed.

Usage:
  scripts/test_crash_resume.py --cli build/tests/campaign_cli [--quick]
                               [--engine agent|jump|...]
"""

import argparse
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import time


def run_campaign(cli, workdir, tag, threads, config, kill_after=None):
    """One campaign_cli invocation; returns (returncode, killed)."""
    out = workdir / f"report-{tag}.json"
    ckpt = workdir / f"ckpt-{tag}.json"
    cmd = [
        str(cli),
        "--trials", str(config["trials"]),
        "--seed", str(config["seed"]),
        "--n", str(config["n"]),
        "--k", str(config["k"]),
        "--engine", config["engine"],
        "--budget", str(config["budget"]),
        "--chunk", str(config["chunk"]),
        "--checkpoint-every", "1",
        "--checkpoint", str(ckpt),
        "--threads", str(threads),
        "--out", str(out),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)
    if kill_after is None:
        return proc.wait(), False
    time.sleep(kill_after)
    if proc.poll() is not None:
        return proc.returncode, False
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    return proc.returncode, True


def expect_unknown_engine(cli, name):
    """campaign_cli must refuse an unknown engine name cleanly."""
    proc = subprocess.run([str(cli), "--engine", name, "--trials", "1"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode <= 0 or "unknown engine" not in proc.stderr:
        raise SystemExit(
            f"FAIL: --engine {name} exited {proc.returncode} with stderr "
            f"{proc.stderr.strip()!r}; expected a non-zero exit naming an "
            f"unknown engine")
    print(f"--engine {name}: rejected as an unknown engine")


def report_bytes(workdir, tag):
    return (workdir / f"report-{tag}.json").read_bytes()


def complete_with_kills(cli, workdir, tag, threads, config, rng, max_runs):
    """Kill/resume until campaign_cli exits 0; returns the kill count."""
    kills = 0
    for attempt in range(max_runs):
        # Bias early: most kills land mid-campaign, the tail lets it finish.
        kill_after = rng.uniform(0.02, 0.35) if attempt < max_runs - 1 else None
        code, killed = run_campaign(cli, workdir, tag, threads, config,
                                    kill_after)
        if killed:
            kills += 1
            continue
        if code == 0:
            return kills
        raise SystemExit(
            f"FAIL: {tag}: campaign_cli exited {code} on resume "
            f"(attempt {attempt}, {kills} kill(s) so far)")
    raise SystemExit(f"FAIL: {tag}: campaign did not complete in "
                     f"{max_runs} runs")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True,
                        help="path to the campaign_cli binary")
    parser.add_argument("--seed", type=int, default=20260808,
                        help="kill-schedule RNG seed")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized configuration (~seconds)")
    parser.add_argument("--engine", default="agent",
                        help="engine to drive (default: agent)")
    args = parser.parse_args()

    cli = pathlib.Path(args.cli)
    if not cli.exists():
        raise SystemExit(f"no such binary: {cli}")
    for name in ("warp-drive", "count"):
        expect_unknown_engine(cli, name)

    # Sized so the single-threaded reference takes on the order of a
    # second: long enough that the randomized kills reliably land
    # mid-campaign, short enough for a PR gate.
    config = {
        "trials": 24 if args.quick else 48,
        "seed": 4242,
        "n": 400 if args.quick else 800,
        "k": 4,
        "engine": args.engine,
        "budget": 40_000_000,
        # Small chunks: many checkpoint opportunities per trial, so SIGKILL
        # lands mid-trial often and resume restores from engine snapshots.
        "chunk": 4096,
    }
    rng = random.Random(args.seed)
    thread_counts = [1, 4]
    max_runs = 40

    with tempfile.TemporaryDirectory(prefix="ppk-crash-resume-") as tmp:
        workdir = pathlib.Path(tmp)

        code, _ = run_campaign(cli, workdir, "ref", 1, config)
        if code != 0:
            raise SystemExit(f"FAIL: reference run exited {code}")
        reference = report_bytes(workdir, "ref")
        print(f"reference: {config['trials']} trials, "
              f"{len(reference)} byte report")

        total_kills = 0
        for threads in thread_counts:
            tag = f"t{threads}"
            code, _ = run_campaign(cli, workdir, tag, threads, config)
            if code != 0:
                raise SystemExit(f"FAIL: threads={threads} run exited {code}")
            if report_bytes(workdir, tag) != reference:
                raise SystemExit(
                    f"FAIL: uninterrupted threads={threads} report differs "
                    "from the reference")
            print(f"threads={threads}: uninterrupted report bit-identical")

            tag = f"kill-t{threads}"
            kills = complete_with_kills(cli, workdir, tag, threads, config,
                                        rng, max_runs)
            total_kills += kills
            if report_bytes(workdir, tag) != reference:
                raise SystemExit(
                    f"FAIL: threads={threads} report differs after "
                    f"{kills} SIGKILL(s) + resume")
            print(f"threads={threads}: report bit-identical after "
                  f"{kills} SIGKILL(s)")

        if total_kills == 0:
            raise SystemExit(
                "FAIL: no run was ever killed mid-campaign -- the "
                "configuration finishes too fast to test anything; grow "
                "--trials/--budget or shrink the kill delays")
    print("OK: crash-resume reports bit-identical across kills and "
          "thread counts")


if __name__ == "__main__":
    main()
