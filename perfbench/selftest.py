"""Self-test: the benchmark's output checks fail closed.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs each workload's check on real outputs (which must pass) and on
outputs with one planted defect (which must fail):

* optimize-grid: one cell's ``P(k)`` moved by 1e-6 before it is scored;
* protocol-mc: one replication's level shifted in the scalar-oracle
  subset, and one cell's ``P(Y >= 2)`` count shifted by 1%;
* fault-campaign: 5% of one cell's runs moved from level 1 to level 0;
* paper-full: one rendered cell of a deterministic section changed, and
  one seeded-MC section's interval moved off its analytic value.

Exits 0 when every planted defect raised the failed count above 0.
"""

from __future__ import annotations

import dataclasses
import sys

import run  # sets up the environment the benchmark measures in

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from repro.experiments import faults_exp, table1  # noqa: E402

SCRATCH = run.STATE


def expect(label: str, failed: int, messages, should_fail: bool) -> bool:
    ok = (failed > 0) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}: failed={failed}", *messages[:1], sep="  ")
    return ok


def optimize_grid() -> bool:
    import repro.optimize.evaluate as evaluate

    workload = workloads.OptimizeGrid(0)
    workload.build()
    rows, _, _ = run.timed_pass(workload, SCRATCH)
    ok = expect("optimize-grid as measured", *workload.check(rows), should_fail=False)

    original = evaluate.capacity_distribution_expanded
    calls = []

    def perturbed(*args, **kwargs):
        pk = dict(original(*args, **kwargs))
        calls.append(None)
        if len(calls) == 5:
            top = max(pk, key=pk.get)
            pk[top] -= 1e-6
            pk[top - 1] = pk.get(top - 1, 0.0) + 1e-6
        return pk

    evaluate.capacity_distribution_expanded = perturbed
    try:
        rows, _, _ = run.timed_pass(workload, SCRATCH)
    finally:
        evaluate.capacity_distribution_expanded = original
    return expect("optimize-grid, one P(k) moved by 1e-6", *workload.check(rows), should_fail=True) and ok


def protocol_mc() -> bool:
    workload = workloads.ProtocolMC(1)
    workload.build()
    counts, _, _ = run.timed_pass(workload, SCRATCH)
    ok = expect("protocol-mc as measured", *workload.check(counts), should_fail=False)
    shifted = [list(cell) for cell in counts]
    shifted[4][1] += workload.REPLICATIONS // 100
    ok &= expect("protocol-mc, one count shifted by 1%", *workload.check(shifted), should_fail=True)
    attempted, failed, messages = workload.post_check()
    ok &= expect("protocol-mc scalar subset", failed, messages, should_fail=False)

    def shift_one(index, levels):
        if index == 0:
            levels[0] = (levels[0] + 1) % 3

    attempted, failed, messages = workload.post_check(perturb=shift_one)
    return expect("protocol-mc, one replication's level shifted", failed, messages, should_fail=True) and ok


def fault_campaign() -> bool:
    workload = workloads.FaultCampaign(1)
    workload.build()
    outputs, _, _ = run.timed_pass(workload, SCRATCH)
    ok = expect("fault-campaign as measured", *workload.check(outputs), should_fail=False)
    outcomes = list(outputs["outcomes"])
    counts = list(outcomes[6].level_counts)  # stale-view, OAQ: no analytic reference
    moved = workload.RUNS // 20
    counts[0] += moved
    counts[1] -= moved
    outcomes[6] = dataclasses.replace(outcomes[6], level_counts=tuple(counts))
    failed, messages = workload.check(dict(outputs, outcomes=outcomes))
    return expect("fault-campaign, 5% of a cell's runs moved to level 0", failed, messages, should_fail=True) and ok


def paper_full() -> bool:
    workload = workloads.PaperFull(0)
    reference = {section["id"]: section for section in workloads.load_ref("paper_full.json")["sections"]}
    ok = True
    for run_fn, label, corrupt in (
        (table1.run, "table1", lambda result: result.rows[0].update({result.headers[-1]: 0.123456})),
        (faults_exp.run, "faults", lambda result: result.rows[0].update({"ci high": result.rows[0]["ci low"]})),
    ):
        result = run_fn()
        problems = workload.section_problems(result, reference[label])
        ok &= expect(f"paper-full section {label} as measured", len(problems), problems, should_fail=False)
        corrupt(result)
        problems = workload.section_problems(result, reference[label])
        ok &= expect(f"paper-full section {label} corrupted", len(problems), problems, should_fail=True)
    return ok


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    try:
        results = [optimize_grid(), protocol_mc(), fault_campaign(), paper_full()]
    finally:
        run.reap_workers()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
