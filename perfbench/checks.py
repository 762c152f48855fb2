"""Correctness checks, each against a computation made apart from the
timed code path. Each predicate judges one operation, so the self-test
can corrupt one output and see exactly that operation counted failed.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence, Tuple


def rows_signature(result) -> Dict:
    """A census result's rows as plain tuples (comparable)."""
    return {
        group: (row.total, row.feasible, row.iterations_sum, row.rounds_sum)
        for group, row in result.rows.items()
    }


def census_truth(cfg) -> Tuple[bool, int]:
    """Simulation ground truth (``baselines.bruteforce.simulation_feasible``)
    and the reference classifier's iteration count of one configuration."""
    from repro.baselines.bruteforce import simulation_feasible
    from repro.core.classifier import reference_classify

    return simulation_feasible(cfg), reference_classify(cfg).num_iterations


def census_record_ok(record: Optional[Dict], truth: Tuple[bool, int]) -> bool:
    """A cached census record agrees with :func:`census_truth`."""
    return (
        record is not None
        and (record.get("feasible"), record.get("iterations")) == tuple(truth)
    )


def iso_ok(copy_records: Sequence[Sequence[Dict]], base_feasible: Sequence[bool],
           rows: Dict, copies: int) -> bool:
    """Relabelled copies of one base share one record, and the census
    counts each base's reference verdict once per copy.

    ``copy_records[i]`` are the cached records of one sampled base's
    copies; ``base_feasible`` is the reference verdict of every base.
    """
    shared = all(
        records[0] is not None and all(r is records[0] for r in records)
        for records in copy_records
    )
    total = sum(row[0] for row in rows.values())
    feasible = sum(row[1] for row in rows.values())
    return (shared and total == copies * len(base_feasible)
            and feasible == copies * sum(base_feasible))


def trial_fields(record: Dict) -> Tuple[int, str, str, str]:
    """What the checks need of a campaign trial record."""
    return record["index"], record["strategy"], record["outcome"], record["digest"]


def trial_ok(trial: Tuple[int, str, str, str],
             reference: Dict[int, Tuple[str, str]]) -> bool:
    """A campaign trial (:func:`trial_fields`) did not crash (``error``),
    and a no-op-arm trial equals a direct reference-backend election:
    ``reference[index] = (digest, outcome)``. Derailed, timeout and
    match_error are adversary data, not failures."""
    index, strategy, outcome, digest = trial
    if outcome == "error":
        return False
    if strategy != "none":
        return True
    return (digest, outcome) == reference.get(index)


def replay_ok(report) -> bool:
    """A replayed trial reproduced its recorded digest and outcome."""
    return report.match


def response_ok(answer: Tuple[int, bytes], report: Dict) -> bool:
    """An HTTP answer is 200 with a report equal to the serial oracle
    (``service.serial_report``) computed before timing."""
    status, body = answer
    try:
        decoded = json.loads(body)
    except ValueError:
        return False
    return status == 200 and bool(decoded.get("ok")) and decoded.get("report") == report
