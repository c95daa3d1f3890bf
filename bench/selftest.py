#!/usr/bin/env python3
"""Shows that every artifact check in checks.py rejects a corrupted output.

Usage, from the repository root (about a minute; not part of the test suite):

    python3 bench/selftest.py

Runs one round of each workload's session, checks that the real artifacts
pass, then corrupts a copy of one artifact at a time and checks that the
matching check raises CheckError. Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run
from checks import CheckError

SEED = 1


def edit_csv(path: Path, column: str, row: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = change(cells[j])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def swap_ap(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    a, b = lines[1].split(","), lines[4].split(",")
    a[6], b[6] = b[6], a[6]
    lines[1], lines[4] = ",".join(a), ",".join(b)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_line(path: Path, index: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    del lines[index]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def scale_all(column: str, factor: float):
    def corrupt(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        j = lines[0].split(",").index(column)
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[j] = repr(float(cells[j]) * factor)
            lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corrupt


# (workload, check, artifact under the session's work dir, corruption)
CORRUPTIONS = [
    ("reference-replications", "fluid", "fluid/trajectory.csv",
     lambda p: edit_csv(p, "z_rd", 2400, scale(1 + 1e-3))),
    ("two-peak-week", "fluid", "fluid/trajectory.csv",
     lambda p: edit_csv(p, "lambda_total", 700, scale(1 + 1e-6))),
    ("two-peak-week", "fluid", "fluid/stationary.json",
     lambda p: edit_json(p, lambda d: d["intervals"][3].update(z_rc=d["intervals"][3]["z_rc"] * 1.001))),
    ("reference-replications", "erlang", "erlang/performance.csv", swap_ap),
    ("two-peak-week", "erlang", "erlang/performance.csv",
     lambda p: edit_csv(p, "lambda_mean", 50, scale(1 + 1e-4))),
    ("oracle-boxes", "erlang", "erlang/performance.csv",
     lambda p: edit_csv(p, "sl", 8, scale(1.01))),
    ("reference-replications", "simulate", "simulate/metadata.json",
     lambda p: edit_json(p, lambda d: d.update(n_abandoned=d["n_abandoned"] + 1))),
    ("reference-replications", "simulate", "simulate/summary.csv",
     scale_all("mean_z_rd", 1.1)),
    ("two-peak-week", "simulate", "simulate/records.csv",
     lambda p: drop_line(p, 5000)),
    ("two-peak-week", "simulate", "simulate/path.csv",
     lambda p: edit_csv(p, "d_s", 9000, lambda c: str(int(c) + 1))),
    ("oracle-boxes", "simulate", "simulate/summary.csv",
     scale_all("mean_z_q", 2.0)),
    ("oracle-boxes", "oracle", "oracle_small/oracle.json",
     lambda p: edit_json(p, lambda d: d.update(residual=1e-9))),
    ("oracle-boxes", "oracle", "oracle_large/oracle.json",
     lambda p: edit_json(p, lambda d: d["moments"].update(e_zq=d["moments"]["e_zq"] + 1e-5))),
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    base = run.OUT / "selftest"
    sessions = {}
    for name, workload in run.WORKLOADS.items():
        session = run.make_session(workload, SEED, base / name)
        for metric, (_, argv) in session.calls.items():
            error = run.invoke(argv)
            if error:
                print(f"{name} {metric}: {error}")
                return 1
        for check, thunk in run.session_checks(session):
            thunk()  # real artifacts must pass
        print(f"{name}: real artifacts pass every check")
        sessions[name] = session

    missed = 0
    for name, check, artifact, corrupt in CORRUPTIONS:
        copy = base / "corrupt" / name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(sessions[name].work, copy)
        corrupt(copy / artifact)
        # checks run in session order, as later ones reuse earlier figures;
        # those before the target must still pass
        for current, thunk in run.session_checks(
                dataclasses.replace(sessions[name], work=copy)):
            if current != check:
                thunk()
                continue
            try:
                thunk()
            except CheckError as exc:
                print(f"rejected  {name} {artifact}: {exc}")
            else:
                missed += 1
                print(f"MISSED    {name} {artifact}: corruption passed the {check} check")
            break
    shutil.rmtree(base, ignore_errors=True)
    print(f"{len(CORRUPTIONS) - missed}/{len(CORRUPTIONS)} corruptions rejected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
