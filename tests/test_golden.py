"""Golden outputs: pinned configs rerun and compared with tests/golden/golden.json.

Each entry runs one config through ``harness.run`` and compares its
``config_hash``, the SHA-256 of each CSV and of ``summary.json`` without
``out_dir``, and key values: every number of the per-seed results and the
last row of each CSV.  The bits of these outputs rest on OpenBLAS (the
utility matmuls, ``vecdot``) and on numpy's summation order, so the file
records the platform it was made on.  On that platform the hashes must match
exactly; elsewhere they are not comparable, and the key values must match
at ``REL_TOL``.  The hash of the config and every integer or null value (the
switch epochs and rounds) must match everywhere.  The adversary entry pins
the bandit-monitor adversary's switch epoch, and the verify entry every
check value and count of ``a2l verify all`` apart from wall times.

After an intended change of output, regenerate the changed entries and say
in CHANGES.md which and why:

    PYTHONPATH=src python tests/test_golden.py --write [ENTRY ...]

where an ENTRY is a config name, ``adversary`` or ``verify``.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from a2l import bandit, harness, verify

GOLDEN = Path(__file__).parent / "golden" / "golden.json"
REL_TOL = 1e-9  # relative tolerance on key values off the recorded platform
ABS_TOL = 1e-12

_BLAS = ("the utility vectors come from OpenBLAS gemv and vecdot, and the "
         "statistics from numpy sums")
_FISHER = "prices and gaps come from numpy sums and einsum, in numpy's summation order"

# name -> (config, what its bits rest on)
CONFIGS = {
    "determinism-gradient": ({"mode": "gradient",
                              "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 5},
                              "T": 300, "seeds": [0, 1]}, _BLAS),
    "determinism-bandit": ({"mode": "bandit",
                            "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 11},
                            "epochs": 6, "seeds": [0, 1]}, _BLAS),
    "determinism-fisher": ({"mode": "fisher", "market": {"m": 3, "n": 3, "seed": 2},
                            "T": 200, "seeds": [0]}, _FISHER),
    "gradient-zs3d5": ({"mode": "gradient", "game": {"kind": "random_zs", "n": 3, "d": 5},
                        "T": 10_000, "seeds": [0]}, _BLAS),
    "bandit-zs3d5-theory": ({"mode": "bandit",
                             "game": {"kind": "random_zs", "n": 3, "d": 5, "seed": 0},
                             "schedule": {"mode": "theory"}, "epochs": 30, "seeds": [0]},
                            _BLAS),
    # Unequal action counts: the padded stacked pipeline.
    "bandit-counts-2-4-3-theory": ({"mode": "bandit",
                                    "game": {"kind": "random_zs", "n": 3, "d": [2, 4, 3],
                                             "seed": 4},
                                    "schedule": {"mode": "theory"}, "epochs": 24,
                                    "seeds": [0]}, _BLAS),
    "fisher-10x8": ({"mode": "fisher", "market": {"m": 10, "n": 8, "seed": 0},
                     "T": 1000, "seeds": [0]}, _FISHER),
    # Matching pennies against a follow-the-leader exploiter: the guarded
    # row switches in round 737.
    "gradient-guarded-switch": ({
        "mode": "gradient",
        "game": {"inline": {"n": 2, "action_counts": [2, 2], "zero_sum": False, "edges": [
            {"i": 0, "j": 1, "matrix": [[1.0, -1.0], [-1.0, 1.0]]},
            {"i": 1, "j": 0, "matrix": [[-5.0, 5.0], [5.0, -5.0]]}]}},
        "players": [{"algo": "guarded-a2l-omwu"},
                    {"algo": "mwu", "eta": 2.0, "bias": [1.0, 0.0]}],
        "T": 1000, "certified": False, "seeds": [0]}, _BLAS),
    # Both monitors fire in epoch 1; the rest is played round by round.
    "bandit-forced-switch": ({
        "mode": "bandit", "game": {"kind": "random_zs", "n": 2, "d": 3, "seed": 11},
        "schedule": {"mode": "custom", "coeff": 250, "power": 0.0,
                     "eps_coeff": 0.5, "eps_power": 0.0},
        "epochs": 8, "monitor_c": -1e9, "certified": False, "seeds": [0]}, _BLAS),
}

# The benchmark's configs as perfbench/workloads.py builds them at --seed 0,
# without out_dir and workers.  The Fisher markets are the generator specs
# that resolve to the markets the benchmark writes out in full.
CONFIGS.update({
    f"bench-gradient-{key}": ({"mode": "gradient", "game": game, "algo": "a2l-omwu",
                               "eta": None, "T": 10_000, "seeds": [seed]}, _BLAS)
    for key, game, seed in (
        ("matching_pennies", {"kind": "matching_pennies"}, 1826701614),
        ("rps", {"kind": "rps"}, 1367864806),
        ("zs2d10", {"kind": "random_zs", "n": 2, "d": 10}, 1097657231),
        ("zs3d5", {"kind": "random_zs", "n": 3, "d": 5}, 579362555),
        ("zs4d10cyc", {"kind": "random_zs", "n": 4, "d": 10, "graph": "cycle"}, 661058651),
        ("zs4d6gnp", {"kind": "random_zs", "n": 4, "d": 6, "graph": "gnp", "p": 0.6},
         87989972),
    )
})
CONFIGS.update({
    f"bench-bandit-{key}": ({"mode": "bandit", "game": game, "schedule": {"mode": mode},
                             "epochs": epochs, "seeds": [1367864806]}, _BLAS)
    for key, game, mode, epochs in (
        ("suite-theory", {"kind": "random_zs", "n": 2, "d": 3, "seed": 11}, "theory", 32),
        ("suite-theory_d", {"kind": "random_zs", "n": 2, "d": 3, "seed": 11}, "theory_d", 24),
        ("zs3d5-theory", {"kind": "random_zs", "n": 3, "d": 5, "seed": 1826701614},
         "theory", 30),
        ("zs3d5-theory_d", {"kind": "random_zs", "n": 3, "d": 5, "seed": 1826701614},
         "theory_d", 21),
    )
})
CONFIGS.update({
    f"bench-fisher-{m}x{n}": ({"mode": "fisher", "market": {"m": m, "n": n, "seed": seed},
                               "T": 1000, "seeds": [0]}, _FISHER)
    for m, n, seed in ((5, 5, 1826701614), (10, 8, 1367864806), (20, 10, 1097657231),
                       (35, 15, 579362555), (50, 20, 661058651))
})


def platform_record() -> dict:
    """What the bits of the outputs rest on: numpy, the BLAS it calls and the
    CPU features numpy and OpenBLAS dispatch on."""
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def _key_values(obj, path=""):
    """The numbers and nulls of a JSON value by path; floats as float.hex."""
    if isinstance(obj, dict):
        return {k: v for key in sorted(obj) for k, v in _key_values(obj[key],
                                                                   f"{path}.{key}").items()}
    if isinstance(obj, list):
        return {k: v for i, x in enumerate(obj) for k, v in _key_values(x,
                                                                        f"{path}[{i}]").items()}
    if isinstance(obj, float):
        return {path: obj.hex()}
    if obj is None or isinstance(obj, (bool, int)):
        return {path: obj}
    return {}


def run_entry(name) -> dict:
    cfg_dict, rests_on = CONFIGS[name]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = harness.load_config({**cfg_dict, "out_dir": tmp})
        summary = harness.run(cfg)
        del summary["config"]["out_dir"]
        files = {"summary.json": hashlib.sha256(
            json.dumps(summary, indent=2, sort_keys=True).encode()).hexdigest()}
        values = _key_values(summary["results"], "results")
        for csv in sorted(Path(tmp).glob("*.csv")):
            data = csv.read_bytes()
            files[csv.name] = hashlib.sha256(data).hexdigest()
            last = data.decode().rstrip("\n").rsplit("\n", 1)[-1].split(",")
            values.update({f"{csv.name}[-1][{k}]": float(x).hex() for k, x in enumerate(last)})
    return {"config": cfg_dict, "rests_on": rests_on, "config_hash": summary["config_hash"],
            "files": files, "values": values}


def bait(t):
    """The bandit-monitor adversary: alternating utility vectors."""
    return np.array([1.0, 0.0]) if t % 2 == 1 else np.array([0.475, 0.525])


def run_adversary() -> dict:
    sched = bandit.EpochSchedule.custom(coeff=4000, power=0.0, eps_coeff=0.5, eps_power=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        adv = bandit.run_bandit_vs_environment(2, bait, sched, eta=1.0 / 12, seed=1,
                                               delta=0.05, epochs=6000)
    t = adv["switch_epoch"]
    return {"rests_on": _BLAS, "switch_epoch": t, "values": {
        "reg_est": float(adv["reg_est"][t - 1]).hex(),
        "true_reg": float(adv["true_reg"][t - 1]).hex()}}


def run_verify() -> dict:
    """Every check and count of ``verify.run_suite("all")``, checks by name,
    without the wall-time checks."""
    def by_name(details):
        checks = {c["name"]: by_name(c["details"]) if "details" in c else c
                  for c in details["checks"] if "wall time" not in c["name"]}
        return {**details, "checks": checks}

    result = verify.run_suite("all").to_dict()
    return {"rests_on": f"{_BLAS}; {_FISHER}",
            "values": _key_values(by_name(result["details"]), "all")}


def _close(got, want) -> bool:
    if got == want:  # NaN too: both are written "nan"
        return True
    if isinstance(want, str) and isinstance(got, str):
        return math.isclose(float.fromhex(got), float.fromhex(want),
                            rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return False


def _compare(got: dict, want: dict, same_platform: bool):
    assert set(got["values"]) == set(want["values"])
    bad = {k: (got["values"][k], v) for k, v in want["values"].items()
           if not _close(got["values"][k], v)}
    assert not bad, f"key values changed (got, golden): {bad}"
    if same_platform:
        assert got["values"] == want["values"]
        assert got.get("files") == want.get("files")


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN.read_text())
    data["same_platform"] = data["platform"] == platform_record()
    return data


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_config_reproduces_its_golden_outputs(golden, name):
    want = golden["entries"][name]
    assert want["config"] == CONFIGS[name][0]
    got = run_entry(name)
    assert got["config_hash"] == want["config_hash"]
    assert set(got["files"]) == set(want["files"])
    _compare(got, want, golden["same_platform"])


def test_adversary_switches_in_its_golden_epoch(golden):
    want = golden["adversary"]
    got = run_adversary()
    assert got["switch_epoch"] == want["switch_epoch"] == 3641
    _compare(got, want, golden["same_platform"])


def test_verify_all_reproduces_its_golden_values(golden):
    _compare(run_verify(), golden["verify"], golden["same_platform"])


def main(argv):
    if argv[:1] != ["--write"]:
        sys.exit(__doc__)
    names = argv[1:] or sorted(CONFIGS)
    data = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
            else {"entries": {}})
    data["platform"] = platform_record()
    data["note"] = ("Hashes are compared on this platform only; elsewhere the key values "
                    f"at relative tolerance {REL_TOL}. Regenerate with "
                    "`PYTHONPATH=src python tests/test_golden.py --write [ENTRY ...]`.")
    extras = {"adversary": run_adversary, "verify": run_verify}
    for name in names:
        if name in extras:
            data[name] = extras[name]()
        else:
            data["entries"][name] = run_entry(name)
    if not argv[1:]:
        data.update({name: run() for name, run in extras.items()})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(names)} to {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
