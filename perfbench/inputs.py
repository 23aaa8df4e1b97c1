"""Write a workload's inputs to files, exactly as the benchmark builds them.

    python3 perfbench/inputs.py --workload cut --seed 0 --out perfbench/out/inputs

desk, large and wire: one pipeline config JSON per operation of a round;
``PYTHONPATH=src python3 -m hashclust.cli generate --config <file> --out <dir>``
then writes that operation's dataset CSV. cut: one CODES_PUSH payload per
site (``site<i>.bin``) and ``planted.json`` with every planted code, its
group, its distance to the group's centre and its degree.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed)
    if args.workload == "cut":
        p = workload.planted
        for site, payload in enumerate(p.payloads):
            (out / f"site{site}.bin").write_bytes(payload)
        planted = {"code_length": workloads.CUT_L, "k": workloads.CUT_K,
                   "codes": p.codes.tolist(), "groups": p.groups.tolist(),
                   "radius": p.radius.tolist(), "degrees": p.degrees.tolist()}
        (out / "planted.json").write_text(json.dumps(planted) + "\n")
    else:
        for raw in workload.raws:
            (out / f"{args.workload}-seed{raw['seed']}.json").write_text(json.dumps(raw, indent=2) + "\n")
    print(f"wrote {args.workload} inputs for seed {args.seed} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
