"""Run a scenario config from the command line.

``python -m repro.scenarios configs/fig10_sharded_scaling.toml --set
run.epochs=8 --out results/`` loads the TOML, applies ``--set`` overrides,
runs it, prints the benchmark-style table, and writes ``BENCH_<name>.json``
plus a self-contained ``REPORT_<name>.html`` under ``--out``.

Deliberately env-free: every knob arrives via the config file or ``--set``
(simlint SL009 keeps it that way).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .loader import load_scenario
from .runner import ScenarioRunner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run a declarative scenario config against the simulators.",
    )
    parser.add_argument("config", help="path to a scenario TOML file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable), e.g. --set run.epochs=8",
    )
    parser.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="directory for BENCH_<name>.json and REPORT_<name>.html "
        "(default: results/)",
    )
    parser.add_argument(
        "--no-report",
        action="store_true",
        help="skip writing the HTML report",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = load_scenario(args.config, overrides=args.overrides)
    result = ScenarioRunner().run(spec)
    print(result.table)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads: List[str] = []
    bench_path = out_dir / f"BENCH_{spec.name}.json"
    bench_path.write_text(
        json.dumps(
            {"name": spec.name, "table": result.table, **result.bench_payload()},
            indent=2,
            sort_keys=True,
            default=str,
        )
        + "\n"
    )
    payloads.append(str(bench_path))
    if not args.no_report:
        payloads.append(str(result.write(out_dir)))
    print("\nwrote: " + ", ".join(payloads))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
