"""Set-up time of one workload, measured in a fresh interpreter.

Times importing pilotwave, parsing each command's config and building its
scenario, and prints the seconds taken.  Usage (from the checkout root):

    python3 perfbench/setup_probe.py '<JSON list of config documents>'
"""
import json
import os
import sys
from time import perf_counter


def main() -> None:
    docs = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    t0 = perf_counter()
    from pilotwave import cli, scenarios
    for doc in docs:
        cfg = cli.RunConfig.from_dict(doc)
        scenarios.build(cfg.scenario_name, cfg.scenario_params)
    print(f"{perf_counter() - t0!r}")


if __name__ == "__main__":
    main()
