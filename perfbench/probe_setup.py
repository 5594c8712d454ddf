"""Everything `rfilab run` does before its first chain step, in a fresh process.

Usage: python3 perfbench/probe_setup.py CONFIG  (with rfilab on PYTHONPATH)

Imports rfilab.cli, loads and validates the config, builds the scenario and
draws the initial ensemble as `cmd_run` does; prints the ensemble's sha256
so that the caller can check the draw repeats.
"""

import hashlib
import sys

from rfilab import cli


def main(config_path: str) -> None:
    cfg = cli.load_config(config_path)
    scenario = cli.build_scenario(cfg["scenario"]["name"], cfg["scenario"].get("params", {}))
    initial = scenario.initial(cfg["ensemble_size"], cli.derive_seed(cfg["seed"], 0x11))
    print(hashlib.sha256(initial.points.tobytes()).hexdigest())


if __name__ == "__main__":
    main(sys.argv[1])
