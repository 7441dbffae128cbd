"""Write one workload's inputs with the program itself, in a fresh interpreter.

Usage: python3 perfbench/prepare.py WORKLOAD SEED INPUT_DIR

Importing ``dropoutlab.cli`` first also warms the bytecode and file caches, so
the first timed invocation does not pay for compiling the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from dropoutlab import cli
from dropoutlab.dataset import corpus_config_to_dict, default_corpus_config
from dropoutlab.paradigms import PARADIGMS


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(workload: str, seed: int, inputs: Path) -> int:
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "experiment":
        write_json(inputs / "corpus_config.json", corpus_config_to_dict(default_corpus_config(8, 500)))
        write_json(inputs / "manifest.json", {
            "master_seed": seed,
            "corpus_config_path": "corpus_config.json",
            "paradigms": list(PARADIGMS),
            "reg_C": 1.0,
            "holdout": 0.0,
            "output_dir": "../pass/run",
        })
        return 0
    if workload == "growth":
        return cli.main(["synth", "--courses", "4", "--students", "2000",
                         "--seed", str(seed), "--out", str(inputs / "corpus")])
    if workload == "cli":
        write_json(inputs / "manifest.json", {
            "master_seed": seed,
            "corpus_config_path": "../pass/corpus/corpus_config.json",
            "paradigms": ["baseline1", "baseline2"],
            "output_dir": "../pass/run",
        })
        return 0
    print(f"unknown workload {workload!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
