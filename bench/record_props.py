#!/usr/bin/env python3
"""Record which props_search cases fail, the known answers the benchmark checks.

Replays every case of the props_search laws at props seed PROPS_SEED with
PROPS_CASES cases per law and writes bench/props_expected.json.  Takes
about three minutes:

    python3 bench/record_props.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from siglim.props import GenConfig, replay_case  # noqa: E402

from workloads import PROPS_CASES, PROPS_EXPECTED, PROPS_SEED, PropsSearch  # noqa: E402


def main() -> int:
    cfg = GenConfig(seed=PROPS_SEED, cases=PROPS_CASES)
    failing = {law: [k for k in range(PROPS_CASES) if replay_case(law, cfg, k) is not None]
               for law in PropsSearch.WEIGHTS}
    PROPS_EXPECTED.write_text(json.dumps(failing, indent=2) + "\n")
    print(json.dumps(failing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
