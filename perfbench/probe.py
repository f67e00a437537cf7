"""Time one set-up in a fresh process and print it in seconds.

    PYTHONPATH=src python3 perfbench/probe.py '<ExperimentConfig JSON>'

Set-up is what a campaign pays before its first trial: importing the
package, then building and validating the experiment config.
"""

import json
import sys
import time

doc = json.loads(sys.argv[1])
start = time.perf_counter()
from stablematch.harness import ExperimentConfig  # noqa: E402

ExperimentConfig.from_dict(doc)
print(time.perf_counter() - start)
