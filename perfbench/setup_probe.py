"""Set-up time of `traced` in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR INSTANCE_ID...

Imports the package with its suite registry, the DSL and the CLI, then
builds the given instances, and prints {"import_s", "instances_s"} as JSON.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import traced  # noqa: E402
import traced.cli  # noqa: E402,F401
import traced.dsl  # noqa: E402,F401
import traced.suites  # noqa: E402,F401  (builds the suite registry)

imported = time.perf_counter()
for instance_id in sys.argv[2:]:
    traced.get_instance(instance_id)
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "instances_s": built - imported}))
