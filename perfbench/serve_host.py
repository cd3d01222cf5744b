"""``python -m repro serve`` with every layer wrapped (the traced
serve-mixed pass); the server's own spans are written to
``<span_dir>/server.json`` when it exits, its pool workers' after each job.

    python3 perfbench/serve_host.py <span_dir> serve [serve flags...]
"""

import json
import os
import sys

from common import require_sources

require_sources()

import layers  # noqa: E402

if __name__ == "__main__":
    span_dir = sys.argv[1]
    layers.install(span_dir)
    from repro.cli import main

    try:
        code = main(sys.argv[2:])
    finally:
        with open(os.path.join(span_dir, "server.json"), "w") as fh:
            json.dump(layers.snapshot(), fh)
    sys.exit(code)
