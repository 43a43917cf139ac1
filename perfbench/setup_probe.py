"""One set-up in a fresh interpreter: import dronesim, load the documents.

Usage: python3 setup_probe.py SRC_DIR DOCUMENT...

Prints one JSON object with the paced seconds (see ``pace.py``) spent
importing the package and loading and validating every document through
``load_scenario``.
"""

import json
import sys
import time

from pace import Pace


def main(argv: list[str]) -> int:
    src, documents = argv[0], argv[1:]
    sys.path.insert(0, src)
    with Pace() as pace:
        start = time.perf_counter()
        import dronesim
        imported = time.perf_counter()
        for path in documents:
            dronesim.load_scenario(path)
        loaded = time.perf_counter()
    print(json.dumps({"import_s": pace.paced(start, imported),
                      "load_s": pace.paced(imported, loaded)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
