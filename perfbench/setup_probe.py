"""One set-up of the library, timed in a fresh interpreter.

Imports every patentgen module a workload touches, loads and verifies the
prompt registry and the stopword list, and, given --endpoint, constructs an
HTTP gateway. Prints {"seconds": ...} measured from before the first import,
so interpreter start-up is not counted.
"""

import time

_start = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--endpoint", default="")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    import patentgen.bench  # noqa: F401
    import patentgen.datakit  # noqa: F401
    import patentgen.pipeline  # noqa: F401
    from patentgen import metrics
    from patentgen.gateway import BackendConfig, build_gateway
    from patentgen.prompts import PromptRegistry

    PromptRegistry()
    metrics.stopwords()
    if args.endpoint:
        build_gateway(BackendConfig(kind="http", endpoint=args.endpoint, model_id="fake-model"))
    print(json.dumps({"seconds": time.perf_counter() - _start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
