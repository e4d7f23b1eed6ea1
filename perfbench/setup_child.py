"""One set-up round, in a fresh interpreter.

    python3 perfbench/setup_child.py WORKLOAD INPUTS.pkl

Import ``repro``, build the workload's stack, produce the first result,
tear down; take a yardstick probe at every phase boundary.  The last
line of standard output is ``{"marks": [[label, t_before_probe,
t_after_probe, *probe], ...], "digest": ...}``;
``time.perf_counter`` is the system-wide monotonic clock, so the parent
lines these times up with its own.
"""

import json
import os
import pickle
import sys
import time


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [os.path.join(root, "src"), root]
    name, inputs_path = sys.argv[1], sys.argv[2]

    from perfbench.yardstick import probe
    marks = []

    def mark(label: str) -> None:
        t_in = time.perf_counter()
        reading = probe()
        marks.append([label, t_in, time.perf_counter(), *reading])

    mark("interpreter")
    import repro  # noqa: F401
    mark("import")
    from perfbench.harness import workload_class
    with open(inputs_path, "rb") as fh:
        inputs = pickle.load(fh)
    mark("inputs")
    digest = workload_class(name).setup_round(inputs, mark)
    from perfbench.census import stop_resource_tracker
    stop_resource_tracker()
    mark("teardown")
    print(json.dumps({"marks": marks, "digest": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
