"""One segment of a benchmark run, in a fresh process.

``run.py`` starts ``python3 bench/segment.py``, writes the keyword
arguments of :func:`run.segment` to its standard input and reads the
result from its standard output, both pickled.
"""

import pickle
import sys

import run


def main() -> int:
    job = sys.stdin.buffer.read()
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # standard output carries only the result
    run.import_program()  # before unpickling: the workload refers to bmlab
    pickle.dump(run.segment(**pickle.loads(job)), out)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
