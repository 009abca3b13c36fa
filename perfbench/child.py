"""One benchmark sample: a fresh process that calls psverify's ``cli.main``
once per command line, in order, and exits with the largest exit code.

    PYTHONPATH=src python3 perfbench/child.py '[["verify", "--max-weight", "8"]]'
    PYTHONPATH=src python3 perfbench/child.py --spans PATH '[[...], [...]]'

With one command line this is the same process as ``psverify <args>``.
``--spans PATH`` records spans around the public functions listed in
``spans.TIMED`` and writes them, with the recorder's own cost per span, to
PATH after the last call.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", metavar="PATH")
    parser.add_argument("argvs", help="JSON list of psverify argument lists")
    args = parser.parse_args()
    argvs = json.loads(args.argvs)

    from principal_subspaces import cli

    recorder = None
    if args.spans:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    codes = []
    for run_id, argv in enumerate(argvs):
        if recorder is not None:
            recorder.run_id = run_id
        codes.append(cli.main(argv))
    sys.stdout.flush()
    if recorder is not None:
        recorder.dump(args.spans)
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
